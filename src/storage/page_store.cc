#include "storage/page_store.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "storage/file_page_store.h"
#include "storage/page_file.h"

namespace burtree {

namespace {
thread_local uint64_t tls_io_count = 0;
}  // namespace

PageStore::~PageStore() = default;

uint64_t PageStore::thread_io() { return tls_io_count; }
void PageStore::ResetThreadIo() { tls_io_count = 0; }
void PageStore::AddThreadIo(uint64_t n) { tls_io_count += n; }

void PageStore::CountRead() {
  stats_.RecordRead();
  ++tls_io_count;
  ChargeLatency();
}

void PageStore::CountWrite() {
  stats_.RecordWrite();
  ++tls_io_count;
  ChargeLatency();
}

void PageStore::CountWrites(uint64_t n) {
  stats_.RecordWrites(n);
  tls_io_count += n;
  ChargeLatency();  // once per batch: the group write amortizes the seek
}

void PageStore::ChargeLatency() const {
  if (io_latency_ns_ == 0) return;
  // The caller yields the CPU, so independent work on other threads
  // proceeds during the simulated disk access.
  std::this_thread::sleep_for(std::chrono::nanoseconds(io_latency_ns_));
}

const char* StorageBackendName(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kMem: return "mem";
    case StorageBackend::kFile: return "file";
  }
  return "?";
}

bool ParseStorageBackend(const std::string& s, StorageOptions* opts) {
  if (s == "mem") {
    opts->backend = StorageBackend::kMem;
    opts->file_dir.clear();
    return true;
  }
  if (s == "file" || s.rfind("file:", 0) == 0) {
    opts->backend = StorageBackend::kFile;
    opts->file_dir = s.size() > 5 ? s.substr(5) : std::string();
    return true;
  }
  return false;
}

StatusOr<std::unique_ptr<PageStore>> MakePageStore(const StorageOptions& opts,
                                                   size_t page_size) {
  if (opts.backend == StorageBackend::kMem) {
    return std::unique_ptr<PageStore>(std::make_unique<PageFile>(page_size));
  }

  std::string dir = opts.file_dir;
  if (dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create storage dir '" + dir +
                           "': " + ec.message());
  }
  // Unique per process and per store so the tree and hash-index files of
  // one experiment (and parallel ctest runs) never collide.
  static std::atomic<uint64_t> counter{0};
  FilePageStoreOptions fopts;
  fopts.page_size = page_size;
  fopts.truncate = true;
  if (!opts.file_path.empty()) {
    // Explicit persistent path (crash-recovery setups): the file keeps
    // its name and survives the process, so a recovering run can reopen
    // it with truncate=false and replay the WAL into it.
    fopts.path = opts.file_path;
    fopts.unlink_after_open = false;
  } else {
    fopts.path = dir + "/burtree-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter.fetch_add(1)) + ".pages";
    // Scratch semantics: the name disappears immediately; the kernel
    // frees the blocks when the store closes its descriptor, so an
    // aborted bench leaves nothing behind.
    fopts.unlink_after_open = true;
  }
  auto store = FilePageStore::Open(fopts);
  if (!store.ok()) return store.status();
  return std::unique_ptr<PageStore>(std::move(store).value());
}

std::unique_ptr<PageStore> MustMakePageStore(const StorageOptions& opts,
                                             size_t page_size) {
  auto store = MakePageStore(opts, page_size);
  if (!store.ok()) {
    std::fprintf(stderr, "MakePageStore failed: %s\n",
                 store.status().ToString().c_str());
  }
  BURTREE_CHECK(store.ok());
  return std::move(store).value();
}

}  // namespace burtree

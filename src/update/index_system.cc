#include "update/index_system.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include <unistd.h>

namespace burtree {

namespace {

/// Log path for a WAL without an explicit one: a unique scratch name in
/// wal.dir / the storage dir / the system temp dir (created if missing).
std::string ScratchWalPath(const StorageOptions& storage) {
  std::string dir = storage.wal.dir;
  if (dir.empty()) dir = storage.file_dir;
  if (dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // MustOpen reports errors
  static std::atomic<uint64_t> counter{0};
  return dir + "/burtree-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".wal";
}

}  // namespace

IndexSystem::IndexSystem(const IndexSystemOptions& options)
    : options_(options) {
  file_ = MustMakePageStore(options_.storage, options_.tree.page_size);
  if (options_.storage.wal.enabled) {
    WalManagerOptions wopts;
    wopts.page_size = options_.tree.page_size;
    wopts.group_commit_us = options_.storage.wal.group_commit_us;
    wopts.checkpoint_log_bytes = options_.storage.wal.checkpoint_log_bytes;
    if (!options_.storage.wal.path.empty()) {
      wopts.path = options_.storage.wal.path;
      wopts.delete_on_close = false;  // kept for crash recovery
    } else {
      wopts.path = ScratchWalPath(options_.storage);
      wopts.delete_on_close = true;
    }
    wal_ = WalManager::MustOpen(wopts);
    wal_->SetCheckpointHooks(WalManager::CheckpointHooks{
        [this] { return pool_->FlushAll(); },
        [this] { pool_->WalCheckpointBeginSync(); },
        [this] { return file_->Sync(); },
        [this] { return pool_->WalDirtyRecFloor(); }});
    wal_->SetFreeFn([this](PageId id) {
      const Status s = file_->Free(id);
      if (!s.ok()) {
        std::fprintf(stderr, "burtree: WAL deferred free of page %u: %s\n",
                     id, s.ToString().c_str());
      }
    });
  }
  pool_ = std::make_unique<BufferPool>(file_.get(), options_.buffer_pages,
                                       options_.buffer_shards);
  pool_->set_wal(wal_.get());
  tree_ = std::make_unique<RTree>(pool_.get(), options_.tree);

  bool any = false;
  if (wal_ != nullptr) {
    wal_root_observer_.set_wal(wal_.get());
    observer_.Add(&wal_root_observer_);
    any = true;
  }
  if (options_.enable_oid_index) {
    oid_index_ = std::make_unique<HashIndex>(options_.hash);
    observer_.Add(oid_index_.get());
    any = true;
  }
  if (options_.enable_summary) {
    summary_ = std::make_unique<SummaryStructure>();
    observer_.Add(summary_.get());
    any = true;
  }
  if (any) {
    tree_->set_observer(&observer_);
    // The tree constructor ran before the observers attached; replay the
    // (empty-root) structure so the summary — and the WAL's root note —
    // knows the root.
    tree_->ReplayStructureTo(&observer_);
  }
}

Status IndexSystem::BulkLoad(std::vector<LeafEntry> entries, double fill) {
  return BulkLoader::Load(tree_.get(), std::move(entries), fill);
}

Status IndexSystem::FlushAll() {
  BURTREE_RETURN_IF_ERROR(pool_->FlushAll());
  if (oid_index_ != nullptr && !options_.hash.charge_unit_read) {
    // In the memory-resident configuration the hash table never reaches
    // disk; lookups carry the cost-model charge instead.
    BURTREE_RETURN_IF_ERROR(oid_index_->buffer().FlushAll());
  }
  return Status::OK();
}

uint64_t IndexSystem::TotalIo() const {
  uint64_t io = file_->io_stats().total_io();
  if (oid_index_ != nullptr) io += oid_index_->io_stats().total_io();
  return io;
}

IndexSystem::IoBreakdown IndexSystem::SnapshotIo() const {
  IoBreakdown b;
  b.tree = IoSnapshot::Take(file_->io_stats());
  if (oid_index_ != nullptr) {
    b.hash = IoSnapshot::Take(oid_index_->io_stats());
  }
  return b;
}

void IndexSystem::SetBufferFraction(double fraction) {
  const size_t pages = static_cast<size_t>(
      static_cast<double>(file_->live_pages()) * fraction);
  pool_->Resize(pages);
}

}  // namespace burtree

// PageFile: the in-memory PageStore — the "disk" of the paper's
// experiments. Pages live in RAM, but every Read/Write call is counted
// in IoStats: the paper's metric is the number of disk accesses, not
// their latency (contract in docs/STORAGE.md). Thread-safe: the
// concurrent throughput experiment drives one PageFile from 50 threads.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "storage/page_store.h"

namespace burtree {

/// The simulated disk: a latched slot vector of fixed-size pages. The
/// default PageStore backend, and byte-identical to the pre-PageStore
/// PageFile (pinned by tests/page_file_test.cc and the reference-LRU
/// equivalence test).
///
/// Thread-safety: fully thread-safe. A shared_mutex guards the slot
/// vector (Allocate/Free exclusive; Read/Write shared — slots are never
/// resized by I/O), and IoStats counters are atomic. The concurrent
/// throughput experiment drives one PageFile from 50 threads.
class PageFile final : public PageStore {
 public:
  /// Creates an empty file of `page_size`-byte pages.
  explicit PageFile(size_t page_size);

  PageId Allocate() override;
  Status Free(PageId id) override;
  Status Read(PageId id, uint8_t* out) override;
  Status Write(PageId id, const uint8_t* in) override;
  Status FlushDirtyBatch(const std::vector<PageWriteRequest>& reqs) override;
  size_t live_pages() const override;
  size_t allocated_slots() const override;

 private:
  bool IsLiveLocked(PageId id) const;

  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<uint8_t[]>> slots_;
  std::vector<bool> live_;
  std::vector<PageId> free_list_;
};

}  // namespace burtree

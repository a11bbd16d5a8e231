#include "buffer/buffer_pool.h"

#include <chrono>
#include <iterator>

#include "common/logging.h"
#include "storage/wal/wal_manager.h"

namespace burtree {

BufferPool::BufferPool(PageStore* file, size_t capacity, size_t shards)
    : file_(file), capacity_(capacity) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  RecomputeShardCapacities();
}

BufferPool::~BufferPool() {
  // Prefetch completions run on the store's engine threads and touch
  // shard state: wait them out before tearing anything down. (Demand
  // misses are caller-synchronous, so an empty miss table means no read
  // references this pool at all; FlushAll below drains write-backs.)
  for (auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    sp->miss_cv.wait(lock, [&] { return sp->miss_inflight.empty(); });
  }
  (void)FlushAll();
}

size_t BufferPool::shard_capacity(size_t s) const {
  // Even split with the remainder spread over the low shards, so the
  // shard budgets always sum to capacity(). With one shard this is the
  // whole capacity: identical to the classic unsharded pool.
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  const size_t n = shards_.size();
  return cap / n + (s < cap % n ? 1 : 0);
}

void BufferPool::RecomputeShardCapacities() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::unique_lock lock(shards_[i]->mu);
    shards_[i]->capacity = shard_capacity(i);
  }
}

void BufferPool::WaitForWriteback(Shard& shard,
                                  std::unique_lock<std::mutex>& lock,
                                  PageId id) {
  shard.writeback_cv.wait(
      lock, [&] { return shard.writeback.find(id) == shard.writeback.end(); });
}

void BufferPool::WaitForPageIo(Shard& shard,
                               std::unique_lock<std::mutex>& lock,
                               PageId id) {
  // Loop until one lock-held pass sees the page in neither table: while
  // this thread sleeps on miss_cv the latch is released, and the landed
  // miss can get published, dirtied, evicted, and enter a *write-back*
  // before the thread reacquires the latch — so each wake must re-check
  // both tables.
  for (;;) {
    WaitForWriteback(shard, lock, id);
    if (shard.miss_inflight.count(id) == 0) return;
    shard.miss_cv.wait(
        lock, [&] { return shard.miss_inflight.count(id) == 0; });
  }
}

StatusOr<Page*> BufferPool::FetchPage(PageId id) {
  Shard& shard = ShardFor(id);
  std::unique_lock lock(shard.mu);
  for (;;) {
    // A victim mid-write-back is not resident, but its disk image is
    // stale until the batch lands: wait it out before the miss path
    // reads disk.
    WaitForWriteback(shard, lock, id);
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      Frame* f = it->second.get();
      ++shard.stats.hits;
      file_->io_stats().RecordBufferHit();
      if (f->in_lru) {
        shard.lru.erase(f->lru_it);
        f->in_lru = false;
      }
      f->page.Pin();
      return &f->page;
    }
    if (shard.miss_inflight.count(id) == 0) break;
    // Another thread is already reading this page latch-free: wait for
    // its read to land (a hit on the next pass) or fail (this thread
    // becomes the loader), instead of issuing a duplicate disk read.
    shard.miss_cv.wait(
        lock, [&] { return shard.miss_inflight.count(id) == 0; });
  }
  // Become the loader: publish the in-flight marker, then read with the
  // shard latch *released*, so a slow page read stalls only waiters on
  // this page — hits and other misses on the shard proceed meanwhile.
  ++shard.stats.misses;
  shard.miss_inflight.insert(id);
  lock.unlock();
  auto f = std::make_unique<Frame>(file_->page_size());
  Status s;
  if (file_->supports_async_io()) {
    // Route the miss through the store's async engine so it overlaps
    // with queued prefetches and write-backs on the same device instead
    // of cutting ahead of them; the caller still blocks (it needs the
    // bytes), so the wait is a local rendezvous with the completion.
    std::mutex m;
    std::condition_variable cv;
    bool landed = false;
    std::vector<PageReadRequest> one;
    one.push_back(PageReadRequest{id, f->page.data()});
    file_->SubmitReadPages(
        std::move(one), [&](PageId, size_t, Status st) {
          std::lock_guard<std::mutex> g(m);
          s = st;
          landed = true;
          cv.notify_one();
        });
    std::unique_lock<std::mutex> g(m);
    cv.wait(g, [&] { return landed; });
  } else {
    s = file_->Read(id, f->page.data());
  }
  lock.lock();
  shard.miss_inflight.erase(id);
  shard.miss_cv.notify_all();
  if (!s.ok()) return s;
  f->page.set_page_id(id);
  f->page.set_dirty(false);
  if (wal_ != nullptr) {
    // Loaded bytes are some flushed — hence logged — state: a valid diff
    // base, so cold pages get delta captures too.
    f->page.CreateWalShadow(f->page.data());
  }
  f->page.Pin();
  Page* page = &f->page;
  shard.frames.emplace(id, std::move(f));
  EvictToCapacity(shard, lock);
  return page;
}

Page* BufferPool::NewPage() {
  PageId id = file_->Allocate();  // the PageStore has its own latch
  Shard& shard = ShardFor(id);
  std::unique_lock lock(shard.mu);
  if (file_->supports_async_io()) {
    // A prefetch of this slot's previous incarnation can race the
    // free/reuse cycle: its read may still be in flight, or a stale
    // clean frame may already sit in the pool. Wait the I/O out and
    // drop any stale frame (waiting out a transient optimistic-reader
    // pin like DeletePage does) before publishing the fresh page — a
    // duplicate emplace would silently fail and dangle.
    for (;;) {
      WaitForPageIo(shard, lock, id);
      auto stale = shard.frames.find(id);
      if (stale == shard.frames.end()) break;
      Frame* sf = stale->second.get();
      if (sf->page.pin_count() == 0) {
        if (sf->in_lru) shard.lru.erase(sf->lru_it);
        shard.frames.erase(stale);
        break;
      }
      ++shard.delete_waiters;
      shard.pin_cv.wait(lock, [&] {
        auto it2 = shard.frames.find(id);
        return it2 == shard.frames.end() ||
               it2->second->page.pin_count() == 0;
      });
      --shard.delete_waiters;
    }
  }
  auto f = std::make_unique<Frame>(file_->page_size());
  f->page.set_page_id(id);
  f->page.set_dirty(true);  // fresh page must reach disk eventually
  f->page.Pin();
  Page* page = &f->page;
  shard.frames.emplace(id, std::move(f));
  EvictToCapacity(shard, lock);
  return page;
}

void BufferPool::PrefetchPages(const std::vector<PageId>& ids) {
  if (ids.empty() || !file_->supports_async_io() || capacity() == 0) {
    return;
  }
  // Bucket by shard so each shard pays one latch acquisition and the
  // store sees the whole bucket at once (contiguous ids fuse into
  // vectored runs down there).
  std::vector<std::vector<PageId>> buckets(shards_.size());
  for (PageId id : ids) buckets[shard_of(id)].push_back(id);
  for (size_t si = 0; si < buckets.size(); ++si) {
    if (buckets[si].empty()) continue;
    Shard* sp = shards_[si].get();
    // The frames ride from submit to completion in this closure-owned
    // map; completions extract their run's entries under the latch.
    auto pending = std::make_shared<
        std::unordered_map<PageId, std::unique_ptr<Frame>>>();
    std::vector<PageReadRequest> reqs;
    {
      std::unique_lock lock(sp->mu);
      for (PageId id : buckets[si]) {
        // Fill free room only — counting in-flight prefetches — so a
        // completion never has to evict to publish.
        if (sp->frames.size() + sp->prefetch_inflight >= sp->capacity) {
          break;
        }
        if (sp->frames.count(id) != 0 || sp->writeback.count(id) != 0 ||
            sp->miss_inflight.count(id) != 0 || pending->count(id) != 0) {
          continue;
        }
        auto f = std::make_unique<Frame>(file_->page_size());
        reqs.push_back(PageReadRequest{id, f->page.data()});
        pending->emplace(id, std::move(f));
        sp->miss_inflight.insert(id);
        ++sp->prefetch_inflight;
      }
    }
    if (reqs.empty()) continue;
    file_->SubmitReadPages(
        std::move(reqs),
        [this, sp, pending](PageId first, size_t count, Status s) {
          std::unique_lock<std::mutex> lock(sp->mu);
          for (size_t i = 0; i < count; ++i) {
            const PageId id = first + static_cast<PageId>(i);
            auto it = pending->find(id);
            BURTREE_CHECK(it != pending->end());
            std::unique_ptr<Frame> f = std::move(it->second);
            pending->erase(it);
            sp->miss_inflight.erase(id);
            --sp->prefetch_inflight;
            if (s.ok() && sp->frames.size() < sp->capacity &&
                sp->frames.count(id) == 0 && sp->writeback.count(id) == 0) {
              f->page.set_page_id(id);
              f->page.set_dirty(false);
              if (wal_ != nullptr) {
                // Same rationale as the demand-miss path: loaded bytes
                // are a logged state, hence a valid diff base.
                f->page.CreateWalShadow(f->page.data());
              }
              Frame* fp = f.get();
              sp->frames.emplace(id, std::move(f));
              sp->lru.push_front(id);
              fp->lru_it = sp->lru.begin();
              fp->in_lru = true;
              ++sp->stats.prefetched;
            } else {
              // Read failed, the page landed some other way, or the
              // room promised at submit shrank (Resize): advisory read,
              // so just drop it.
              ++sp->stats.prefetch_dropped;
            }
          }
          sp->miss_cv.notify_all();
        });
  }
}

void BufferPool::UnpinPage(PageId id, bool dirty) {
  // A dirty unpin outside any WalOpScope (single-threaded build and
  // maintenance paths) gets a pool-created one-page scope so the
  // log-before-flush invariant holds for every mutation. Constructed
  // before the shard latch (gate → shard order) and committed by its
  // destructor after the latch drops.
  WalOpScope auto_scope(
      dirty && wal_ != nullptr && WalOpScope::Current() == nullptr ? wal_
                                                                   : nullptr);
  if (auto_scope.active()) auto_scope.MarkAuto();
  Shard& shard = ShardFor(id);
  std::unique_lock lock(shard.mu);
  auto it = shard.frames.find(id);
  BURTREE_CHECK(it != shard.frames.end());
  Frame* f = it->second.get();
  BURTREE_CHECK(f->page.pin_count() > 0);
  if (dirty) {
    f->page.set_dirty(true);
    if (wal_ != nullptr) {
      WalOpScope* scope = WalOpScope::Current();
      if (scope != nullptr && scope->active()) {
        scope->CapturePage(this, &f->page);
      }
    }
  }
  f->page.Unpin();
  if (f->page.pin_count() == 0) {
    BURTREE_DCHECK(!f->in_lru);
    shard.lru.push_front(id);
    f->lru_it = shard.lru.begin();
    f->in_lru = true;
    if (shard.delete_waiters > 0) shard.pin_cv.notify_all();
    EvictToCapacity(shard, lock);
  }
}

Status BufferPool::FlushPage(PageId id) {
  Shard& shard = ShardFor(id);
  std::unique_lock lock(shard.mu);
  for (;;) {
    auto it = shard.frames.find(id);
    if (it == shard.frames.end()) return Status::OK();
    Frame& f = *it->second;
    if (wal_ == nullptr || !f.page.is_dirty()) {
      return FlushFrameLocked(shard, f);
    }
    if (f.page.wal_pending() > 0) {
      // The caller sits inside an open op scope for this page — writing
      // it back now would flush bytes whose record is not even formed.
      return Status::InvalidArgument(
          "FlushPage of a page captured by an open WAL op scope");
    }
    const uint64_t lsn = f.page.wal_lsn();
    if (lsn <= wal_->durable_lsn()) return FlushFrameLocked(shard, f);
    // Log-before-flush: wait out the commit latch-free, then re-check —
    // the frame can be re-dirtied (or evicted) while we slept.
    lock.unlock();
    BURTREE_RETURN_IF_ERROR(wal_->WaitDurable(lsn));
    lock.lock();
  }
}

Status BufferPool::FlushAll() {
  // Log-before-flush: make everything appended so far durable up front
  // (latch-free), so under quiescence no frame is skipped below. Frames
  // dirtied by ops still running — LSN past the snapshot, or captured by
  // an open scope (wal_pending) — are skipped; they reach disk on a
  // later flush or eviction. Must not be called from inside a scope.
  uint64_t durable = 0;
  if (wal_ != nullptr) {
    BURTREE_RETURN_IF_ERROR(wal_->WaitDurable(wal_->appended_lsn()));
    durable = wal_->durable_lsn();
  }
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    std::unique_lock lock(shard.mu);
    // Let in-flight eviction write-backs land first so the I/O counters
    // read after FlushAll() cover them.
    shard.writeback_cv.wait(lock, [&] { return shard.writeback.empty(); });
    std::vector<PageWriteRequest> batch;
    std::vector<Frame*> dirty;
    for (auto& [id, f] : shard.frames) {
      if (!f->page.is_dirty()) continue;
      if (wal_ != nullptr &&
          (f->page.wal_pending() > 0 || f->page.wal_lsn() > durable)) {
        continue;
      }
      batch.push_back(PageWriteRequest{id, f->page.data()});
      dirty.push_back(f.get());
    }
    BURTREE_RETURN_IF_ERROR(file_->FlushDirtyBatch(batch));
    for (Frame* f : dirty) {
      f->page.set_dirty(false);
      NoteWalStoreWrite(f->page);
    }
    shard.stats.flushes += dirty.size();
  }
  return Status::OK();
}

Status BufferPool::DeletePage(PageId id) {
  Shard& shard = ShardFor(id);
  std::unique_lock lock(shard.mu);
  // Freeing the disk page while its eviction write-back (or a miss read)
  // is in flight would make that latch-free I/O fail: wait for it to
  // land. A pinned frame is waited out too: the path that pins a page
  // without holding its latch — an optimistic reader's snapshot copy —
  // holds the pin only transiently and blocks on nothing a structural
  // deleter can hold, so the wait always drains. The deadline keeps a
  // genuinely leaked guard (a caller deleting a page it still has
  // pinned) a loud error instead of a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    WaitForPageIo(shard, lock, id);
    auto it = shard.frames.find(id);
    if (it == shard.frames.end()) break;
    Frame* f = it->second.get();
    if (f->page.pin_count() == 0) {
      if (f->in_lru) shard.lru.erase(f->lru_it);
      shard.frames.erase(it);  // dirty content intentionally discarded
      break;
    }
    ++shard.delete_waiters;
    const bool drained = shard.pin_cv.wait_until(lock, deadline, [&] {
      auto it2 = shard.frames.find(id);
      return it2 == shard.frames.end() ||
             it2->second->page.pin_count() == 0;
    });
    --shard.delete_waiters;
    if (!drained) {
      return Status::InvalidArgument("DeletePage of pinned page");
    }
    // Re-loop: while this thread slept the drained frame may have been
    // evicted into a write-back (unpin pushes it onto the LRU), so the
    // in-flight tables must be re-checked before touching the frame map.
  }
  if (wal_ != nullptr) {
    // Defer the store-level Free until the freeing record is durable:
    // Allocate() zeroes reused slots on disk, which would destroy bytes
    // a replay of the pre-crash log still needs. Inside a scope the free
    // rides the scope's record LSN; outside one, the current append
    // horizon is a safe (conservative) release point.
    WalOpScope* scope = WalOpScope::Current();
    if (scope != nullptr && scope->active()) {
      scope->DeferFree(id);
    } else {
      wal_->DeferFree(id, wal_->appended_lsn());
    }
    return Status::OK();
  }
  return file_->Free(id);
}

void BufferPool::Resize(size_t capacity) {
  // Serialize whole resizes: two interleaved Resize() calls could
  // otherwise each re-budget a different subset of shards and leave the
  // pool permanently over or under its configured capacity.
  std::unique_lock resize_lock(resize_mu_);
  capacity_.store(capacity, std::memory_order_relaxed);
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::unique_lock lock(shard.mu);
    shard.capacity = shard_capacity(i);
    EvictToCapacity(shard, lock);
  }
  if (wal_ != nullptr && resident_frames() > capacity) {
    // Eviction skipped undurable victims. An explicit shrink should
    // actually land: make the log durable and retry once.
    if (wal_->WaitDurable(wal_->appended_lsn()).ok()) {
      for (auto& sp : shards_) {
        std::unique_lock lock(sp->mu);
        EvictToCapacity(*sp, lock);
      }
    }
  }
}

size_t BufferPool::resident_frames() const {
  size_t n = 0;
  for (const auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    n += sp->frames.size();
  }
  return n;
}

BufferStats BufferPool::stats() const {
  BufferStats total;
  for (const auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    total += sp->stats;
  }
  return total;
}

BufferPoolStats BufferPool::pool_stats() const {
  BufferPoolStats ps;
  ps.shards.reserve(shards_.size());
  for (const auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    ps.shards.push_back(sp->stats);
  }
  return ps;
}

void BufferPool::ResetStats() {
  for (auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    sp->stats = BufferStats{};
  }
}

void BufferPool::EvictToCapacity(Shard& shard,
                                 std::unique_lock<std::mutex>& lock) {
  if (shard.frames.size() <= shard.capacity) return;
  // Detach LRU victims under the latch (clean ones die right here with
  // zero I/O); dirty ones park in the in-flight table so the group write
  // can run after the latch drops.
  //
  // Log-before-flush: a dirty victim inside an open op scope
  // (wal_pending) or with an LSN past the durable horizon is *skipped* —
  // rotated to the LRU front — never waited for, so eviction inside an
  // op scope cannot deadlock against the committer or a checkpoint. The
  // pass is bounded by the initial LRU length; if every victim is
  // undurable the shard briefly runs over budget and a later eviction
  // (by then the group commit has landed) reclaims it.
  const uint64_t durable = wal_ != nullptr ? wal_->durable_lsn() : 0;
  std::vector<std::unique_ptr<Frame>> clean_victims;
  std::vector<PageWriteRequest> batch;
  std::vector<PageId> dirty_ids;
  size_t examined = 0;
  const size_t max_examine = shard.lru.size();
  while (shard.frames.size() > shard.capacity && !shard.lru.empty() &&
         examined < max_examine) {
    ++examined;
    const PageId victim = shard.lru.back();
    shard.lru.pop_back();
    auto it = shard.frames.find(victim);
    BURTREE_CHECK(it != shard.frames.end());
    Frame* f = it->second.get();
    if (wal_ != nullptr && f->page.is_dirty() &&
        (f->page.wal_pending() > 0 || f->page.wal_lsn() > durable)) {
      shard.lru.push_front(victim);
      f->lru_it = shard.lru.begin();
      continue;
    }
    f->in_lru = false;
    if (f->page.is_dirty()) {
      // The frame dies once the write-back lands, so fold its recovery
      // floor into the unsynced accumulator now (kept on the page too:
      // the error path below re-adopts the frame still dirty).
      const uint64_t rec = f->page.wal_rec_lsn();
      if (wal_ != nullptr && rec != 0) {
        uint64_t cur =
            wal_unsynced_rec_floor_.load(std::memory_order_relaxed);
        while (rec < cur && !wal_unsynced_rec_floor_.compare_exchange_weak(
                                cur, rec, std::memory_order_relaxed)) {
        }
      }
      batch.push_back(PageWriteRequest{victim, f->page.data()});
      dirty_ids.push_back(victim);
      shard.writeback.emplace(victim, std::move(it->second));
      ++shard.stats.flushes;
    } else {
      clean_victims.push_back(std::move(it->second));
    }
    shard.frames.erase(it);
    ++shard.stats.evictions;
  }
  // If all remaining frames are pinned the shard grows past its budget
  // temporarily; correctness over strict accounting.
  if (batch.empty()) return;

  // Write back latch-free so hits on this shard proceed during the I/O.
  // The batch's data pointers stay valid: the in-flight frames are owned
  // by shard.writeback and nobody touches them until the cv fires.
  lock.unlock();
  if (file_->supports_async_io()) {
    // Submit-and-return: the engine's completion thread re-latches and
    // settles the write-back table, so this caller resumes immediately
    // while the group write overlaps its simulated seek in the queue.
    // Submitting latch-free matters even here — a validation failure
    // invokes the callback inline on this thread, which would
    // self-deadlock on a held latch.
    Shard* sp = &shard;
    file_->SubmitFlushDirtyBatch(
        std::move(batch),
        [this, sp, ids = std::move(dirty_ids)](Status s) {
          std::unique_lock<std::mutex> l2(sp->mu);
          FinishWritebackLocked(*sp, ids, s);
        });
    lock.lock();
    return;
  }
  const Status flush_status = file_->FlushDirtyBatch(batch);
  lock.lock();
  FinishWritebackLocked(shard, dirty_ids, flush_status);
}

void BufferPool::FinishWritebackLocked(Shard& shard,
                                       const std::vector<PageId>& dirty_ids,
                                       const Status& flush_status) {
  if (flush_status.ok()) {
    for (PageId id : dirty_ids) shard.writeback.erase(id);
  } else {
    // A resident frame always maps to a live disk page (DeletePage drops
    // the frame before freeing and waits out in-flight write-backs), so
    // only an environmental error on the file backend (ENOSPC, EIO) can
    // land here. Put the victims back as dirty resident frames — the
    // shard runs over budget until a later eviction or FlushAll (which
    // does surface the Status) retries the write.
    std::fprintf(stderr, "burtree: eviction write-back failed, re-adopting "
                         "%zu dirty frame(s): %s\n",
                 dirty_ids.size(), flush_status.ToString().c_str());
    shard.stats.flushes -= dirty_ids.size();    // they did not flush
    shard.stats.evictions -= dirty_ids.size();  // nor leave the pool
    for (PageId id : dirty_ids) {
      auto node = shard.writeback.extract(id);
      Frame* f = node.mapped().get();
      shard.lru.push_back(id);  // back of the LRU: first victims next time
      f->lru_it = std::prev(shard.lru.end());
      f->in_lru = true;
      shard.frames.insert(std::move(node));
    }
  }
  shard.writeback_cv.notify_all();
}

void BufferPool::StampWalLsn(Page* page, uint64_t lsn) {
  Shard& shard = ShardFor(page->page_id());
  std::unique_lock lock(shard.mu);
  if (lsn > page->wal_lsn()) page->set_wal_lsn(lsn);
  if (page->wal_pending() > 0) page->add_wal_pending(-1);
}

Status BufferPool::FlushFrameLocked(Shard& shard, Frame& f) {
  if (!f.page.is_dirty()) return Status::OK();
  BURTREE_RETURN_IF_ERROR(file_->Write(f.page.page_id(), f.page.data()));
  f.page.set_dirty(false);
  NoteWalStoreWrite(f.page);
  ++shard.stats.flushes;
  return Status::OK();
}

void BufferPool::NoteWalStoreWrite(Page& page) {
  if (wal_ == nullptr) return;
  const uint64_t rec = page.wal_rec_lsn();
  if (rec == 0) return;
  page.set_wal_rec_lsn(0);
  uint64_t cur = wal_unsynced_rec_floor_.load(std::memory_order_relaxed);
  while (rec < cur && !wal_unsynced_rec_floor_.compare_exchange_weak(
                          cur, rec, std::memory_order_relaxed)) {
  }
}

void BufferPool::WalCheckpointBeginSync() {
  // Reset first, then drain: an accumulator entry is discarded only if
  // its write-back was already in flight here, and the drain below makes
  // sure such a pwrite completes before the caller's store sync (an
  // in-flight pwrite can miss a concurrent fsync). A detach racing this
  // call lands in the fresh accumulator and stays conservative.
  wal_unsynced_rec_floor_.store(UINT64_MAX, std::memory_order_relaxed);
  for (auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    sp->writeback_cv.wait(lock, [&] { return sp->writeback.empty(); });
  }
}

uint64_t BufferPool::WalDirtyRecFloor() const {
  uint64_t floor = UINT64_MAX;
  for (const auto& sp : shards_) {
    std::unique_lock lock(sp->mu);
    for (const auto& [id, f] : sp->frames) {
      const uint64_t rec = f->page.wal_rec_lsn();
      if (f->page.is_dirty() && rec != 0) floor = std::min(floor, rec);
    }
    // A frame dirtied before the checkpoint's FlushAll can be mid
    // write-back right now; its bytes are unsynced like any other
    // post-BeginSync store write.
    for (const auto& [id, f] : sp->writeback) {
      const uint64_t rec = f->page.wal_rec_lsn();
      if (rec != 0) floor = std::min(floor, rec);
    }
  }
  return std::min(
      floor, wal_unsynced_rec_floor_.load(std::memory_order_relaxed));
}

}  // namespace burtree

#include "cc/lock_manager.h"

#include <algorithm>
#include <chrono>

#include "common/bits.h"

namespace burtree {

bool LockCompatible(LockMode held, LockMode requested) {
  // rows: held, cols: requested — IS, IX, S, X
  static constexpr bool kMatrix[4][4] = {
      /*IS*/ {true, true, true, false},
      /*IX*/ {true, true, false, false},
      /*S */ {true, false, true, false},
      /*X */ {false, false, false, false},
  };
  return kMatrix[static_cast<int>(held)][static_cast<int>(requested)];
}

const char* LockModeName(LockMode m) {
  switch (m) {
    case LockMode::kIS: return "IS";
    case LockMode::kIX: return "IX";
    case LockMode::kS: return "S";
    case LockMode::kX: return "X";
  }
  return "?";
}

LockManager::LockManager(const LockManagerOptions& options)
    : options_(options) {
  const size_t n = RoundUpPow2(std::max<size_t>(1, options_.buckets));
  buckets_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    buckets_.push_back(std::make_unique<Bucket>());
  }
  bucket_mask_ = n - 1;
  txn_shards_.reserve(kTxnShards);
  for (size_t i = 0; i < kTxnShards; ++i) {
    txn_shards_.push_back(std::make_unique<TxnShard>());
  }
}

size_t LockManager::BucketOf(uint64_t granule) const {
  return static_cast<size_t>(Mix64(granule)) & bucket_mask_;
}

LockManager::TxnShard& LockManager::ShardOf(uint64_t txn) const {
  return *txn_shards_[static_cast<size_t>(Mix64(txn)) & (kTxnShards - 1)];
}

bool LockManager::ModeCovers(LockMode held, LockMode requested) {
  if (held == requested) return true;
  if (held == LockMode::kX) return true;
  if (held == LockMode::kS &&
      (requested == LockMode::kIS)) {
    return true;
  }
  if (held == LockMode::kIX && requested == LockMode::kIS) return true;
  return false;
}

bool LockManager::CanGrantLocked(const Granule& g, uint64_t txn,
                                 LockMode mode) const {
  for (const Holder& h : g.holders) {
    if (h.txn == txn) continue;  // self-compatibility is handled by caller
    if (!LockCompatible(h.mode, mode)) return false;
  }
  return true;
}

Status LockManager::Acquire(uint64_t txn, uint64_t granule, LockMode mode) {
  Bucket& b = *buckets_[BucketOf(granule)];
  bool granted = false;
  bool upgraded = false;
  {
    std::unique_lock lock(b.mu);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.timeout_ms);
    bool waited = false;
    while (true) {
      // The granule entry must be re-fetched after every wait: releases
      // may erase it (and map growth may rehash) while the mutex is
      // dropped.
      Granule& g = b.granules[granule];

      // Already holding an equal-or-stronger mode?
      for (const Holder& h : g.holders) {
        if (h.txn == txn && ModeCovers(h.mode, mode)) return Status::OK();
      }

      if (CanGrantLocked(g, txn, mode)) {
        if (waited) ++b.stats.waits;
        // Upgrade in place when the txn already holds a weaker mode.
        for (Holder& h : g.holders) {
          if (h.txn == txn) {
            h.mode = mode;
            upgraded = true;
            break;
          }
        }
        if (!upgraded) g.holders.push_back(Holder{txn, mode});
        ++b.stats.acquisitions;
        granted = true;
        break;
      }

      waited = true;
      if (b.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
        ++b.stats.aborts;
        return Status::Aborted("lock wait timeout");
      }
    }
  }
  // Record the hold outside the bucket mutex (the two layers never
  // nest). A txn's entry is only mutated from its own thread, so the
  // grant above cannot race its own bookkeeping.
  if (granted && !upgraded) {
    TxnShard& shard = ShardOf(txn);
    std::lock_guard lock(shard.mu);
    shard.held[txn].push_back(granule);
  }
  return Status::OK();
}

void LockManager::ReleaseInBucket(uint64_t txn, uint64_t granule) {
  Bucket& b = *buckets_[BucketOf(granule)];
  std::lock_guard lock(b.mu);
  auto it = b.granules.find(granule);
  if (it == b.granules.end()) return;
  auto& holders = it->second.holders;
  holders.erase(std::remove_if(holders.begin(), holders.end(),
                               [&](const Holder& h) { return h.txn == txn; }),
                holders.end());
  if (holders.empty()) b.granules.erase(it);
  b.cv.notify_all();
}

void LockManager::Release(uint64_t txn, uint64_t granule) {
  ReleaseInBucket(txn, granule);
  TxnShard& shard = ShardOf(txn);
  std::lock_guard lock(shard.mu);
  auto ht = shard.held.find(txn);
  if (ht != shard.held.end()) {
    auto& v = ht->second;
    v.erase(std::remove(v.begin(), v.end(), granule), v.end());
    if (v.empty()) shard.held.erase(ht);
  }
}

void LockManager::ReleaseAll(uint64_t txn) {
  std::vector<uint64_t> granules;
  {
    TxnShard& shard = ShardOf(txn);
    std::lock_guard lock(shard.mu);
    auto ht = shard.held.find(txn);
    if (ht == shard.held.end()) return;
    granules = std::move(ht->second);
    shard.held.erase(ht);
  }
  for (uint64_t granule : granules) ReleaseInBucket(txn, granule);
}

size_t LockManager::HeldCount(uint64_t txn) const {
  TxnShard& shard = ShardOf(txn);
  std::lock_guard lock(shard.mu);
  auto it = shard.held.find(txn);
  return it == shard.held.end() ? 0 : it->second.size();
}

LockStats LockManager::stats() const {
  LockStats total;
  for (const auto& b : buckets_) {
    std::lock_guard lock(b->mu);
    total.acquisitions += b->stats.acquisitions;
    total.waits += b->stats.waits;
    total.aborts += b->stats.aborts;
  }
  return total;
}

}  // namespace burtree

#include "cc/latch_table.h"

#include <algorithm>

#include "common/bits.h"
#include "common/logging.h"

namespace burtree {

LatchTable::LatchTable(size_t stripes) {
  const size_t n = RoundUpPow2(std::max<size_t>(1, stripes));
  stripes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  mask_ = n - 1;
}

size_t LatchTable::StripeOf(PageId id) const {
  // Mix64: page ids are sequential, so adjacent tree nodes must not
  // land on adjacent stripes systematically.
  return static_cast<size_t>(Mix64(id) & mask_);
}

void LatchTable::WaitForStripe(PageId id) {
  DrainGate& mu = stripe(StripeOf(id));
  mu.lock();
  mu.unlock();
}

uint64_t LatchTable::ReadVersion(PageId page) const {
  return stripe_version(StripeOf(page)).load(std::memory_order_acquire);
}

bool LatchTable::ValidateVersion(PageId page, uint64_t version) const {
  return ReadVersion(page) == version;
}

bool LatchTable::TryBeginSnapshot(PageId page, uint64_t* version) {
  const size_t s = StripeOf(page);
  if (!stripe(s).try_lock_shared()) return false;
  // S-held excludes X, so the stamp is even and stable for the duration
  // of the snapshot hold.
  *version = stripe_version(s).load(std::memory_order_acquire);
  return true;
}

void LatchTable::EndSnapshot(PageId page) {
  stripe(StripeOf(page)).unlock_shared();
}

void LatchTable::AddTryCounts(uint64_t tries, uint64_t failures) {
  if (tries == 0) return;
  try_acquires_.fetch_add(tries, std::memory_order_relaxed);
  if (failures != 0) {
    try_failures_.fetch_add(failures, std::memory_order_relaxed);
  }
}

LatchTableStats LatchTable::stats() const {
  LatchTableStats s;
  s.exclusive_acquires = exclusive_acquires_.load(std::memory_order_relaxed);
  s.shared_acquires = shared_acquires_.load(std::memory_order_relaxed);
  s.try_acquires = try_acquires_.load(std::memory_order_relaxed);
  s.try_failures = try_failures_.load(std::memory_order_relaxed);
  return s;
}

PageLatchSet::Held* PageLatchSet::Find(size_t stripe) {
  for (Held& h : held_) {
    if (h.stripe == stripe) return &h;
  }
  return nullptr;
}

const PageLatchSet::Held* PageLatchSet::Find(size_t stripe) const {
  for (const Held& h : held_) {
    if (h.stripe == stripe) return &h;
  }
  return nullptr;
}

void PageLatchSet::AcquireExclusive(const std::vector<PageId>& pages) {
  BURTREE_CHECK(held_.empty());  // must be the planned, up-front set
  std::vector<size_t> stripes;
  stripes.reserve(pages.size());
  for (PageId p : pages) stripes.push_back(table_->StripeOf(p));
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  for (size_t s : stripes) {
    table_->stripe(s).lock();
    table_->stripe_version(s).fetch_add(1, std::memory_order_release);
    table_->exclusive_acquires_.fetch_add(1, std::memory_order_relaxed);
    held_.push_back(Held{s, /*exclusive=*/true, 1});
  }
}

void PageLatchSet::AcquireExclusive(PageId page) {
  // Blocking single-page acquisition is only safe while holding nothing:
  // a writer that waits while holding could form a wait cycle with the
  // sorted up-front acquisitions of other writers.
  BURTREE_CHECK(held_.empty());
  const size_t s = table_->StripeOf(page);
  table_->stripe(s).lock();
  table_->stripe_version(s).fetch_add(1, std::memory_order_release);
  table_->exclusive_acquires_.fetch_add(1, std::memory_order_relaxed);
  held_.push_back(Held{s, /*exclusive=*/true, 1});
}

bool PageLatchSet::Covers(PageId page) const {
  return Find(table_->StripeOf(page)) != nullptr;
}

bool PageLatchSet::TryExtendExclusive(PageId page) {
  const size_t s = table_->StripeOf(page);
  table_->try_acquires_.fetch_add(1, std::memory_order_relaxed);
  if (Held* h = Find(s)) {
    BURTREE_CHECK(h->exclusive);  // no mode mixing within one set
    ++h->refs;
    return true;
  }
  if (!table_->stripe(s).try_lock()) {
    table_->try_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  table_->stripe_version(s).fetch_add(1, std::memory_order_release);
  held_.push_back(Held{s, /*exclusive=*/true, 1});
  return true;
}

void PageLatchSet::ReleaseExclusive(PageId page) {
  const size_t s = table_->StripeOf(page);
  Held* h = Find(s);
  BURTREE_CHECK(h != nullptr && h->exclusive && h->refs > 0);
  if (--h->refs == 0) {
    table_->stripe_version(s).fetch_add(1, std::memory_order_release);
    table_->stripe(s).unlock();
    held_.erase(held_.begin() + (h - held_.data()));
  }
}

void PageLatchSet::AcquireShared(PageId page) {
  // Blocking shared acquisition is only safe while holding nothing: a
  // reader that waits while holding would re-introduce wait cycles.
  BURTREE_CHECK(held_.empty());
  const size_t s = table_->StripeOf(page);
  table_->stripe(s).lock_shared();
  table_->shared_acquires_.fetch_add(1, std::memory_order_relaxed);
  held_.push_back(Held{s, /*exclusive=*/false, 1});
}

bool PageLatchSet::TryAcquireShared(PageId page) {
  const size_t s = table_->StripeOf(page);
  table_->try_acquires_.fetch_add(1, std::memory_order_relaxed);
  if (Held* h = Find(s)) {
    BURTREE_CHECK(!h->exclusive);
    ++h->refs;
    return true;
  }
  if (!table_->stripe(s).try_lock_shared()) {
    table_->try_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  held_.push_back(Held{s, /*exclusive=*/false, 1});
  return true;
}

void PageLatchSet::ReleaseShared(PageId page) {
  const size_t s = table_->StripeOf(page);
  Held* h = Find(s);
  BURTREE_CHECK(h != nullptr && !h->exclusive && h->refs > 0);
  if (--h->refs == 0) {
    table_->stripe(s).unlock_shared();
    held_.erase(held_.begin() + (h - held_.data()));
  }
}

void PageLatchSet::ReleaseAll() {
  for (const Held& h : held_) {
    if (h.exclusive) {
      table_->stripe_version(h.stripe).fetch_add(1, std::memory_order_release);
      table_->stripe(h.stripe).unlock();
    } else {
      table_->stripe(h.stripe).unlock_shared();
    }
  }
  held_.clear();
}

}  // namespace burtree

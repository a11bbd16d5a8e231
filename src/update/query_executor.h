// Window-query execution, optionally assisted by the summary structure:
// internal levels >= 2 are filtered in the main-memory direct access
// table, so only the overlapping parents-of-leaves and leaves are read
// from disk (§3.2: "equipped with knowledge of which index nodes above
// the leaf level to read from disk, we carry on with the query as
// usual").
#pragma once

#include "update/index_system.h"

namespace burtree {

class QueryExecutor {
 public:
  /// `use_summary` requires the system to have a summary attached.
  QueryExecutor(IndexSystem* system, bool use_summary);

  /// Runs the window query; returns the number of matches. `cb` may be
  /// null when only the count matters. Takes no latches, so concurrent
  /// callers must exclude writers (ConcurrentIndex holds the global tree
  /// latch shared, or the compound-SMO gate exclusively).
  StatusOr<size_t> Query(const Rect& window,
                         const RTree::QueryCallback& cb = nullptr);

  /// One attempt at an optimistic version-validated query (coupled latch
  /// mode): latch-free snapshot descent with validate-after-read (see
  /// RTree::QueryOptimistic). With `pruned` (and a summary attached), the
  /// summary plans the overlapping parents-of-leaves and stamps the
  /// plan's structural epoch; each planned subtree is scanned
  /// optimistically and the epoch is re-validated before anything is
  /// emitted — internal nodes may split under page latches in this mode,
  /// so a stale plan (epoch moved) returns Status::LatchContention.
  /// `budget` bounds snapshot failures + validation restarts across the
  /// whole call; exhaustion returns Status::LatchContention too. The
  /// caller falls back — first to an unpruned optimistic pass, then to
  /// the S-coupled RTree::QueryCoupled.
  StatusOr<size_t> QueryOptimistic(const Rect& window,
                                   VersionLatchHooks* hooks,
                                   const RTree::QueryCallback& cb = nullptr,
                                   bool pruned = false, int budget = 64);

  bool use_summary() const { return use_summary_; }

 private:
  IndexSystem* system_;
  bool use_summary_;
};

}  // namespace burtree

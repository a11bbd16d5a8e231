// Configuration knobs for the tree, the update strategies, and experiments.
// Defaults follow the bold values of the paper's Table 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace burtree {

/// Which PageStore implementation backs a page file (see docs/STORAGE.md
/// for the contract and how to choose).
enum class StorageBackend {
  kMem,   ///< In-memory simulated disk (PageFile) — the default; counted
          ///< I/O with optional synthetic latency, nothing persisted.
  kFile,  ///< Real file via POSIX pread/pwrite (FilePageStore), with
          ///< preadv/pwritev batching and optional fsync/O_DIRECT.
};

/// Which asynchronous I/O engine the file backend (and the WAL
/// committer) submits through (storage/async_io.h for the contract and
/// docs/STORAGE.md for the engine-choice guide).
enum class IoEngineKind {
  kSync,   ///< No engine: the classic blocking pread/pwrite paths.
  kPool,   ///< Submission/completion thread pool (portable fallback).
  kUring,  ///< Raw-syscall Linux io_uring; falls back to kPool when
           ///< io_uring_setup is unavailable at runtime.
};

/// Write-ahead-log policy (storage/wal). Durability is per IndexSystem:
/// when enabled, the system opens one redo-only log next to its tree
/// page file, every mutation's page images are logged before any dirty
/// frame reaches the store, and a committer thread group-commits the
/// appends (see docs/STORAGE.md §WAL). Replaces fsync_on_flush as the
/// durable configuration — one batched fdatasync per commit window
/// instead of one per flush.
struct WalOptions {
  bool enabled = false;

  /// Explicit log file path. Empty (the default): a unique scratch log
  /// in `dir`, removed on clean close. Non-empty: the log persists for
  /// recovery (WalManager::Replay).
  std::string path;

  /// Directory for scratch logs when `path` is empty; empty = the
  /// storage file_dir, else the system temp dir.
  std::string dir;

  /// Group-commit window in microseconds: how long the committer batches
  /// appends before one pwrite + fdatasync.
  uint64_t group_commit_us = 200;

  /// Auto-checkpoint (flush + sync all pages, truncate the log) once the
  /// log file grows past this many bytes; 0 = manual checkpoints only.
  uint64_t checkpoint_log_bytes = 64ull << 20;
};

/// Storage-backend selection and file-backend policy knobs. Threads from
/// the benches' `--backend mem|file[:dir]` flag through ExperimentConfig
/// and IndexSystemOptions/HashIndexOptions down to MakePageStore.
struct StorageOptions {
  StorageBackend backend = StorageBackend::kMem;

  /// Directory the file backend creates its (unlinked) backing files in;
  /// empty = the system temp dir ($TMPDIR or /tmp). Put it on tmpfs
  /// (/dev/shm) for a RAM-speed real-syscall run, or on a disk path to
  /// measure a real device.
  std::string file_dir;

  /// Explicit backing-file path for the file backend (tree store only —
  /// the hash index always uses a scratch file). Non-empty: the file is
  /// created at this path, NOT unlinked, and survives the process — the
  /// crash-recovery path reopens it with truncate=false and replays the
  /// WAL into it.
  std::string file_path;

  /// File backend: fdatasync after every write-back call (Write and
  /// FlushDirtyBatch), making each flush a durability point. Off by
  /// default — the experiments measure access counts, not durability.
  /// With wal.enabled the log already orders durability; leave this off
  /// and let group commit amortize the fsyncs.
  bool fsync_on_flush = false;

  /// File backend: try O_DIRECT (falls back to buffered I/O where the
  /// filesystem or page size does not support it, e.g. tmpfs).
  bool direct_io = false;

  /// Asynchronous I/O engine for the file backend's batched reads and
  /// dirty write-backs and for the WAL's group-commit appends
  /// (`--io-engine sync|pool|uring`). kSync keeps every path blocking;
  /// the mem backend ignores this entirely.
  IoEngineKind io_engine = IoEngineKind::kSync;

  /// Target number of concurrently in-flight async units (`--io-depth`):
  /// the pool engine's worker count, the uring engine's in-flight SQE
  /// cap. Overlap only pays when this exceeds the thread count —
  /// prefetch depth ≫ threads is the whole point (docs/STORAGE.md).
  size_t io_queue_depth = 16;

  WalOptions wal;
};

/// Node-split algorithm for the R-tree.
enum class SplitAlgorithm {
  kQuadratic,  ///< Guttman's quadratic split (default; what the paper used).
  kLinear,     ///< Guttman's linear split.
  kRStar,      ///< R*-style axis/index choice (extension, for ablations).
};

/// Options fixed at tree construction time.
struct TreeOptions {
  /// On-disk page size in bytes. The paper uses 1024 for all experiments.
  size_t page_size = 1024;

  /// Minimum fill factor m as a fraction of capacity M (Guttman suggests
  /// m <= M/2; 0.4 is the common choice).
  double min_fill_fraction = 0.4;

  SplitAlgorithm split = SplitAlgorithm::kQuadratic;

  /// Store a parent PageId in every node header. Required by LBU
  /// (Algorithm 1); costs one entry slot of fanout and split-time
  /// maintenance, exactly the drawback the paper attributes to LBU.
  bool parent_pointers = false;

  /// Re-insert orphaned entries on underflow (CondenseTree). The paper's
  /// baseline is "the original R-tree with re-insertions".
  bool reinsert_on_underflow = true;

  /// R*-style forced re-insertion on node overflow: instead of splitting
  /// immediately, evict the `reinsert_fraction` of entries farthest from
  /// the node's center (once per level per operation) and re-insert them
  /// from the root. Improves query quality at extra update cost — the
  /// alternative reading of the paper's "R-tree with re-insertions"
  /// baseline; off by default, exercised by the ablation bench.
  bool forced_reinsert = false;
  double reinsert_fraction = 0.3;
};

/// Sizing and sharding of a buffer pool (extension beyond the paper; the
/// paper's single-threaded experiments are insensitive to `shards`, but
/// the multi-threaded DGL workload contends on the pool latch).
struct BufferPoolOptions {
  /// Total resident frames across all shards; 0 = pass-through (the
  /// paper's "no buffer" setting).
  size_t capacity_pages = 0;

  /// Number of independently latched LRU shards; pages map to shards by
  /// page id. 1 reproduces the classic single-latch LRU exactly.
  size_t shards = 1;

  /// Which PageStore implementation the pool sits on.
  StorageOptions storage;
};

/// Tuning parameters of the Generalized Bottom-Up strategy (§3.2.1).
struct GbuOptions {
  /// Epsilon: cap on directional MBR enlargement (unit-square units).
  /// Paper recommendation: 0.003.
  double epsilon = 0.003;

  /// Distance threshold (delta): objects that moved further than this are
  /// "fast" — try sibling shift before MBR extension. Paper choice: 0.03.
  double distance_threshold = 0.03;

  /// Level threshold (lambda): maximum number of levels to ascend above
  /// the leaf. kLevelThresholdMax means "up to the root" (paper default:
  /// height - 1, i.e., the maximum possible).
  uint32_t level_threshold = kLevelThresholdMax;
  static constexpr uint32_t kLevelThresholdMax = 0xFFFFFFFFu;

  /// Piggyback equally-mobile entries when shifting to a sibling (§3.2.1
  /// optimization 4). Disable only for ablation studies.
  bool piggyback = true;

  /// Use the summary structure's direct access table to prune internal
  /// levels during window queries (§3.2). Disable only for ablations.
  bool summary_queries = true;

  /// Use directional (Algorithm 4) extension rather than uniform
  /// all-direction extension. Disable only for ablations.
  bool directional_extension = true;
};

/// Tuning parameters of the Localized Bottom-Up strategy (Algorithm 1).
struct LbuOptions {
  /// Uniform enlargement amount applied to all four sides.
  double epsilon = 0.003;
};

/// Batched update ingestion (src/ingest): clients submit updates into
/// per-shard MPSC queues; a fixed worker pool drains each queue into
/// batches and executes them through ConcurrentIndex::UpdateBatch /
/// InsertBatch — one DGL acquisition per batch and one page-latch +
/// WAL round trip per target leaf instead of per op. Threads from a
/// scenario spec's `ingest: workers=N,batch=K` key through
/// ExperimentConfig to the IngestPool that RunScenario builds.
struct IngestOptions {
  /// Worker threads draining the queues; 0 disables the pool entirely
  /// (thread-per-client calls the per-op path directly).
  uint32_t workers = 0;

  /// Maximum ops one worker drains into a single group execution.
  /// Larger batches amortize the fixed DGL/latch/log costs further but
  /// stretch the tail latency of the ops that wait for the group.
  size_t max_batch = 64;
};

}  // namespace burtree

// Workload definitions and the closed-loop client threads that drive them.
// A client's op stream (kinds, picked objects, moves, windows) is a pure
// function of (seed, client id): each op is drawn from the client's own
// Rng before it is issued, whatever the index answers.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cc/concurrent_index.h"
#include "common/random.h"
#include "ingest/ingest_pool.h"
#include "workload/churn.h"
#include "workload/generator.h"
#include "workload/skew.h"

namespace perfbench {

enum OpKind : int { kUpdate, kInsert, kDelete, kQuery, kKnn, kOpKinds };

const char* OpKindName(int kind);

struct WorkloadSpec {
  std::string name;
  /// Op mix in percent; window queries take the remainder.
  double update_pct = 0.0;
  double insert_pct = 0.0;
  double delete_pct = 0.0;
  double knn_pct = 0.0;
  double query_max_dim = 0.01;
  /// Which of a client's initial objects the updates pick.
  burtree::SkewOptions skew;
  /// WAL on, and clients submit updates/inserts through an IngestPool
  /// instead of calling ConcurrentIndex directly.
  bool durable = false;
  /// Client threads. With the ingest workers, busy threads never outnumber
  /// the reference host's 4 vCPUs.
  uint32_t clients = 4;
  /// Tree buffer size as a share of the built tree's pages.
  double buffer_fraction = 0.01;
  /// Warm-up starts with a full-space scan that loads every tree page.
  bool warm_full_scan = false;
  /// Op rate the workload ran at on the reference host; only sizes the
  /// fixed per-client op count from --seconds.
  double nominal_ops_per_s = 0.0;
};

/// Null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

constexpr size_t kKnnK = 10;
/// Updates and inserts a durable-workload client keeps outstanding.
constexpr size_t kGatewayWindow = 8;

/// One completed op: when its client saw it complete, its kind, and its
/// client-observed latency.
struct LatencySample {
  int64_t done_ns = 0;
  uint64_t kind_latency = 0;  ///< (kind << 56) | latency_ns
  int kind() const { return static_cast<int>(kind_latency >> 56); }
  uint64_t latency_ns() const { return kind_latency & ((1ull << 56) - 1); }
};

/// Per-kind accounting of one client. A DGL abort that reaches the client
/// is retried and counted in `retried`, never as a failure.
struct KindTally {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t retried = 0;
  /// Page accesses (PageStore::thread_io) of direct index calls.
  uint64_t io = 0;
  uint64_t io_calls = 0;
  /// Sum of client-observed latency, for per-kind time shares.
  double latency_ns_sum = 0.0;
};

/// Everything a client thread shares with the others.
struct ClientEnv {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  uint32_t clients = 1;
  uint64_t objects = 0;
  /// Current positions of the initial objects; each client moves only
  /// the objects of its own id range, so entries are never shared.
  burtree::WorkloadGenerator* positions = nullptr;
  burtree::ConcurrentIndex* index = nullptr;
  burtree::IngestPool* ingest = nullptr;  ///< durable workloads only
};

/// One closed-loop client: its op stream state plus what it measured.
class Client {
 public:
  /// `samples` is the client's latency buffer, allocated by the caller
  /// before set-up; it is cleared here.
  Client(const ClientEnv& env, uint32_t id,
         std::vector<LatencySample>* samples);
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Issues the next `ops` ops of the stream and waits for every
  /// outstanding submission. Stops early only on a failed op.
  void Run(uint64_t ops);

  /// Forgets what was measured so far (before each timed phase); the
  /// stream state (Rng, churned objects) carries on.
  void ResetMeasurements();

  const std::array<KindTally, kOpKinds>& tally() const { return tally_; }
  const std::vector<LatencySample>& samples() const { return *samples_; }
  const burtree::ChurnTracker& churn() const { return churn_; }
  const burtree::Status& first_error() const { return first_error_; }

 private:
  struct Op {
    int kind = kQuery;
    burtree::ObjectId oid = 0;
    burtree::Point from;
    burtree::Point to;  ///< update target, insert/delete/kNN position
    burtree::Rect window;
  };
  /// A submitted update/insert awaiting acknowledgement.
  struct Pending {
    burtree::UpdateHandle handle;
    Op op;
    uint64_t op_id = 0;
    int64_t submit_start_ns = 0;
    int64_t submit_end_ns = 0;
    int64_t wait_start_ns = 0;  ///< 0 = never blocked on it
    int64_t wait_end_ns = 0;
    bool acked = false;
  };

  Op Draw();
  void RunDirect(const Op& op, uint64_t op_id);
  void Submit(const Op& op, uint64_t op_id);
  /// Records every pending op that is done; with `block`, first waits for
  /// the oldest one. Pops acknowledged ops off the front.
  void Reap(bool block);
  void Acknowledge(Pending& p, int64_t ack_ns);
  void Sample(int kind, int64_t latency_ns, int64_t done_ns);
  void Fail(int kind, const burtree::Status& st);

  const ClientEnv& env_;
  const uint32_t id_;
  const uint64_t lo_;
  const uint64_t hi_;
  burtree::Rng rng_;
  burtree::SkewPicker picker_;
  burtree::ChurnTracker churn_;
  uint64_t next_op_ = 0;
  uint64_t update_picks_ = 0;
  std::vector<LatencySample>* samples_;
  std::array<KindTally, kOpKinds> tally_{};
  std::vector<Pending> window_;  ///< submission order; acked ones popped
  /// Churned objects whose insert is still unacknowledged.
  std::vector<std::pair<burtree::ObjectId, burtree::UpdateHandle>>
      unacked_inserts_;
  burtree::Status first_error_;
};

}  // namespace perfbench

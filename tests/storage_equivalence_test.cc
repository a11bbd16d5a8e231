// Backend interchangeability: the full strategy pipeline (build ->
// updates -> flush) run over the in-memory PageFile and over the real
// FilePageStore must produce the same tree — same query answers, same
// oid->leaf mapping, same I/O counts, and byte-identical page images on
// the final "disk".
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "harness/experiment.h"

namespace burtree {
namespace {

ExperimentConfig SmallConfig(StrategyKind kind, StorageBackend backend) {
  ExperimentConfig cfg;
  cfg.strategy = kind;
  cfg.workload.num_objects = 1200;
  cfg.num_updates = 1500;
  cfg.num_queries = 0;  // queries run through the fixture below instead
  cfg.buffer_fraction = 0.02;
  cfg.buffer_shards = 2;
  cfg.storage.backend = backend;
  cfg.storage.file_dir = ::testing::TempDir();
  return cfg;
}

struct PipelineOutput {
  StrategyFixture fx;
  std::map<ObjectId, std::tuple<double, double, double, double>> contents;
};

// Build + update phases of the experiment pipeline, then a whole-space
// query snapshot of the tree contents, with the fixture kept alive so
// the caller can inspect the stores underneath.
void RunPipeline(const ExperimentConfig& cfg, PipelineOutput* out) {
  WorkloadGenerator workload(cfg.workload);
  out->fx = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &out->fx).ok());
  for (uint64_t i = 0; i < cfg.num_updates; ++i) {
    const auto op = workload.NextUpdate();
    auto r = out->fx.strategy->Update(op.oid, op.from, op.to);
    ASSERT_TRUE(r.status().ok()) << r.status().ToString();
  }
  ASSERT_TRUE(out->fx.system->FlushAll().ok());
  ASSERT_TRUE(out->fx.system->tree().Validate().ok());
  ASSERT_TRUE(out->fx.system->tree()
                  .Query(Rect(0, 0, 1, 1),
                         [&](ObjectId oid, const Rect& r) {
                           out->contents[oid] = {r.min_x, r.min_y, r.max_x,
                                                 r.max_y};
                         })
                  .ok());
}

void ExpectSameDiskImages(PageStore& a, PageStore& b) {
  ASSERT_EQ(a.allocated_slots(), b.allocated_slots());
  ASSERT_EQ(a.live_pages(), b.live_pages());
  std::vector<uint8_t> pa(a.page_size()), pb(b.page_size());
  ASSERT_EQ(pa.size(), pb.size());
  for (PageId id = 0; id < a.allocated_slots(); ++id) {
    const bool la = a.Read(id, pa.data()).ok();
    const bool lb = b.Read(id, pb.data()).ok();
    ASSERT_EQ(la, lb) << "liveness diverges at page " << id;
    if (!la) continue;
    ASSERT_EQ(std::memcmp(pa.data(), pb.data(), pa.size()), 0)
        << "page " << id << " differs between backends";
  }
}

class StorageEquivalenceTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(StorageEquivalenceTest, MemAndFileBackendsProduceTheSameTree) {
  PipelineOutput mem, file;
  ASSERT_NO_FATAL_FAILURE(
      RunPipeline(SmallConfig(GetParam(), StorageBackend::kMem), &mem));
  ASSERT_NO_FATAL_FAILURE(
      RunPipeline(SmallConfig(GetParam(), StorageBackend::kFile), &file));

  // Same logical tree: identical object set and rectangles.
  ASSERT_EQ(mem.contents.size(), file.contents.size());
  EXPECT_EQ(mem.contents, file.contents);
  EXPECT_EQ(mem.fx.system->tree().height(),
            file.fx.system->tree().height());

  // Same physical behavior: every disk access the mem run made, the file
  // run made too (the paper's metric must not depend on the backend).
  EXPECT_EQ(mem.fx.system->file().io_stats().reads(),
            file.fx.system->file().io_stats().reads());
  EXPECT_EQ(mem.fx.system->file().io_stats().writes(),
            file.fx.system->file().io_stats().writes());

  // Same oid -> leaf mapping where a secondary index exists.
  if (mem.fx.system->oid_index() != nullptr) {
    for (const auto& [oid, rect] : mem.contents) {
      (void)rect;
      auto la = mem.fx.system->oid_index()->Lookup(oid);
      auto lb = file.fx.system->oid_index()->Lookup(oid);
      ASSERT_TRUE(la.ok());
      ASSERT_TRUE(lb.ok());
      ASSERT_EQ(la.value(), lb.value()) << "oid " << oid;
    }
  }

  // Byte-identical final disk images, page for page.
  ExpectSameDiskImages(mem.fx.system->file(), file.fx.system->file());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StorageEquivalenceTest,
                         ::testing::Values(
                             StrategyKind::kTopDown,
                             StrategyKind::kLocalizedBottomUp,
                             StrategyKind::kGeneralizedBottomUp),
                         [](const auto& info) {
                           return std::string(StrategyName(info.param));
                         });

}  // namespace
}  // namespace burtree

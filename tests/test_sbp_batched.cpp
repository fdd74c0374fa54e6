#include <gtest/gtest.h>

#include <vector>

#include "blockmodel/mdl.hpp"
#include "generator/dcsbm.hpp"
#include "metrics/metrics.hpp"
#include "sbp/mcmc_phases.hpp"
#include "sbp/sbp.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp {
namespace {

using blockmodel::BlockId;
using blockmodel::Blockmodel;

generator::GeneratedGraph planted(std::uint64_t seed) {
  generator::DcsbmParams p;
  p.num_vertices = 240;
  p.num_communities = 6;
  p.num_edges = 2400;
  p.ratio_within_between = 5.0;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

TEST(BatchedGibbs, VariantNameIsBSBP) {
  EXPECT_STREQ(variant_name(Variant::BatchedGibbs), "B-SBP");
}

TEST(BatchedGibbs, RejectsNonPositiveBatchCount) {
  const auto g = planted(81);
  SbpConfig config;
  config.variant = Variant::BatchedGibbs;
  config.batch_count = 0;
  EXPECT_THROW(run(g.graph, config), std::invalid_argument);
}

class BatchCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(BatchCountSweep, PhaseImprovesMdlAndStaysConsistent) {
  const auto g = planted(82);
  // Scramble 40% of labels so a single phase has work to do.
  std::vector<std::int32_t> state = g.ground_truth;
  util::Rng rng(5);
  for (auto& label : state) {
    if (rng.uniform() < 0.4) {
      label = static_cast<std::int32_t>(rng.uniform_int(6));
    }
  }
  auto b = Blockmodel::from_assignment(g.graph, state, 6);
  const double before =
      blockmodel::mdl(b, g.graph.num_vertices(), g.graph.num_edges());

  McmcSettings settings;
  settings.max_iterations = 30;
  util::RngPool rngs(7, 8);
  const auto outcome =
      batched_gibbs_phase(g.graph, b, settings, GetParam(), rngs);

  EXPECT_TRUE(b.check_consistency(g.graph));
  EXPECT_LT(outcome.stats.final_mdl, before);
  EXPECT_EQ(outcome.serial_updates, 0);  // no serial section at all
  EXPECT_GT(outcome.parallel_updates, 0);
  for (BlockId r = 0; r < b.num_blocks(); ++r) {
    EXPECT_GT(b.block_size(r), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchCounts, BatchCountSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(BatchedGibbs, FullRunRecoversPlantedPartition) {
  const auto g = planted(83);
  SbpConfig config;
  config.variant = Variant::BatchedGibbs;
  config.batch_count = 4;
  config.seed = 3;
  const auto result = run(g.graph, config);
  EXPECT_GT(metrics::nmi(g.ground_truth, result.assignment), 0.85);
  EXPECT_EQ(result.stats.serial_updates, 0);
}

TEST(BatchedGibbs, EachPassCoversEveryVertexOnce) {
  const auto g = planted(84);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 6);
  McmcSettings settings;
  settings.max_iterations = 1;
  util::RngPool rngs(9, 4);
  const auto outcome = batched_gibbs_phase(g.graph, b, settings, 5, rngs);
  // One pass: proposals == V regardless of how the batches divide.
  EXPECT_EQ(outcome.stats.proposals, g.graph.num_vertices());
  EXPECT_EQ(outcome.parallel_updates, g.graph.num_vertices());
}

}  // namespace
}  // namespace hsbp::sbp

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "blockmodel/mdl.hpp"
#include "generator/dcsbm.hpp"
#include "graph/degree.hpp"
#include "sbp/block_merge.hpp"
#include "sbp/golden_search.hpp"
#include "sbp/mcmc_phases.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp {
namespace {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using graph::Graph;

generator::GeneratedGraph planted(std::uint64_t seed, int communities = 6,
                                  double ratio = 5.0) {
  generator::DcsbmParams p;
  p.num_vertices = 240;
  p.num_communities = communities;
  p.num_edges = 2400;
  p.ratio_within_between = ratio;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

/// Scrambled warm start: ground truth with a fraction of labels
/// randomized — lets a single MCMC phase show measurable improvement.
std::vector<std::int32_t> scrambled(const generator::GeneratedGraph& g,
                                    double fraction, std::uint64_t seed) {
  std::vector<std::int32_t> state = g.ground_truth;
  util::Rng rng(seed);
  for (auto& label : state) {
    if (rng.uniform() < fraction) {
      label = static_cast<std::int32_t>(
          rng.uniform_int(static_cast<std::uint64_t>(g.params.num_communities)));
    }
  }
  return state;
}

TEST(ConvergenceWindow, TriggersOnSmallDeltas) {
  ConvergenceWindow w(1e-3);
  EXPECT_FALSE(w.record(0.0, 1000.0));
  EXPECT_FALSE(w.record(0.0, 1000.0));
  EXPECT_TRUE(w.record(0.0, 1000.0));  // window full, sum 0 < 1
}

TEST(ConvergenceWindow, DoesNotTriggerOnLargeDeltas) {
  ConvergenceWindow w(1e-3);
  EXPECT_FALSE(w.record(-10.0, 1000.0));
  EXPECT_FALSE(w.record(-10.0, 1000.0));
  EXPECT_FALSE(w.record(-10.0, 1000.0));  // sum 30 > 1
}

TEST(ConvergenceWindow, SlidesOverOldDeltas) {
  ConvergenceWindow w(1e-3);
  w.record(-100.0, 1000.0);
  w.record(0.0, 1000.0);
  EXPECT_FALSE(w.record(0.0, 1000.0));  // 100 still in window
  EXPECT_TRUE(w.record(0.0, 1000.0));   // 100 dropped out
}

class PhaseSweep : public ::testing::TestWithParam<int> {};

TEST_P(PhaseSweep, PhaseImprovesScrambledPartition) {
  const auto g = planted(17);
  const auto state = scrambled(g, 0.4, 23);
  auto b = Blockmodel::from_assignment(g.graph, state, 6);
  const double before = blockmodel::mdl(b, g.graph.num_vertices(),
                                        g.graph.num_edges());

  McmcSettings settings;
  settings.max_iterations = 30;
  util::RngPool rngs(99, 8);
  PhaseOutcome outcome;
  switch (GetParam()) {
    case 0:
      outcome = metropolis_hastings_phase(g.graph, b, settings, rngs);
      break;
    case 1:
      outcome = async_gibbs_phase(g.graph, b, settings, rngs);
      break;
    default: {
      const auto split = graph::split_by_degree(g.graph, 0.15);
      outcome = hybrid_phase(g.graph, b, settings, split, rngs);
      break;
    }
  }

  EXPECT_TRUE(b.check_consistency(g.graph));
  EXPECT_NEAR(outcome.stats.initial_mdl, before, 1e-6);
  EXPECT_LT(outcome.stats.final_mdl, before);  // MCMC must improve MDL
  EXPECT_GT(outcome.stats.iterations, 0);
  EXPECT_GT(outcome.stats.proposals, 0);
  EXPECT_GT(outcome.stats.accepted, 0);
  // Exact MDL of the final state matches the reported value.
  EXPECT_NEAR(blockmodel::mdl(b, g.graph.num_vertices(),
                              g.graph.num_edges()),
              outcome.stats.final_mdl, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PhaseSweep, ::testing::Values(0, 1, 2));

TEST(MetropolisPhase, CountsSerialUpdatesOnly) {
  const auto g = planted(31);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 6);
  McmcSettings settings;
  settings.max_iterations = 3;
  util::RngPool rngs(1, 4);
  const auto outcome = metropolis_hastings_phase(g.graph, b, settings, rngs);
  EXPECT_EQ(outcome.parallel_updates, 0);
  EXPECT_GT(outcome.serial_updates, 0);
}

TEST(AsyncGibbsPhase, CountsParallelUpdatesOnly) {
  const auto g = planted(32);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 6);
  McmcSettings settings;
  settings.max_iterations = 3;
  util::RngPool rngs(1, 4);
  const auto outcome = async_gibbs_phase(g.graph, b, settings, rngs);
  EXPECT_EQ(outcome.serial_updates, 0);
  EXPECT_GT(outcome.parallel_updates, 0);
}

TEST(HybridPhase, SplitsUpdatesFifteenEightyFive) {
  const auto g = planted(33);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 6);
  McmcSettings settings;
  settings.max_iterations = 2;
  util::RngPool rngs(1, 4);
  const auto split = graph::split_by_degree(g.graph, 0.15);
  const auto outcome = hybrid_phase(g.graph, b, settings, split, rngs);
  EXPECT_GT(outcome.serial_updates, 0);
  EXPECT_GT(outcome.parallel_updates, 0);
  const double serial_share =
      static_cast<double>(outcome.serial_updates) /
      static_cast<double>(outcome.serial_updates + outcome.parallel_updates);
  EXPECT_NEAR(serial_share, 0.15, 0.02);
}

TEST(PhasesNeverEmptyBlocks, AllVariants) {
  const auto g = planted(34);
  McmcSettings settings;
  settings.max_iterations = 10;
  util::RngPool rngs(7, 4);
  const auto split = graph::split_by_degree(g.graph, 0.15);
  for (int variant = 0; variant < 3; ++variant) {
    auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 6);
    switch (variant) {
      case 0: metropolis_hastings_phase(g.graph, b, settings, rngs); break;
      case 1: async_gibbs_phase(g.graph, b, settings, rngs); break;
      default: hybrid_phase(g.graph, b, settings, split, rngs); break;
    }
    for (BlockId r = 0; r < b.num_blocks(); ++r) {
      EXPECT_GT(b.block_size(r), 0) << "variant " << variant;
    }
  }
}

// ---------------------------------------------------------------- merges

TEST(BlockMerge, ReachesTargetWithDenseLabels) {
  const auto g = planted(41);
  const auto b = Blockmodel::identity(g.graph);
  util::RngPool rngs(3, 4);
  const auto outcome = block_merge_phase(g.graph, b, 60, 10, rngs);
  EXPECT_EQ(outcome.num_blocks, 60);
  std::set<std::int32_t> labels(outcome.assignment.begin(),
                                outcome.assignment.end());
  EXPECT_EQ(labels.size(), 60u);
  EXPECT_EQ(*labels.begin(), 0);
  EXPECT_EQ(*labels.rbegin(), 59);
}

TEST(BlockMerge, NoopWhenTargetEqualsCurrent) {
  const auto g = planted(42);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 6);
  util::RngPool rngs(3, 4);
  const auto outcome = block_merge_phase(g.graph, b, 6, 10, rngs);
  EXPECT_EQ(outcome.num_blocks, 6);
  EXPECT_EQ(outcome.assignment, b.assignment());
}

TEST(BlockMerge, MergingPreservesPartitionStructure) {
  const auto g = planted(43);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 6);
  util::RngPool rngs(5, 4);
  const auto outcome = block_merge_phase(g.graph, b, 3, 10, rngs);
  EXPECT_EQ(outcome.num_blocks, 3);
  // Vertices that shared a block still share one (merges only coarsen).
  for (std::size_t i = 0; i < outcome.assignment.size(); ++i) {
    for (std::size_t j = i + 1; j < outcome.assignment.size(); ++j) {
      if (g.ground_truth[i] == g.ground_truth[j]) {
        EXPECT_EQ(outcome.assignment[i], outcome.assignment[j]);
      }
    }
  }
}

TEST(BlockMerge, PrefersMergingTwinBlocks) {
  // Split one true community across two labels; the best halving merge
  // should reunite it rather than merging two different communities.
  const auto g = planted(44, 4, 8.0);
  std::vector<std::int32_t> split_state = g.ground_truth;
  // Split community 0 into labels 0 and 4 (alternating).
  bool flip = false;
  for (auto& label : split_state) {
    if (label == 0) {
      label = flip ? 4 : 0;
      flip = !flip;
    }
  }
  const auto b = Blockmodel::from_assignment(g.graph, split_state, 5);
  util::RngPool rngs(9, 4);
  const auto outcome = block_merge_phase(g.graph, b, 4, 10, rngs);
  EXPECT_EQ(outcome.num_blocks, 4);
  // All of true community 0 back together.
  std::set<std::int32_t> labels_of_zero;
  for (std::size_t v = 0; v < split_state.size(); ++v) {
    if (g.ground_truth[v] == 0) labels_of_zero.insert(outcome.assignment[v]);
  }
  EXPECT_EQ(labels_of_zero.size(), 1u);
}

// ---------------------------------------------------------- golden search

Snapshot snap(BlockId blocks, double mdl_value) {
  return Snapshot{{}, blocks, mdl_value};
}

TEST(GoldenSearch, FindsMinimumOfConvexProfile) {
  // Synthetic MDL profile minimized at B = 13.
  const auto profile = [](BlockId b) {
    const double d = static_cast<double>(b) - 13.0;
    return 100.0 + d * d;
  };
  GoldenSearch search(snap(100, profile(100)));
  int steps = 0;
  while (!search.done() && steps < 60) {
    const auto probe = search.next_probe();
    ASSERT_GE(probe.target_blocks, 1);
    ASSERT_LT(probe.target_blocks, probe.warm_start->num_blocks);
    search.record(snap(probe.target_blocks, profile(probe.target_blocks)));
    ++steps;
  }
  EXPECT_TRUE(search.done());
  EXPECT_NEAR(static_cast<double>(search.best().num_blocks), 13.0, 2.0);
}

TEST(GoldenSearch, MonotoneProfileDescendsToOne) {
  // MDL keeps improving as blocks decrease: optimum is B = 1.
  const auto profile = [](BlockId b) { return static_cast<double>(b); };
  GoldenSearch search(snap(64, profile(64)));
  int steps = 0;
  while (!search.done() && steps < 60) {
    const auto probe = search.next_probe();
    search.record(snap(probe.target_blocks, profile(probe.target_blocks)));
    ++steps;
  }
  EXPECT_TRUE(search.done());
  EXPECT_EQ(search.best().num_blocks, 1);
}

TEST(GoldenSearch, SingleBlockStartIsImmediatelyDone) {
  GoldenSearch search(snap(1, 5.0));
  EXPECT_TRUE(search.done());
  EXPECT_EQ(search.best().num_blocks, 1);
}

TEST(GoldenSearch, BracketEstablishedAfterWorsening) {
  const auto profile = [](BlockId b) {
    const double d = static_cast<double>(b) - 20.0;
    return d * d;
  };
  GoldenSearch search(snap(80, profile(80)));
  EXPECT_FALSE(search.bracket_established());
  // 80 → 40 → 20 → 10: the probe at 10 is worse than 20 → bracket.
  while (!search.bracket_established() && !search.done()) {
    const auto probe = search.next_probe();
    search.record(snap(probe.target_blocks, profile(probe.target_blocks)));
  }
  EXPECT_TRUE(search.bracket_established());
}

TEST(GoldenSearch, StalledMergeStillTerminates) {
  // record() snapshots that ignore the requested target and always
  // return the mid block count; the search must still finish.
  GoldenSearch search(snap(32, 32.0));
  int steps = 0;
  while (!search.done() && steps < 100) {
    const auto probe = search.next_probe();
    const BlockId reached =
        search.bracket_established() ? search.best().num_blocks
                                     : probe.target_blocks;
    search.record(snap(reached, static_cast<double>(reached)));
    ++steps;
  }
  EXPECT_TRUE(search.done());
  EXPECT_LT(steps, 100);
}

}  // namespace
}  // namespace hsbp::sbp

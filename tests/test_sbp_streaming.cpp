#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <vector>

#include "generator/dcsbm.hpp"
#include "metrics/metrics.hpp"
#include "sbp/labels.hpp"
#include "sbp/streaming.hpp"

namespace hsbp::sbp {
namespace {

using graph::Edge;
using graph::Graph;

generator::GeneratedGraph planted(std::uint64_t seed) {
  generator::DcsbmParams p;
  p.num_vertices = 240;
  p.num_communities = 5;
  p.num_edges = 2400;
  p.ratio_within_between = 5.0;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

TEST(ExtendAssignment, KeepsExistingLabels) {
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 4}};
  const Graph g = Graph::from_edges(5, edges);
  const std::vector<std::int32_t> old_labels = {0, 0, 1, 1};
  blockmodel::BlockId num_blocks = 2;
  const auto extended = extend_assignment(g, old_labels, num_blocks);
  ASSERT_EQ(extended.size(), 5u);
  for (std::size_t v = 0; v < 4; ++v) {
    EXPECT_EQ(extended[v], old_labels[v]);
  }
}

TEST(ExtendAssignment, NewVertexAdoptsMajorityNeighborBlock) {
  const std::vector<Edge> edges = {{0, 4}, {1, 4}, {4, 2}};
  const Graph g = Graph::from_edges(5, edges);
  // Vertices 0,1 in block 0; vertex 2 in block 1 → majority block 0.
  const std::vector<std::int32_t> old_labels = {0, 0, 1, 1};
  blockmodel::BlockId num_blocks = 2;
  const auto extended = extend_assignment(g, old_labels, num_blocks);
  EXPECT_EQ(extended[4], 0);
  EXPECT_EQ(num_blocks, 2);
}

TEST(ExtendAssignment, OrphanGetsFreshBlock) {
  const std::vector<Edge> edges = {{0, 1}};
  const Graph g = Graph::from_edges(3, edges);  // vertex 2 isolated
  const std::vector<std::int32_t> old_labels = {0, 0};
  blockmodel::BlockId num_blocks = 1;
  const auto extended = extend_assignment(g, old_labels, num_blocks);
  EXPECT_EQ(extended[2], 1);
  EXPECT_EQ(num_blocks, 2);
}

TEST(ExtendAssignment, ChainsOfNewVerticesPropagate) {
  // 4 connects to 0 (labeled); 5 connects only to 4 (new but labeled by
  // the time 5 is processed).
  const std::vector<Edge> edges = {{0, 4}, {4, 5}};
  const Graph g = Graph::from_edges(6, edges);
  const std::vector<std::int32_t> old_labels = {0, 0, 1, 1};
  blockmodel::BlockId num_blocks = 2;
  const auto extended = extend_assignment(g, old_labels, num_blocks);
  EXPECT_EQ(extended[4], 0);
  EXPECT_EQ(extended[5], 0);
  EXPECT_EQ(num_blocks, 2);
}

TEST(ExtendAssignment, EmptyPreviousPartition) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);
  blockmodel::BlockId num_blocks = 0;
  const auto extended = extend_assignment(g, {}, num_blocks);
  // Vertex 0 opens block 0; 1 and 2 attach down the chain.
  EXPECT_EQ(extended[0], 0);
  EXPECT_EQ(extended[1], 0);
  EXPECT_EQ(extended[2], 0);
  EXPECT_EQ(num_blocks, 1);
}

TEST(ExtendAssignment, AllNewVerticesWithoutLabeledNeighbors) {
  // The arriving snapshot's new vertices form their own component: no
  // new vertex touches a labeled one, so every one must be labeled by
  // the orphan/chain rules alone — fresh block for the first vertex of
  // the component, propagation down the chain — never left at -1.
  const std::vector<Edge> edges = {{0, 1},          // old component
                                   {2, 3}, {3, 4}}; // all-new component
  const Graph g = Graph::from_edges(5, edges);
  const std::vector<std::int32_t> old_labels = {0, 0};
  blockmodel::BlockId num_blocks = 1;
  const auto extended = extend_assignment(g, old_labels, num_blocks);
  ASSERT_EQ(extended.size(), 5u);
  EXPECT_EQ(extended[0], 0);
  EXPECT_EQ(extended[1], 0);
  // Vertex 2 has no labeled neighbor → fresh block; 3 and 4 chain off
  // it. Labels stay dense in [0, num_blocks).
  EXPECT_EQ(extended[2], 1);
  EXPECT_EQ(extended[3], 1);
  EXPECT_EQ(extended[4], 1);
  EXPECT_EQ(num_blocks, 2);
}

TEST(ExtendAssignment, DisconnectedNewVerticesEachOpenABlock) {
  // Two isolated new vertices: each is its own orphan and opens its own
  // fresh block (they share no edge, so no propagation links them).
  const std::vector<Edge> edges = {{0, 1}};
  const Graph g = Graph::from_edges(4, edges);  // 2 and 3 isolated
  const std::vector<std::int32_t> old_labels = {0, 0};
  blockmodel::BlockId num_blocks = 1;
  const auto extended = extend_assignment(g, old_labels, num_blocks);
  EXPECT_EQ(extended[2], 1);
  EXPECT_EQ(extended[3], 2);
  EXPECT_EQ(num_blocks, 3);
}

TEST(ExtendAssignment, TieBreaksTowardSmallerLabelAndSkipsSelfLoops) {
  // Old labels {2, 1, 0}. New vertex 3 draws one vote each for blocks 2
  // and 1 (its self-loop casts none) and joins the smaller, 1. Vertex 4
  // has only a self-loop, so it opens block 3. Vertex 5 draws two votes
  // for block 2 and one for block 0: the count wins over the id.
  const std::vector<Edge> edges = {{3, 0}, {1, 3}, {3, 3}, {4, 4},
                                   {5, 0}, {0, 5}, {5, 2}};
  const Graph g = Graph::from_edges(6, edges);
  const std::vector<std::int32_t> old_labels = {2, 1, 0};
  blockmodel::BlockId num_blocks = 3;
  const auto extended = extend_assignment(g, old_labels, num_blocks);
  EXPECT_EQ(extended, (std::vector<std::int32_t>{2, 1, 0, 1, 3, 2}));
  EXPECT_EQ(num_blocks, 4);
}

TEST(ExtendAssignment, RejectsShrinkingVertexSet) {
  const Graph g = Graph::from_edges(2, {{{0, 1}}});
  const std::vector<std::int32_t> bigger = {0, 0, 1};
  blockmodel::BlockId num_blocks = 2;
  EXPECT_THROW(extend_assignment(g, bigger, num_blocks),
               std::invalid_argument);
}

TEST(ExtendAssignment, RejectsLabelOutsideBlocks) {
  const Graph g = Graph::from_edges(3, {{{0, 1}, {1, 2}}});
  blockmodel::BlockId num_blocks = 2;
  EXPECT_THROW(extend_assignment(g, {0, 2}, num_blocks),
               std::invalid_argument);
  EXPECT_THROW(extend_assignment(g, {-1, 0}, num_blocks),
               std::invalid_argument);
}

TEST(RefineAssignment, SplitsAndCompacts) {
  const std::vector<std::int32_t> assignment = {0, 0, 0, 0, 1, 1, 1, 1};
  blockmodel::BlockId num_blocks = 2;
  const auto refined = refine_assignment(assignment, num_blocks, 3, 42);
  ASSERT_EQ(refined.size(), assignment.size());
  // Labels dense in [0, num_blocks).
  for (const std::int32_t label : refined) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, num_blocks);
  }
  EXPECT_GE(num_blocks, 2);
  EXPECT_LE(num_blocks, 6);
  // Refinement never merges: vertices in different old blocks stay in
  // different new blocks.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 4; j < 8; ++j) {
      EXPECT_NE(refined[i], refined[j]);
    }
  }
}

TEST(RefineAssignment, FactorOneIsIdentityUpToRelabel) {
  const std::vector<std::int32_t> assignment = {2, 0, 1, 2, 0};
  blockmodel::BlockId num_blocks = 3;
  const auto refined = refine_assignment(assignment, num_blocks, 1, 7);
  EXPECT_EQ(num_blocks, 3);
  // Same partition structure.
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    for (std::size_t j = 0; j < assignment.size(); ++j) {
      EXPECT_EQ(assignment[i] == assignment[j], refined[i] == refined[j]);
    }
  }
}

TEST(RefineAssignment, RejectsBadFactor) {
  const std::vector<std::int32_t> assignment = {0, 1};
  blockmodel::BlockId num_blocks = 2;
  EXPECT_THROW(refine_assignment(assignment, num_blocks, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(refine_assignment(assignment, num_blocks, 1 << 30, 1),
               std::invalid_argument);  // 2 × 2^30 labels overflow int32
}

TEST(RefineAssignment, RejectsLabelOutsideBlocks) {
  blockmodel::BlockId num_blocks = 2;
  EXPECT_THROW(refine_assignment(std::vector<std::int32_t>{0, 2}, num_blocks,
                                 3, 1),
               std::invalid_argument);
  EXPECT_THROW(refine_assignment(std::vector<std::int32_t>{-1, 1},
                                 num_blocks, 3, 1),
               std::invalid_argument);
  EXPECT_EQ(num_blocks, 2);
}

TEST(RunWarm, FromGroundTruthStaysNearGroundTruth) {
  const auto g = planted(21);
  SbpConfig config;
  config.seed = 2;
  const auto result = run_warm(g.graph, config, g.ground_truth, 5);
  EXPECT_GT(metrics::nmi(g.ground_truth, result.assignment), 0.9);
}

TEST(RunWarm, ValidatesAssignment) {
  const auto g = planted(22);
  SbpConfig config;
  std::vector<std::int32_t> bad(240, 7);  // label outside [0, 5)
  EXPECT_THROW(run_warm(g.graph, config, bad, 5), std::invalid_argument);
}

TEST(RunWarm, RejectsNonDenseLabels) {
  // The documented precondition: labels dense in [0, num_blocks). An
  // in-range but unused label would seed the merge-only search with an
  // empty block it can never fold away — run_warm must fail loudly, not
  // quietly degrade.
  const auto g = planted(26);
  SbpConfig config;
  std::vector<std::int32_t> sparse(240);
  for (std::size_t v = 0; v < sparse.size(); ++v) {
    // Labels {0, 1, 3, 4} of [0, 5): block 2 is empty.
    const auto raw = static_cast<std::int32_t>(v % 4);
    sparse[v] = raw >= 2 ? raw + 1 : raw;
  }
  EXPECT_THROW(run_warm(g.graph, config, sparse, 5),
               std::invalid_argument);
  // The refine/extend pipeline always produces dense labels, so the
  // same labels compacted to 4 blocks are accepted.
  std::vector<std::int32_t> dense(240);
  for (std::size_t v = 0; v < dense.size(); ++v) {
    dense[v] = static_cast<std::int32_t>(v % 4);
  }
  EXPECT_NO_THROW(run_warm(g.graph, config, dense, 4));
}

void expect_same_fit(const SbpResult& got, const SbpResult& want) {
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.num_blocks, want.num_blocks);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mdl),
            std::bit_cast<std::uint64_t>(want.mdl));
}

/// warm_refit is run() when the previous partition has at most two
/// blocks, and extend → refine → run_warm otherwise.
TEST(WarmRefit, ColdBelowThreeBlocksWarmOtherwise) {
  const auto g = planted(27);
  SbpConfig config;
  config.seed = 4;
  config.num_threads = 1;
  // The previous fit saw the first 200 of 240 vertices.
  const std::vector<std::int32_t> truth(g.ground_truth.begin(),
                                        g.ground_truth.begin() + 200);

  std::vector<std::int32_t> halves(truth.size());
  for (std::size_t v = 0; v < halves.size(); ++v) {
    halves[v] = static_cast<std::int32_t>(v % 2);
  }
  expect_same_fit(warm_refit(g.graph, config, halves, 2, 3, 9),
                  run(g.graph, config));

  blockmodel::BlockId num_blocks = 5;
  const auto extended = extend_assignment(g.graph, truth, num_blocks);
  const auto refined = refine_assignment(extended, num_blocks, 3, 9);
  expect_same_fit(warm_refit(g.graph, config, truth, 5, 3, 9),
                  run_warm(g.graph, config, refined, num_blocks));
}

TEST(RunStreaming, Validation) {
  SbpConfig config;
  EXPECT_THROW(run_streaming({}, config), std::invalid_argument);

  const auto g = planted(23);
  std::vector<Graph> shrinking = {
      g.graph, Graph::from_edges(2, {{{0, 1}}})};
  EXPECT_THROW(run_streaming(shrinking, config), std::invalid_argument);
}

class StreamingOrderSweep
    : public ::testing::TestWithParam<generator::StreamingOrder> {};

TEST_P(StreamingOrderSweep, FinalSnapshotQualityMatchesColdStart) {
  const auto g = planted(24);
  const auto parts = generator::streaming_snapshots(g, 4, GetParam(), 3);

  SbpConfig config;
  config.seed = 5;
  // The NMI thresholds below compare two stochastic trajectories, and
  // the async trajectory depends on the thread count; pin it so the
  // statistical margins hold regardless of the ambient OMP settings
  // (the TSan tier runs with OMP_NUM_THREADS=4). Concurrency itself is
  // exercised by the rest of the suite.
  config.num_threads = 1;
  const auto streaming = run_streaming(parts.snapshots, config);
  ASSERT_EQ(streaming.snapshots.size(), 4u);

  const double streamed_nmi = metrics::nmi(
      parts.ground_truth, streaming.snapshots.back().assignment);
  const auto cold = run(parts.snapshots.back(), config);
  const double cold_nmi =
      metrics::nmi(parts.ground_truth, cold.assignment);

  // Warm starting trades a little quality for large per-part savings;
  // at this tiny scale the gap is noisiest, so the margin is generous.
  EXPECT_GT(streamed_nmi, 0.7);
  EXPECT_GT(streamed_nmi, cold_nmi - 0.2);
}

TEST_P(StreamingOrderSweep, IntermediateResultsAreValidPartitions) {
  const auto g = planted(25);
  const auto parts = generator::streaming_snapshots(g, 5, GetParam(), 4);
  SbpConfig config;
  config.seed = 6;
  const auto streaming = run_streaming(parts.snapshots, config);
  for (std::size_t i = 0; i < streaming.snapshots.size(); ++i) {
    const auto& result = streaming.snapshots[i];
    EXPECT_EQ(result.assignment.size(),
              static_cast<std::size_t>(parts.snapshots[i].num_vertices()));
    for (const std::int32_t label : result.assignment) {
      EXPECT_GE(label, 0);
      EXPECT_LT(label, result.num_blocks);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, StreamingOrderSweep,
    ::testing::Values(generator::StreamingOrder::EdgeSampling,
                      generator::StreamingOrder::Snowball));

}  // namespace
}  // namespace hsbp::sbp

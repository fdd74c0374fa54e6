#include <gtest/gtest.h>

#include <omp.h>

#include <set>
#include <sstream>

#include "blockmodel/blockmodel.hpp"
#include "eval/runner.hpp"
#include "generator/dcsbm.hpp"
#include "graph/io.hpp"
#include "metrics/metrics.hpp"
#include "sbp/sbp.hpp"
#include "util/args.hpp"

namespace hsbp {
namespace {

using graph::Edge;
using graph::Graph;

TEST(SbpRun, OuterIterationCapIsRespected) {
  generator::DcsbmParams p;
  p.num_vertices = 200;
  p.num_communities = 4;
  p.num_edges = 1600;
  p.seed = 11;
  const auto g = generator::generate_dcsbm(p);
  sbp::SbpConfig config;
  config.max_outer_iterations = 1;
  config.seed = 1;
  const auto result = sbp::run(g.graph, config);
  EXPECT_EQ(result.stats.outer_iterations, 1);
  // Even truncated, the result is a valid dense partition.
  for (const std::int32_t label : result.assignment) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, result.num_blocks);
  }
}

TEST(SbpRun, IsolatedVerticesGetLabels) {
  // Graph with structure plus 5 isolated vertices.
  generator::DcsbmParams p;
  p.num_vertices = 100;
  p.num_communities = 3;
  p.num_edges = 800;
  p.seed = 12;
  const auto g = generator::generate_dcsbm(p);
  auto edges = g.graph.edges();
  const Graph padded =
      Graph::from_edges(g.graph.num_vertices() + 5, edges);

  sbp::SbpConfig config;
  config.seed = 2;
  const auto result = sbp::run(padded, config);
  EXPECT_EQ(result.assignment.size(), 105u);
  for (const std::int32_t label : result.assignment) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, result.num_blocks);
  }
}

TEST(SbpRun, OversubscribedThreadsStillCorrect) {
  // Request more threads than cores: the parallel paths must stay
  // correct (just slower).
  generator::DcsbmParams p;
  p.num_vertices = 200;
  p.num_communities = 4;
  p.num_edges = 1600;
  p.ratio_within_between = 5.0;
  p.seed = 13;
  const auto g = generator::generate_dcsbm(p);
  sbp::SbpConfig config;
  config.variant = sbp::Variant::AsyncGibbs;
  config.num_threads = 4;  // host has 1 core
  config.seed = 3;
  const auto result = sbp::run(g.graph, config);
  EXPECT_GT(metrics::nmi(g.ground_truth, result.assignment), 0.8);
  omp_set_num_threads(1);  // restore for subsequent tests
}

TEST(BestOf, WorksWithEveryVariant) {
  generator::DcsbmParams p;
  p.num_vertices = 150;
  p.num_communities = 4;
  p.num_edges = 1200;
  p.seed = 14;
  const auto g = generator::generate_dcsbm(p);
  for (const auto variant :
       {sbp::Variant::Metropolis, sbp::Variant::AsyncGibbs,
        sbp::Variant::Hybrid, sbp::Variant::BatchedGibbs}) {
    sbp::SbpConfig config;
    config.variant = variant;
    config.seed = 4;
    const auto outcome = eval::best_of(g.graph, config, 2);
    EXPECT_EQ(outcome.per_run_stats.size(), 2u)
        << sbp::variant_name(variant);
    // Best is no worse than either run's final state implies.
    EXPECT_GT(outcome.best.num_blocks, 0);
  }
}

TEST(MatrixMarketIo, SkewSymmetricMirrors) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "3 3 1\n"
      "2 1 -4.0\n");
  const Graph g = graph::read_matrix_market(in);
  EXPECT_EQ(g.num_edges(), 2);  // (1,0) and mirrored (0,1)
}

TEST(Modularity, SelfLoopsCountAsWithinEdges) {
  // One self-loop on an otherwise split graph contributes to its own
  // community's within mass.
  const std::vector<Edge> edges = {{0, 0}, {1, 2}, {2, 1}};
  const Graph g = Graph::from_edges(3, edges);
  const std::vector<std::int32_t> split = {0, 1, 1};
  // within_0 = 1, d_out_0 = d_in_0 = 1; within_1 = 2, d = 2 each.
  // Q = (1/3 − 1/9) + (2/3 − 4/9) = 2/9 + 2/9.
  EXPECT_NEAR(metrics::modularity(g, split), 4.0 / 9.0, 1e-12);
}

TEST(Args, BareFlagHasEmptyStringValue) {
  const char* argv[] = {"prog", "--flag"};
  const util::Args args(2, argv);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get_string("flag", "default"), "");
}

TEST(Blockmodel, FromAssignmentAllowsUnusedTrailingLabels) {
  // num_blocks may exceed the labels actually used (empty blocks are
  // representable; the MCMC layer just never creates them).
  const std::vector<Edge> edges = {{0, 1}, {1, 0}};
  const Graph g = Graph::from_edges(2, edges);
  const std::vector<std::int32_t> assignment = {0, 1};
  const auto b = blockmodel::Blockmodel::from_assignment(g, assignment, 4);
  EXPECT_EQ(b.num_blocks(), 4);
  EXPECT_EQ(b.block_size(2), 0);
  EXPECT_EQ(b.block_size(3), 0);
  EXPECT_EQ(b.degree_out(3), 0);
}

}  // namespace
}  // namespace hsbp

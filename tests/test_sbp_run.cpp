#include <gtest/gtest.h>

#include <stdexcept>

#include "generator/dcsbm.hpp"
#include "graph/degree.hpp"
#include "metrics/metrics.hpp"
#include "ooc/ooc.hpp"
#include "sample/sample_sbp.hpp"
#include "sbp/influence.hpp"
#include "sbp/sbp.hpp"
#include "util/omp_region.hpp"

namespace hsbp::sbp {
namespace {

using graph::Edge;
using graph::Graph;

generator::GeneratedGraph strong_planted(std::uint64_t seed) {
  generator::DcsbmParams p;
  p.num_vertices = 400;
  p.num_communities = 6;
  p.num_edges = 4000;
  p.ratio_within_between = 5.0;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

TEST(VariantName, MatchesPaper) {
  EXPECT_STREQ(variant_name(Variant::Metropolis), "SBP");
  EXPECT_STREQ(variant_name(Variant::AsyncGibbs), "A-SBP");
  EXPECT_STREQ(variant_name(Variant::Hybrid), "H-SBP");
}

TEST(SbpRun, RejectsEmptyGraph) {
  const Graph empty;
  EXPECT_THROW(run(empty, SbpConfig{}), std::invalid_argument);
  const Graph no_edges = Graph::from_edges(5, {});
  EXPECT_THROW(run(no_edges, SbpConfig{}), std::invalid_argument);
}

TEST(SbpRun, RejectsBadConfig) {
  const std::vector<Edge> edges = {{0, 1}, {1, 0}};
  const Graph g = Graph::from_edges(2, edges);
  SbpConfig config;
  config.hybrid_fraction = 1.5;
  EXPECT_THROW(run(g, config), std::invalid_argument);
  config = SbpConfig{};
  config.beta = 0.0;
  EXPECT_THROW(run(g, config), std::invalid_argument);
}

TEST(SbpRun, TinyGraphRuns) {
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};
  const Graph g = Graph::from_edges(3, edges);
  SbpConfig config;
  config.seed = 1;
  const auto result = run(g, config);
  EXPECT_GE(result.num_blocks, 1);
  EXPECT_LE(result.num_blocks, 3);
  EXPECT_EQ(result.assignment.size(), 3u);
}

class VariantRecovery : public ::testing::TestWithParam<Variant> {};

TEST_P(VariantRecovery, RecoversStrongPlantedPartition) {
  const auto g = strong_planted(51);
  SbpConfig config;
  config.variant = GetParam();
  config.seed = 3;
  const auto result = run(g.graph, config);
  const double score = metrics::nmi(g.ground_truth, result.assignment);
  EXPECT_GT(score, 0.85) << variant_name(GetParam());
  // MDL must beat the structure-less null model.
  EXPECT_LT(metrics::normalized_mdl(result.mdl, g.graph.num_vertices(),
                                    g.graph.num_edges()),
            1.0);
}

TEST_P(VariantRecovery, StatsAreCoherent) {
  const auto g = strong_planted(52);
  SbpConfig config;
  config.variant = GetParam();
  config.seed = 4;
  const auto result = run(g.graph, config);
  const auto& stats = result.stats;
  EXPECT_GT(stats.outer_iterations, 0);
  EXPECT_GT(stats.mcmc_iterations, 0);
  EXPECT_GT(stats.proposals, 0);
  EXPECT_GE(stats.proposals, stats.accepted_moves);
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GE(stats.total_seconds,
            stats.mcmc_seconds);  // phases are subsets of the run
  if (GetParam() == Variant::Metropolis) {
    EXPECT_EQ(stats.parallel_updates, 0);
  } else {
    EXPECT_GT(stats.parallel_updates, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantRecovery,
                         ::testing::Values(Variant::Metropolis,
                                           Variant::AsyncGibbs,
                                           Variant::Hybrid),
                         [](const auto& info) {
                           return std::string(variant_name(info.param)) ==
                                          "A-SBP"
                                      ? "ASBP"
                                  : variant_name(info.param) ==
                                          std::string("H-SBP")
                                      ? "HSBP"
                                      : "SBP";
                         });

TEST(SbpRun, DeterministicSingleThreaded) {
  const auto g = strong_planted(53);
  SbpConfig config;
  config.seed = 9;
  config.num_threads = 1;
  const auto a = run(g.graph, config);
  const auto b = run(g.graph, config);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_DOUBLE_EQ(a.mdl, b.mdl);
}

/// A driver's `num_threads` holds for its own run only: sbp::run,
/// sample::run and ooc::fit each hand the caller's OpenMP thread count
/// back on return.
TEST(SbpRun, RestoresCallerThreadCount) {
  const util::ScopedThreads three(3);
  const auto g = strong_planted(12);
  SbpConfig config;
  config.num_threads = 1;
  (void)run(g.graph, config);
  EXPECT_EQ(omp_get_max_threads(), 3);

  sample::SampleConfig sampled;
  sampled.base = config;
  sampled.finetune_max_iterations = 2;
  (void)sample::run(g.graph, sampled);
  EXPECT_EQ(omp_get_max_threads(), 3);

  ooc::OocConfig out_of_core;
  out_of_core.base = config;
  out_of_core.finetune_max_iterations = 2;
  (void)ooc::fit(g.graph, out_of_core);
  EXPECT_EQ(omp_get_max_threads(), 3);
}

TEST(SbpRun, HybridFractionZeroBehavesLikeAsync) {
  // f=0 ⇒ no serial pass: every update is parallel.
  const auto g = strong_planted(54);
  SbpConfig config;
  config.variant = Variant::Hybrid;
  config.hybrid_fraction = 0.0;
  config.seed = 2;
  const auto result = run(g.graph, config);
  EXPECT_EQ(result.stats.serial_updates, 0);
}

TEST(SbpRun, HybridFractionOneBehavesLikeSerial) {
  const auto g = strong_planted(55);
  SbpConfig config;
  config.variant = Variant::Hybrid;
  config.hybrid_fraction = 1.0;
  config.seed = 2;
  const auto result = run(g.graph, config);
  EXPECT_EQ(result.stats.parallel_updates, 0);
  EXPECT_GT(result.stats.serial_updates, 0);
}

// ------------------------------------------------------------- influence

TEST(Influence, EdgelessVerticesExertNoInfluence) {
  const std::vector<Edge> edges = {{0, 1}, {1, 0}};
  const Graph g = Graph::from_edges(4, edges);  // vertices 2,3 isolated
  const std::vector<std::int32_t> assignment = {0, 0, 1, 1};
  const auto result = total_influence(g, assignment, 2, 3.0);
  EXPECT_NEAR(result.influence_of[2], 0.0, 1e-9);
  EXPECT_NEAR(result.influence_of[3], 0.0, 1e-9);
  EXPECT_GE(result.alpha, 0.0);
}

TEST(Influence, HighDegreeVerticesExertMoreInfluence) {
  // The paper's H-SBP heuristic (§3.2): high-degree vertices are the
  // most influential. Verified on a DCSBM graph by comparing the
  // top-degree quartile's average influence with the bottom quartile's.
  generator::DcsbmParams p;
  p.num_vertices = 60;
  p.num_communities = 3;
  p.num_edges = 500;
  p.ratio_within_between = 4.0;
  p.seed = 9;
  const auto g = generator::generate_dcsbm(p);
  const auto result = total_influence(g.graph, g.ground_truth, 3, 3.0);

  const auto order = graph::vertices_by_degree_desc(g.graph);
  double top = 0.0;
  double bottom = 0.0;
  for (int i = 0; i < 15; ++i) {
    top += result.influence_of[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
    bottom += result.influence_of[static_cast<std::size_t>(
        order[static_cast<std::size_t>(45 + i)])];
  }
  EXPECT_GT(top, 1.5 * bottom);
  EXPECT_GT(result.alpha, 0.0);
}

TEST(Influence, GuardsAgainstLargeGraphs) {
  const auto g = strong_planted(56);
  EXPECT_THROW(
      total_influence(g.graph, g.ground_truth, 6, 3.0, /*max_vertices=*/100),
      std::invalid_argument);
}

}  // namespace
}  // namespace hsbp::sbp

#include <gtest/gtest.h>
#include <omp.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "eval/experiment.hpp"
#include "eval/runner.hpp"
#include "generator/suites.hpp"
#include "graph/io.hpp"
#include "metrics/metrics.hpp"
#include "sbp/sbp.hpp"

namespace hsbp {
namespace {

TEST(BestOf, KeepsLowestMdlAndSumsTimings) {
  generator::DcsbmParams p;
  p.num_vertices = 200;
  p.num_communities = 4;
  p.num_edges = 1600;
  p.ratio_within_between = 5.0;
  p.seed = 61;
  const auto g = generator::generate_dcsbm(p);

  sbp::SbpConfig config;
  config.seed = 100;
  const auto outcome = eval::best_of(g.graph, config, 3);
  ASSERT_EQ(outcome.per_run_stats.size(), 3u);
  double min_total = 0.0;
  for (const auto& stats : outcome.per_run_stats) {
    min_total += stats.mcmc_seconds;
  }
  EXPECT_NEAR(outcome.total_mcmc_seconds, min_total, 1e-9);
  EXPECT_GT(outcome.total_mcmc_iterations, 0);
  EXPECT_GE(outcome.total_seconds, outcome.total_mcmc_seconds);
}

TEST(BestOf, RejectsZeroRuns) {
  generator::DcsbmParams p;
  p.num_vertices = 50;
  p.num_communities = 2;
  p.num_edges = 200;
  p.seed = 62;
  const auto g = generator::generate_dcsbm(p);
  EXPECT_THROW(eval::best_of(g.graph, sbp::SbpConfig{}, 0),
               std::invalid_argument);
}

TEST(Experiment, RowFieldsAreCoherent) {
  generator::DcsbmParams p;
  p.num_vertices = 200;
  p.num_communities = 4;
  p.num_edges = 1600;
  p.ratio_within_between = 5.0;
  p.seed = 63;
  auto g = generator::generate_dcsbm(p);
  g.name = "row-test";

  sbp::SbpConfig config;
  config.seed = 5;
  const auto row = eval::run_experiment(g, sbp::Variant::Hybrid, config, 2);
  EXPECT_EQ(row.graph_id, "row-test");
  EXPECT_EQ(row.algorithm, "H-SBP");
  EXPECT_EQ(row.num_vertices, 200);
  EXPECT_EQ(row.num_edges, 1600);
  EXPECT_GE(row.nmi, 0.0);
  EXPECT_LE(row.nmi, 1.0 + 1e-9);
  EXPECT_GT(row.mdl_norm, 0.0);
  EXPECT_LT(row.mdl_norm, 1.01);
  EXPECT_GT(row.mcmc_iterations, 0);
  EXPECT_GT(row.parallel_update_fraction, 0.5);  // H-SBP: 85% parallel
  EXPECT_EQ(row.threads, omp_get_max_threads());

  // The speedup table's Amdahl projection reads the runs' thread count.
  config.num_threads = 2;
  EXPECT_EQ(eval::run_experiment(g, sbp::Variant::Hybrid, config, 1).threads,
            2);
}

TEST(Integration, SuiteEntryEndToEndRecovery) {
  // A strong-structure, high-density suite entry at tiny scale: SBP and
  // H-SBP should both beat the null model clearly. (The low-density
  // groups are genuinely hard at this scale — the paper itself redacts
  // graphs where all algorithms fail.)
  const auto suite = generator::synthetic_suite(0.002, 71);
  const auto& entry = suite[12];  // S13: r = 5 group, high density
  ASSERT_DOUBLE_EQ(entry.params.ratio_within_between, 5.0);
  auto g = generator::generate(entry);

  sbp::SbpConfig config;
  config.seed = 8;
  for (const auto variant :
       {sbp::Variant::Metropolis, sbp::Variant::Hybrid}) {
    const auto row = eval::run_experiment(g, variant, config, 2);
    EXPECT_LT(row.mdl_norm, 0.95) << sbp::variant_name(variant);
  }
}

TEST(Integration, FileRoundTripThenDetect) {
  // Write a planted graph to Matrix Market, read it back, run H-SBP on
  // the reread copy, and score against the original ground truth.
  generator::DcsbmParams p;
  p.num_vertices = 300;
  p.num_communities = 5;
  p.num_edges = 3000;
  p.ratio_within_between = 6.0;
  p.seed = 64;
  const auto g = generator::generate_dcsbm(p);

  const auto path = std::filesystem::temp_directory_path() /
                    "hsbp_integration_roundtrip.mtx";
  graph::write_matrix_market_file(g.graph, path.string());
  const auto reread = graph::read_matrix_market_file(path.string());
  std::filesystem::remove(path);

  ASSERT_EQ(reread.num_vertices(), g.graph.num_vertices());
  ASSERT_EQ(reread.num_edges(), g.graph.num_edges());

  sbp::SbpConfig config;
  config.variant = sbp::Variant::Hybrid;
  config.seed = 12;
  const auto result = sbp::run(reread, config);
  EXPECT_GT(metrics::nmi(g.ground_truth, result.assignment), 0.8);
}

TEST(Integration, WeakStructureYieldsNearNullMdl) {
  // r ≈ 1: the graph has essentially no community structure; the paper's
  // diagnostic is MDL_norm ≈ 1 (p2p-Gnutella31 discussion, §5.3).
  generator::DcsbmParams p;
  p.num_vertices = 300;
  p.num_communities = 5;
  p.num_edges = 1200;
  p.ratio_within_between = 1.0;
  p.seed = 65;
  auto g = generator::generate_dcsbm(p);
  g.name = "weak";

  sbp::SbpConfig config;
  config.seed = 14;
  const auto row =
      eval::run_experiment(g, sbp::Variant::Metropolis, config, 2);
  EXPECT_GT(row.mdl_norm, 0.93);
  EXPECT_LT(row.nmi, 0.5);
}

TEST(Integration, HybridMatchesBaselineQualityOnStrongGraphs) {
  // The paper's headline claim (Figs. 4a/5): H-SBP matches SBP quality.
  const auto suite = generator::synthetic_suite(0.002, 72);
  const auto& entry = suite[4];  // S5: r = 3, high density group
  auto g = generator::generate(entry);

  sbp::SbpConfig config;
  config.seed = 10;
  const auto base =
      eval::run_experiment(g, sbp::Variant::Metropolis, config, 3);
  const auto hybrid =
      eval::run_experiment(g, sbp::Variant::Hybrid, config, 3);
  EXPECT_GT(base.nmi, 0.7);
  EXPECT_GT(hybrid.nmi, base.nmi - 0.1);
  EXPECT_LT(hybrid.mdl_norm, base.mdl_norm + 0.02);
}

}  // namespace
}  // namespace hsbp

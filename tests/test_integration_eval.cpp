#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "eval/report.hpp"
#include "generator/dcsbm.hpp"
#include "sbp/golden_search.hpp"
#include "util/rng.hpp"

namespace hsbp::eval {
namespace {

ExperimentRow sample_row(const std::string& graph, const std::string& algo,
                         double mcmc_seconds, double nmi) {
  ExperimentRow row;
  row.graph_id = graph;
  row.algorithm = algo;
  row.num_vertices = 100;
  row.num_edges = 800;
  row.num_blocks = 5;
  row.nmi = nmi;
  row.mdl_norm = 0.9;
  row.modularity = 0.5;
  row.mdl = 1234.5;
  row.mcmc_seconds = mcmc_seconds;
  row.merge_seconds = 0.1;
  row.total_seconds = mcmc_seconds + 0.1;
  row.mcmc_iterations = 42;
  row.parallel_update_fraction = 0.85;
  return row;
}

TEST(Report, QualityTableContainsEveryRow) {
  std::ostringstream out;
  print_quality_table({sample_row("g1", "SBP", 1.0, 0.9),
                       sample_row("g1", "H-SBP", 0.5, 0.91)},
                      out);
  const std::string text = out.str();
  EXPECT_NE(text.find("g1"), std::string::npos);
  EXPECT_NE(text.find("SBP"), std::string::npos);
  EXPECT_NE(text.find("H-SBP"), std::string::npos);
  EXPECT_NE(text.find("0.900"), std::string::npos);
}

TEST(Report, SpeedupTableComputesRatiosAgainstFirstAlgorithm) {
  std::ostringstream out;
  print_speedup_table({sample_row("g1", "SBP", 2.0, 0.9),
                       sample_row("g1", "H-SBP", 1.0, 0.9)},
                      out);
  const std::string text = out.str();
  // H-SBP MCMC speedup = 2.0/1.0 = 2.00.
  EXPECT_NE(text.find("2.00"), std::string::npos);
  EXPECT_NE(text.find("proj@128t"), std::string::npos);
}

TEST(Report, IterationTableShowsCounts) {
  std::ostringstream out;
  print_iteration_table({sample_row("g2", "A-SBP", 1.0, 0.5)}, out);
  EXPECT_NE(out.str().find("42"), std::string::npos);
}

TEST(Report, CsvHasHeaderAndOneLinePerRow) {
  std::ostringstream out;
  write_rows_csv({sample_row("g1", "SBP", 1.0, 0.9),
                  sample_row("g2", "H-SBP", 0.5, 0.8)},
                 out);
  const std::string text = out.str();
  std::size_t lines = 0;
  for (const char c : text) lines += (c == '\n');
  EXPECT_EQ(lines, 3u);  // header + 2 rows
  EXPECT_NE(text.find("graph,algorithm,"), std::string::npos);
  EXPECT_NE(text.find("g2,H-SBP,"), std::string::npos);
}

TEST(Report, CsvFileRejectsBadPath) {
  EXPECT_THROW(
      write_rows_csv_file({}, "/nonexistent-dir/rows.csv"),
      std::runtime_error);
}

TEST(Report, BannerIncludesScaleAndRuns) {
  std::ostringstream out;
  print_banner("Test Bench", 0.25, 5, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("Test Bench"), std::string::npos);
  EXPECT_NE(text.find("scale=0.25"), std::string::npos);
  EXPECT_NE(text.find("runs=5"), std::string::npos);
}

/// Golden-search fuzz: noisy unimodal MDL profiles with random minima —
/// the search must terminate and land near the minimum.
class GoldenFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenFuzz, ConvergesNearMinimumOfNoisyConvexProfile) {
  util::Rng rng(GetParam());
  const auto optimum = static_cast<blockmodel::BlockId>(
      4 + rng.uniform_int(60));
  const double curvature = 0.5 + rng.uniform() * 5.0;
  const auto profile = [&](blockmodel::BlockId blocks) {
    const double d = static_cast<double>(blocks - optimum);
    // Deterministic "noise" from the block count so reruns agree.
    const double wobble =
        0.3 * std::sin(static_cast<double>(blocks) * 2.39996);
    return 1000.0 + curvature * d * d + wobble;
  };

  sbp::GoldenSearch search(sbp::Snapshot{{}, 256, profile(256)});
  int steps = 0;
  while (!search.done() && steps < 80) {
    const auto probe = search.next_probe();
    ASSERT_GE(probe.target_blocks, 1);
    ASSERT_LT(probe.target_blocks, probe.warm_start->num_blocks);
    search.record(
        sbp::Snapshot{{}, probe.target_blocks, profile(probe.target_blocks)});
    ++steps;
  }
  ASSERT_TRUE(search.done());
  EXPECT_NEAR(static_cast<double>(search.best().num_blocks),
              static_cast<double>(optimum), 6.0)
      << "optimum=" << optimum << " curvature=" << curvature;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace hsbp::eval

// The divide-and-conquer out-of-core fit: piece planning, the chunked
// blockmodel builder, determinism, mmap-vs-in-memory equality, and
// quality parity with the in-memory baseline.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/mdl.hpp"
#include "generator/dcsbm.hpp"
#include "graph/binary_csr.hpp"
#include "graph/mmap_graph.hpp"
#include "metrics/metrics.hpp"
#include "ooc/ooc.hpp"
#include "sbp/sbp.hpp"
#include "util/omp_region.hpp"

namespace hsbp::ooc {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

graph::Graph community_graph(std::uint64_t seed = 5) {
  generator::DcsbmParams params;
  params.num_vertices = 600;
  params.num_communities = 8;
  params.num_edges = 9000;
  params.ratio_within_between = 6.0;
  params.seed = seed;
  return generator::generate_dcsbm(params).graph;
}

OocConfig test_config() {
  OocConfig config;
  config.base.seed = 42;
  config.base.num_threads = 1;  // fixed thread count: the determinism contract
  config.base.variant = sbp::Variant::Hybrid;
  config.sampler = sample::SamplerKind::DegreeWeighted;
  config.skeleton_fraction = 0.3;
  config.pieces = 3;
  config.finetune_max_iterations = 5;
  config.chunk_vertices = 128;  // small: exercises the chunk boundaries
  return config;
}

TEST(PlanPieces, ExplicitRequestWins) {
  EXPECT_EQ(plan_pieces(1000, 100000, 1, 4), 4);
  EXPECT_EQ(plan_pieces(3, 10, 1, 100), 3);  // clamped to V
}

TEST(PlanPieces, DerivedFromBudget) {
  // 1M vertices, 10M edges: 16·(V+1) + 8·E = 96 MB → 4 pieces at 24 MiB.
  const graph::Vertex v = 1'000'000;
  const graph::EdgeCount e = 10'000'000;
  EXPECT_EQ(plan_pieces(v, e, 24, 0),
            static_cast<int>((estimated_csr_bytes(v, e) + 24 * 1024 * 1024 - 1) /
                             (24 * 1024 * 1024)));
  EXPECT_EQ(plan_pieces(v, e, 0, 0), 1);     // no budget → one piece
  EXPECT_EQ(plan_pieces(v, e, 1 << 20, 0), 1);  // huge budget → one piece
}

TEST(PlanPieces, EstimateCountsFourArrays) {
  EXPECT_EQ(estimated_csr_bytes(0, 0), 16);
  EXPECT_EQ(estimated_csr_bytes(9, 25), 16 * 10 + 8 * 25);
}

TEST(ChunkedBlockmodel, MatchesUnchunkedBuildExactly) {
  const graph::Graph graph = community_graph();
  std::vector<std::int32_t> assignment(
      static_cast<std::size_t>(graph.num_vertices()));
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    assignment[v] = static_cast<std::int32_t>(v % 7);
  }
  const auto whole =
      blockmodel::Blockmodel::from_assignment(graph, assignment, 7);
  int releases = 0;
  const auto chunked = blockmodel::Blockmodel::from_assignment_chunked(
      graph, assignment, 7, 64, [&releases] { ++releases; });
  EXPECT_GT(releases, 0);
  // Fixed-point sums are order-independent: equality is exact.
  EXPECT_EQ(blockmodel::log_likelihood(whole),
            blockmodel::log_likelihood(chunked));
  for (blockmodel::BlockId b = 0; b < 7; ++b) {
    EXPECT_EQ(whole.degree_out(b), chunked.degree_out(b));
    EXPECT_EQ(whole.degree_in(b), chunked.degree_in(b));
    EXPECT_EQ(whole.block_size(b), chunked.block_size(b));
  }
  EXPECT_TRUE(chunked.check_consistency(graph));
}

TEST(OocFit, ProducesValidPartition) {
  const graph::Graph graph = community_graph();
  OocConfig config = test_config();
  int releases = 0;
  config.release_cache = [&releases] { ++releases; };

  const OocResult result = fit(graph, config);
  ASSERT_EQ(result.assignment.size(),
            static_cast<std::size_t>(graph.num_vertices()));
  ASSERT_GE(result.num_blocks, 1);
  std::vector<bool> used(static_cast<std::size_t>(result.num_blocks), false);
  for (const std::int32_t block : result.assignment) {
    ASSERT_GE(block, 0);
    ASSERT_LT(block, result.num_blocks);
    used[static_cast<std::size_t>(block)] = true;
  }
  for (std::size_t b = 0; b < used.size(); ++b) {
    EXPECT_TRUE(used[b]) << "label space not dense at " << b;
  }
  EXPECT_GT(releases, 0);  // the chunk hooks actually fired
  EXPECT_EQ(result.pieces_planned, 3);
  EXPECT_GT(result.skeleton_vertices, 0);
  EXPECT_GT(result.timings.total_seconds, 0.0);
}

TEST(OocFit, DeterministicInSeed) {
  const graph::Graph graph = community_graph();
  const OocConfig config = test_config();
  const OocResult a = fit(graph, config);
  const OocResult b = fit(graph, config);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.mdl, b.mdl);
}

TEST(OocFit, MmapViewEqualsInMemoryView) {
  const graph::Graph graph = community_graph();
  const std::string path = temp_path("fit_equality.csr");
  graph::write_binary_csr(graph, path);
  const graph::MmapGraph mapped(path);

  OocConfig config = test_config();
  const OocResult in_memory = fit(graph, config);
  // Same pipeline over the mapped file, with real page eviction between
  // chunks: the eviction hook must not change a single label.
  config.release_cache = [&mapped] { mapped.evict(); };
  const OocResult over_mmap = fit(mapped.view(), config);

  EXPECT_EQ(in_memory.assignment, over_mmap.assignment);
  EXPECT_EQ(in_memory.num_blocks, over_mmap.num_blocks);
  EXPECT_EQ(in_memory.mdl, over_mmap.mdl);
  fs::remove(path);
}

TEST(OocFit, QualityNearInMemoryBaseline) {
  const graph::Graph graph = community_graph();
  OocConfig config = test_config();

  sbp::SbpConfig baseline_config = config.base;
  const sbp::SbpResult baseline = sbp::run(graph, baseline_config);
  const OocResult ooc = fit(graph, config);

  // The divide-and-conquer fit must land close to the full fit on a
  // well-separated planted partition (deterministic seeds, so this is a
  // regression bound rather than a statistical one).
  const double agreement = metrics::nmi(baseline.assignment, ooc.assignment);
  EXPECT_GE(agreement, 0.7) << "baseline blocks=" << baseline.num_blocks
                            << " ooc blocks=" << ooc.num_blocks;
  EXPECT_LE(ooc.mdl, 1.10 * baseline.mdl);
}

TEST(OocFit, RejectsBadConfig) {
  const graph::Graph graph = community_graph();
  OocConfig config = test_config();
  config.skeleton_fraction = 0.0;
  EXPECT_THROW(fit(graph, config), std::invalid_argument);
  config = test_config();
  config.skeleton_fraction = 1.5;
  EXPECT_THROW(fit(graph, config), std::invalid_argument);
  config = test_config();
  config.finetune_max_iterations = -1;
  EXPECT_THROW(fit(graph, config), std::invalid_argument);
  config = test_config();
  config.chunk_vertices = 0;
  EXPECT_THROW(fit(graph, config), std::invalid_argument);
  EXPECT_THROW(fit(graph::Graph(), test_config()), std::invalid_argument);
}

/// A skeleton of one vertex has no edges: stage 1 keeps it in its own
/// block (the SamBaS fallback) instead of handing sbp::run an edgeless
/// graph. A full graph with no edges is still rejected up front.
TEST(OocFit, EdgelessSkeletonFallsBackToIdentity) {
  std::vector<graph::Edge> edges;
  for (const auto& edge : community_graph().edges()) {
    if (edge.first != edge.second) edges.push_back(edge);
  }
  const graph::Graph graph = graph::Graph::from_edges(600, edges);
  OocConfig config = test_config();
  config.skeleton_fraction = 1e-6;  // one vertex

  const OocResult result = fit(graph, config);
  EXPECT_EQ(result.skeleton_vertices, 1);
  EXPECT_EQ(result.skeleton_edges, 0);
  ASSERT_EQ(result.assignment.size(),
            static_cast<std::size_t>(graph.num_vertices()));
  ASSERT_GE(result.num_blocks, 1);
  for (const std::int32_t block : result.assignment) {
    EXPECT_GE(block, 0);
    EXPECT_LT(block, result.num_blocks);
  }
  EXPECT_THROW(fit(graph::Graph::from_edges(5, {}), config),
               std::invalid_argument);
}

/// `base.num_threads` holds for every stage: a run pinned to one thread
/// under a 3-thread default is the run made at a default of one.
TEST(OocFit, NumThreadsCoversEveryStage) {
  const graph::Graph graph = community_graph();
  OocConfig config = test_config();
  config.base.num_threads = 0;
  OocResult at_one;
  {
    const util::ScopedThreads one(1);
    at_one = fit(graph, config);
  }
  const util::ScopedThreads three(3);
  config.base.num_threads = 1;
  const OocResult pinned = fit(graph, config);
  EXPECT_EQ(pinned.assignment, at_one.assignment);
  EXPECT_EQ(pinned.num_blocks, at_one.num_blocks);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pinned.mdl),
            std::bit_cast<std::uint64_t>(at_one.mdl));
  EXPECT_EQ(pinned.finetune_moves, at_one.finetune_moves);
}

TEST(OocFit, SinglePieceSkipsRefitStage) {
  const graph::Graph graph = community_graph();
  OocConfig config = test_config();
  config.pieces = 1;
  const OocResult result = fit(graph, config);
  EXPECT_EQ(result.pieces_planned, 1);
  EXPECT_EQ(result.pieces_refit, 0);
  ASSERT_EQ(result.assignment.size(),
            static_cast<std::size_t>(graph.num_vertices()));
}

}  // namespace
}  // namespace hsbp::ooc

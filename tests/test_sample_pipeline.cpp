#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "generator/dcsbm.hpp"
#include "metrics/metrics.hpp"
#include "sample/extrapolate.hpp"
#include "sample/sample_sbp.hpp"
#include "sbp/sbp.hpp"

namespace hsbp::sample {
namespace {

using graph::Graph;
using graph::Vertex;

generator::GeneratedGraph planted(std::uint64_t seed) {
  generator::DcsbmParams p;
  p.num_vertices = 300;
  p.num_communities = 5;
  p.num_edges = 3000;
  p.ratio_within_between = 5.0;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

TEST(Extrapolate, SampledKeepLabelsNeighborsJoinPlurality) {
  //   0──1   sampled: {0, 1, 2} with blocks {0, 0, 1};
  //   │      3 touches 0 and 1 (block 0 twice) and 2 (block 1 once).
  //   2   4 is isolated → fallback = largest block (0).
  const Graph g = Graph::from_edges(
      5, {{{0, 1}, {0, 2}, {3, 0}, {3, 1}, {2, 3}}});
  SampledGraph sampled;
  sampled.to_full = {0, 1, 2};
  sampled.to_sample = {0, 1, 2, -1, -1};
  const std::vector<std::int32_t> labels = {0, 0, 1};

  const auto out = extrapolate(g, sampled, labels, 2);
  EXPECT_EQ(out.assignment, (std::vector<std::int32_t>{0, 0, 1, 0, 0}));
  EXPECT_EQ(out.frontier_assigned, 1);
  EXPECT_EQ(out.isolated_assigned, 1);
}

TEST(Extrapolate, ChainsPropagateThroughUnsampledVertices) {
  // 0 (sampled) — 1 — 2 — 3: the whole chain inherits block 0 via BFS.
  const Graph g = Graph::from_edges(4, {{{0, 1}, {1, 2}, {2, 3}}});
  SampledGraph sampled;
  sampled.to_full = {0};
  sampled.to_sample = {0, -1, -1, -1};
  const auto out = extrapolate(g, sampled, std::vector<std::int32_t>{0}, 1);
  EXPECT_EQ(out.assignment, (std::vector<std::int32_t>{0, 0, 0, 0}));
  EXPECT_EQ(out.frontier_assigned, 3);
  EXPECT_EQ(out.isolated_assigned, 0);
}

TEST(Extrapolate, ReleaseHookFiresEveryPeriod) {
  // 0 (sampled) — 1 — … — 9: the BFS dequeues all ten vertices, so a
  // period of 3 fires after dequeues 3, 6 and 9.
  std::vector<graph::Edge> path;
  for (Vertex v = 0; v + 1 < 10; ++v) path.emplace_back(v, v + 1);
  const Graph g = Graph::from_edges(10, path);
  SampledGraph sampled;
  sampled.to_full = {0};
  sampled.to_sample.assign(10, -1);
  sampled.to_sample[0] = 0;
  const std::vector<std::int32_t> labels = {0};

  int releases = 0;
  const auto hooked =
      extrapolate(g, sampled, labels, 1, [&releases] { ++releases; }, 3);
  EXPECT_EQ(releases, 3);
  EXPECT_EQ(hooked.assignment, extrapolate(g, sampled, labels, 1).assignment);
  EXPECT_THROW(extrapolate(g, sampled, labels, 1, [] {}, 0),
               std::invalid_argument);
}

TEST(Extrapolate, Validation) {
  const Graph g = Graph::from_edges(3, {{{0, 1}, {1, 2}}});
  SampledGraph sampled;
  sampled.to_full = {0, 1};
  sampled.to_sample = {0, 1, -1};
  EXPECT_THROW(extrapolate(g, sampled, std::vector<std::int32_t>{0}, 1),
               std::invalid_argument);  // size mismatch
  EXPECT_THROW(
      extrapolate(g, sampled, std::vector<std::int32_t>{0, 5}, 2),
      std::invalid_argument);  // label outside [0, C)
  EXPECT_THROW(
      extrapolate(g, sampled, std::vector<std::int32_t>{0, 1}, 0),
      std::invalid_argument);  // no blocks
}

TEST(SamplePipeline, Validation) {
  const auto g = planted(31);
  SampleConfig config;
  config.fraction = 0.0;
  EXPECT_THROW(run(g.graph, config), std::invalid_argument);
  config.fraction = 1.5;
  EXPECT_THROW(run(g.graph, config), std::invalid_argument);
  config.fraction = 0.5;
  config.finetune_max_iterations = -1;
  EXPECT_THROW(run(g.graph, config), std::invalid_argument);
  EXPECT_THROW(run(Graph(), SampleConfig{}), std::invalid_argument);
}

TEST(SamplePipeline, CoversEveryVertexWithValidBlocks) {
  const auto g = planted(32);
  for (const SamplerKind kind : all_sampler_kinds()) {
    SampleConfig config;
    config.base.variant = sbp::Variant::Hybrid;
    config.base.seed = 3;
    config.sampler = kind;
    config.fraction = 0.3;
    const auto result = run(g.graph, config);

    ASSERT_EQ(result.assignment.size(),
              static_cast<std::size_t>(g.graph.num_vertices()));
    for (const std::int32_t block : result.assignment) {
      EXPECT_GE(block, 0);
      EXPECT_LT(block, result.num_blocks);
    }
    EXPECT_EQ(result.sample_vertices,
              sample_size(g.graph.num_vertices(), config.fraction));
    // Everything unsampled was labeled by exactly one of the two paths.
    EXPECT_EQ(result.frontier_assigned + result.isolated_assigned,
              g.graph.num_vertices() - result.sample_vertices);
    EXPECT_GT(result.timings.total_seconds, 0.0);
    EXPECT_GE(result.timings.partition_seconds, 0.0);
    EXPECT_GE(result.timings.finetune_seconds, 0.0);
  }
}

TEST(SamplePipeline, HalfSampleKeepsNinetyPercentOfFullQuality) {
  const auto g = planted(33);

  sbp::SbpConfig full_config;
  full_config.variant = sbp::Variant::Hybrid;
  full_config.seed = 7;
  full_config.num_threads = 1;  // fixed thread count: the determinism contract
  const auto full = sbp::run(g.graph, full_config);
  const double full_nmi = metrics::nmi(g.ground_truth, full.assignment);

  SampleConfig config;
  config.base = full_config;
  config.sampler = SamplerKind::DegreeWeighted;
  config.fraction = 0.5;
  const auto pipeline = run(g.graph, config);
  const double pipeline_nmi =
      metrics::nmi(g.ground_truth, pipeline.assignment);

  EXPECT_GE(pipeline_nmi, 0.9 * full_nmi);
  // The MCMC-heavy stage really ran on the half-size subgraph.
  EXPECT_EQ(pipeline.sample_vertices, 150);
}

TEST(SamplePipeline, FullFractionMatchesPlainRunQuality) {
  const auto g = planted(34);

  sbp::SbpConfig base;
  base.variant = sbp::Variant::Hybrid;
  base.seed = 11;
  base.num_threads = 1;  // fixed thread count: the determinism contract
  const auto plain = sbp::run(g.graph, base);

  SampleConfig config;
  config.base = base;
  config.fraction = 1.0;
  const auto pipeline = run(g.graph, config);

  // frac = 1.0: the subgraph fit IS the plain run (identical graph and
  // seed); fine-tune then keeps the better of pre/post MDL.
  EXPECT_LE(pipeline.mdl, plain.mdl + 1e-6);
  const double plain_nmi = metrics::nmi(g.ground_truth, plain.assignment);
  const double pipeline_nmi =
      metrics::nmi(g.ground_truth, pipeline.assignment);
  EXPECT_GE(pipeline_nmi, plain_nmi - 0.05);
  EXPECT_EQ(pipeline.sample_vertices, g.graph.num_vertices());
  EXPECT_EQ(pipeline.frontier_assigned, 0);
  EXPECT_EQ(pipeline.isolated_assigned, 0);
}

TEST(SamplePipeline, SeedDeterministicAcrossAllSamplers) {
  const auto g = planted(35);
  for (const SamplerKind kind : all_sampler_kinds()) {
    SampleConfig config;
    config.base.variant = sbp::Variant::Metropolis;
    config.base.seed = 21;
    config.sampler = kind;
    config.fraction = 0.4;
    const auto a = run(g.graph, config);
    const auto b = run(g.graph, config);
    EXPECT_EQ(a.assignment, b.assignment) << sampler_name(kind);
    EXPECT_EQ(a.num_blocks, b.num_blocks);
    EXPECT_DOUBLE_EQ(a.mdl, b.mdl);
  }
}

TEST(SamplePipeline, FinetuneDisabledStillCoversGraph) {
  const auto g = planted(36);
  SampleConfig config;
  config.base.seed = 4;
  config.fraction = 0.4;
  config.finetune_max_iterations = 0;
  const auto result = run(g.graph, config);
  ASSERT_EQ(result.assignment.size(),
            static_cast<std::size_t>(g.graph.num_vertices()));
  EXPECT_EQ(result.finetune.iterations, 0);
  EXPECT_EQ(result.timings.finetune_seconds, 0.0);
  for (const std::int32_t block : result.assignment) {
    EXPECT_GE(block, 0);
    EXPECT_LT(block, result.num_blocks);
  }
}

TEST(SamplePipeline, TinyFractionWithEdgelessSampleStillWorks) {
  // 2 vertices sampled out of 300 will often induce zero edges; the
  // pipeline must fall back to identity blocks and still cover the
  // graph after extrapolation + fine-tune.
  const auto g = planted(37);
  SampleConfig config;
  config.base.seed = 9;
  config.sampler = SamplerKind::UniformRandom;
  config.fraction = 0.007;  // 3 vertices
  const auto result = run(g.graph, config);
  ASSERT_EQ(result.assignment.size(),
            static_cast<std::size_t>(g.graph.num_vertices()));
  for (const std::int32_t block : result.assignment) {
    EXPECT_GE(block, 0);
    EXPECT_LT(block, result.num_blocks);
  }
}

}  // namespace
}  // namespace hsbp::sample

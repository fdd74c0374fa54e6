#include "sample/sample_sbp.hpp"

#include <omp.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "blockmodel/mdl.hpp"
#include "ckpt/shutdown.hpp"
#include "util/logger.hpp"
#include "util/omp_region.hpp"
#include "util/timer.hpp"

namespace hsbp::sample {

using blockmodel::Blockmodel;
using graph::Graph;
using graph::Vertex;

namespace {

void validate(const Graph& graph, const SampleConfig& config) {
  if (graph.num_vertices() <= 0) {
    throw std::invalid_argument("sample::run: empty graph");
  }
  if (graph.num_edges() <= 0) {
    throw std::invalid_argument("sample::run: graph has no edges");
  }
  if (!(config.fraction > 0.0) || config.fraction > 1.0) {
    throw std::invalid_argument("sample::run: fraction in (0, 1]");
  }
  if (config.finetune_max_iterations < 0) {
    throw std::invalid_argument(
        "sample::run: finetune_max_iterations >= 0");
  }
}

/// Stage 4: bounded full-graph MCMC passes with the variant's own phase
/// kernel, converging on the same ΔMDL window rule as the core driver.
sbp::PhaseOutcome finetune(const Graph& graph, Blockmodel& model,
                           const SampleConfig& config) {
  sbp::McmcSettings settings;
  settings.beta = config.base.beta;
  settings.threshold = kFinetuneThreshold;
  settings.max_iterations = config.finetune_max_iterations;

  // An independent deterministic stream: the sampler consumed
  // Rng(seed), the subgraph fit consumed RngPool(seed).
  util::SplitMix64 mix(config.base.seed);
  mix.next();
  util::RngPool rngs(mix.next(),
                     static_cast<std::size_t>(
                         std::max(1, omp_get_max_threads())));

  return sbp::run_mcmc_phase(graph, model, config.base, settings,
                             sbp::hybrid_split(graph, config.base), rngs);
}

}  // namespace

sbp::SbpResult partition_sample(const Graph& subgraph,
                                const sbp::SbpConfig& base,
                                const ckpt::CheckpointConfig& checkpoint) {
  if (subgraph.num_edges() > 0) return sbp::run(subgraph, base, checkpoint);
  sbp::SbpResult identity;
  identity.assignment.resize(
      static_cast<std::size_t>(subgraph.num_vertices()));
  std::iota(identity.assignment.begin(), identity.assignment.end(), 0);
  identity.num_blocks = subgraph.num_vertices();
  return identity;
}

SamplePipelineResult run(const Graph& graph, const SampleConfig& config) {
  return run(graph, config, ckpt::CheckpointConfig{});
}

SamplePipelineResult run(const Graph& graph, const SampleConfig& config,
                         const ckpt::CheckpointConfig& ck) {
  validate(graph, config);
  const util::ScopedThreads threads(config.base.num_threads);

  util::Timer total;
  SamplePipelineResult result;

  // Stage 1 — sample. Deterministic in the seed and cheap, so a resume
  // replays it (the id maps are needed for extrapolation either way).
  util::Timer stage;
  const SampledGraph sampled = sample_graph(
      graph, config.sampler, config.fraction, config.base.seed);
  result.timings.sample_seconds = stage.elapsed();
  result.sample_vertices = sampled.subgraph.num_vertices();
  result.sample_edges = sampled.subgraph.num_edges();

  // Stage 2 — partition the induced subgraph with the configured
  // variant. Its sbp-run snapshot is the pipeline's only durable state:
  // a resume continues the fit, or returns at once from a finished
  // search, once sbp::run has matched the replayed subgraph's
  // fingerprint, the variant, the seed and the RNG stream count.
  stage.reset();
  result.sample_result = partition_sample(sampled.subgraph, config.base, ck);
  result.timings.partition_seconds = stage.elapsed();

  // Stage 3 — extrapolate memberships to the unsampled remainder (one
  // BFS, replayed on resume).
  stage.reset();
  ExtrapolationResult extrapolated =
      extrapolate(graph, sampled, result.sample_result.assignment,
                  result.sample_result.num_blocks);
  Blockmodel model = Blockmodel::from_assignment(
      graph, extrapolated.assignment, extrapolated.num_blocks);
  result.timings.extrapolate_seconds = stage.elapsed();
  result.frontier_assigned = extrapolated.frontier_assigned;
  result.isolated_assigned = extrapolated.isolated_assigned;

  const double extrapolated_mdl =
      blockmodel::mdl(model, graph.num_vertices(), graph.num_edges());
  result.assignment = std::move(extrapolated.assignment);
  result.num_blocks = extrapolated.num_blocks;
  result.mdl = extrapolated_mdl;

  // Stage 4 — fine-tune over the full graph; keep the better of the
  // pre/post partitions so the stage can never lose quality (an MH pass
  // may accept uphill moves and stop there). Bounded and deterministic
  // in the seed, so a resume replays it rather than restoring it. A
  // graceful shutdown skips it and hands back the extrapolated
  // best-so-far; the fit's snapshot is what a resume continues.
  if (result.sample_result.interrupted || ckpt::shutdown_requested()) {
    result.interrupted = true;
  } else if (config.finetune_max_iterations > 0) {
    stage.reset();
    const sbp::PhaseOutcome outcome = finetune(graph, model, config);
    result.finetune = outcome.stats;
    if (outcome.stats.final_mdl <= extrapolated_mdl) {
      result.assignment = model.copy_assignment();
      result.mdl = outcome.stats.final_mdl;
    }
    result.timings.finetune_seconds = stage.elapsed();
  }

  result.timings.total_seconds = total.elapsed();
  HSBP_LOG_DEBUG("sample pipeline: %s frac %.2f sample V=%d E=%lld "
                 "blocks %d mdl %.2f",
                 sampler_name(config.sampler), config.fraction,
                 result.sample_vertices,
                 static_cast<long long>(result.sample_edges),
                 result.num_blocks, result.mdl);
  return result;
}

}  // namespace hsbp::sample

/// \file sample_sbp.hpp
/// \brief The SamBaS pipeline (arXiv:2108.06651) on top of sbp::run:
///
///   sample ──▶ partition (any sbp::Variant) ──▶ extrapolate ──▶ fine-tune
///
/// The expensive agglomerative fit runs only on the induced sample
/// subgraph; memberships are extrapolated to the rest of the graph and
/// polished by a bounded number of full-graph MCMC passes (the same
/// phase kernels as the core algorithms). Because stage 2 takes a full
/// SbpConfig, the pipeline composes with every variant — H-SBP or B-SBP
/// on the sample is the paper-lineage configuration.
///
/// Typical use:
/// \code
///   hsbp::sample::SampleConfig config;
///   config.base.variant = hsbp::sbp::Variant::Hybrid;
///   config.fraction = 0.3;
///   const auto result = hsbp::sample::run(graph, config);
///   // result.assignment covers every vertex of `graph`
///   // result.timings has the per-stage breakdown
/// \endcode
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/config.hpp"
#include "sample/extrapolate.hpp"
#include "sample/samplers.hpp"
#include "sbp/mcmc_common.hpp"
#include "sbp/sbp.hpp"

namespace hsbp::sample {

/// Convergence threshold t of this pipeline's and ooc::fit's fine-tune.
inline constexpr double kFinetuneThreshold = 1e-4;

struct SampleConfig {
  /// Variant, seed, threads, β, … used for the sample fit; the seed also
  /// drives the sampler, and β/threads the fine-tune passes.
  sbp::SbpConfig base;

  SamplerKind sampler = SamplerKind::DegreeWeighted;

  /// Fraction of vertices sampled, in (0, 1]. 1.0 degenerates to a plain
  /// full-graph fit (plus fine-tune, which can only keep or lower MDL).
  double fraction = 0.5;

  /// Upper bound on full-graph fine-tune MCMC passes (0 disables the
  /// stage; the convergence window can stop it earlier).
  int finetune_max_iterations = 20;
};

/// Wall-clock seconds per pipeline stage (the sampling counterpart of
/// the paper's Fig. 2 phase breakdown).
struct StageTimings {
  double sample_seconds = 0.0;
  double partition_seconds = 0.0;
  double extrapolate_seconds = 0.0;
  double finetune_seconds = 0.0;
  double total_seconds = 0.0;
};

struct SamplePipelineResult {
  /// Full-graph membership: every vertex in [0, num_blocks).
  std::vector<std::int32_t> assignment;
  blockmodel::BlockId num_blocks = 0;
  double mdl = 0.0;  ///< full-graph MDL of `assignment`

  StageTimings timings;

  graph::Vertex sample_vertices = 0;    ///< induced subgraph size
  graph::EdgeCount sample_edges = 0;
  sbp::SbpResult sample_result;         ///< stage-2 fit of the subgraph
  std::int64_t frontier_assigned = 0;   ///< extrapolated via BFS plurality
  std::int64_t isolated_assigned = 0;   ///< extrapolated via fallback block
  sbp::McmcPhaseStats finetune;         ///< stage-4 counters
  /// True when a graceful shutdown cut the pipeline short; `assignment`
  /// is still a full-graph partition (extrapolated from the best
  /// sample fit so far) and the fit's on-disk snapshot is resumable.
  bool interrupted = false;
};

/// Stage 2, also ooc::fit's skeleton fit: sbp::run on the sample. A
/// sample with no edges has nothing to fit, so every sampled vertex
/// keeps its own block and the fine-tune does the merging.
sbp::SbpResult partition_sample(const graph::Graph& subgraph,
                                const sbp::SbpConfig& base,
                                const ckpt::CheckpointConfig& checkpoint = {});

/// Runs the full pipeline. Deterministic in config.base.seed (sampler,
/// subgraph fit, and fine-tune all derive from it).
/// \throws std::invalid_argument on an empty graph, fraction outside
/// (0, 1], or negative finetune_max_iterations.
SamplePipelineResult run(const graph::Graph& graph,
                         const SampleConfig& config);

/// Same, with durability: `checkpoint` goes straight to the stage-2
/// subgraph fit, whose sbp-run snapshot is the pipeline's only durable
/// state. Sampling, extrapolation and fine-tune depend only on the
/// seed, so a resume replays them around the restored fit; a
/// killed-and-resumed seeded pipeline reproduces the uninterrupted
/// result exactly. A resume is accepted exactly when that replay is
/// valid: the replayed subgraph's fingerprint, the variant, the seed
/// and the RNG stream count (`--threads`) must match the snapshot. A
/// sample with no edges has no fit to store, so nothing is written and
/// a resume replays it.
/// \throws util::IoError / util::DataError as sbp::run's checkpointing
/// overload does.
SamplePipelineResult run(const graph::Graph& graph,
                         const SampleConfig& config,
                         const ckpt::CheckpointConfig& checkpoint);

}  // namespace hsbp::sample

/// \file sbp.hpp
/// \brief Public entry point: stochastic block partitioning, its two
/// parallel MCMC variants from the paper, and the batched variant its
/// conclusion proposes.
///
///   Variant::Metropolis   — baseline SBP (paper Alg. 2): serial
///                           Metropolis-Hastings MCMC phase.
///   Variant::AsyncGibbs   — A-SBP (paper Alg. 3): one parallel pass per
///                           iteration against a stale blockmodel,
///                           blockmodel update at pass end.
///   Variant::Hybrid       — H-SBP (paper Alg. 4): high-degree vertices
///                           serial-first, the rest asynchronous.
///   Variant::BatchedGibbs — B-SBP: A-SBP's pass cut into K slices, the
///                           blockmodel updated after each.
///
/// Typical use:
/// \code
///   hsbp::sbp::SbpConfig config;
///   config.variant = hsbp::sbp::Variant::Hybrid;
///   config.seed = 42;
///   const auto result = hsbp::sbp::run(graph, config);
///   // result.assignment[v] is the community of vertex v
/// \endcode
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "ckpt/config.hpp"
#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "sbp/mcmc_phases.hpp"
#include "sbp/vertex_selection.hpp"

namespace hsbp::sbp {

enum class Variant {
  Metropolis,    ///< baseline SBP
  AsyncGibbs,    ///< A-SBP
  Hybrid,        ///< H-SBP
  BatchedGibbs,  ///< B-SBP — the batched A-SBP the paper's conclusion
                 ///< proposes: update the blockmodel after every 1/K of
                 ///< a pass, bounding staleness without a serial pass
};

/// Human-readable name ("SBP", "A-SBP", "H-SBP", "B-SBP") as used in
/// the paper (B-SBP being the batched variant its conclusion proposes).
const char* variant_name(Variant variant) noexcept;

struct SbpConfig {
  Variant variant = Variant::Metropolis;

  /// Convergence thresholds t: the pass loop stops when the summed
  /// |ΔMDL| of the last 3 passes < t·|MDL|. The looser threshold applies
  /// before the golden-section bracket is established, the tighter one
  /// after (reference SBP behaviour).
  double mcmc_threshold_pre_bracket = 5e-4;
  double mcmc_threshold_post_bracket = 1e-4;

  /// Inverse temperature β in the acceptance min(1, e^{−βΔS}·H).
  double beta = 3.0;

  /// H-SBP: fraction of highest-degree vertices processed serially
  /// (paper uses 15 %).
  double hybrid_fraction = 0.15;

  /// H-SBP: how the serial vertex set is chosen (paper: Degree; the
  /// alternatives back the ablation of §3.2's influence assumptions).
  HybridSelection hybrid_selection = HybridSelection::Degree;

  /// B-SBP: batches per pass (1 degenerates to A-SBP). Each batch is
  /// one parallel sweep followed by the pass-end blockmodel update, so
  /// proposals are at most 1/batch_count of a pass stale.
  int batch_count = 4;

  std::uint64_t seed = 0;

  /// OpenMP threads for the parallel regions; 0 keeps the runtime
  /// default (OMP_NUM_THREADS).
  int num_threads = 0;

  /// Safety cap on outer (merge + MCMC) iterations.
  int max_outer_iterations = 120;
};

/// Counters and timings gathered during a run; the source of every
/// speedup/iteration figure in the bench harness.
struct SbpStats {
  double block_merge_seconds = 0.0;  ///< all block-merge phases
  double mcmc_seconds = 0.0;         ///< all MCMC phases
  double total_seconds = 0.0;        ///< whole run
  std::int64_t outer_iterations = 0; ///< merge+MCMC rounds
  std::int64_t mcmc_iterations = 0;  ///< total MCMC passes over vertices
  std::int64_t proposals = 0;        ///< vertex proposals evaluated
  std::int64_t accepted_moves = 0;   ///< proposals accepted
  /// Vertex updates executed inside OpenMP-parallel loops vs. serially —
  /// the Amdahl accounting reported by EXPERIMENTS.md.
  std::int64_t parallel_updates = 0;
  std::int64_t serial_updates = 0;
};

struct SbpResult {
  std::vector<std::int32_t> assignment;  ///< community of each vertex
  blockmodel::BlockId num_blocks = 0;    ///< communities found
  double mdl = 0.0;                      ///< description length achieved
  SbpStats stats;
  /// True when a graceful shutdown (SIGINT/SIGTERM) cut the search
  /// short: `assignment`/`mdl` are the best-so-far partition and, if a
  /// checkpoint path was configured, a resumable snapshot was written.
  bool interrupted = false;
};

/// Runs the configured SBP variant to completion (golden-section search
/// over the number of communities until the bracket closes).
/// \throws std::invalid_argument on an empty graph or bad config values.
SbpResult run(const graph::Graph& graph, const SbpConfig& config);

/// Same, with durability: writes a versioned CRC-checksummed snapshot
/// of the full outer-loop state (golden bracket, RNG streams, counters)
/// to `checkpoint.save_path` every `checkpoint.every_phases` phases and
/// on graceful shutdown, and/or resumes from `checkpoint.resume_path`.
/// A resumed seeded run continues the exact chain: killed-and-resumed
/// equals uninterrupted, assignment and MDL alike (given the same
/// thread budget).
/// \throws util::IoError on checkpoint write/read failure and
/// util::DataError on a corrupt, truncated, version-mismatched, or
/// wrong-graph/wrong-config snapshot.
SbpResult run(const graph::Graph& graph, const SbpConfig& config,
              const ckpt::CheckpointConfig& checkpoint);

/// One MCMC phase as the golden-search loop runs it: refines `b` in
/// place, drawing from `rngs`.
using McmcPhase = std::function<PhaseOutcome(
    blockmodel::Blockmodel& b, const McmcSettings& settings,
    util::RngPool& rngs)>;

/// Same search as run(graph, config) with a caller-supplied MCMC phase
/// in place of `config.variant`'s (simulated D-SBP's rank-local phase).
/// The RNG pool has at least `min_streams` streams, and at least one per
/// thread; the merge phase draws from the same pool.
/// \throws std::invalid_argument as run(graph, config) does.
SbpResult run(const graph::Graph& graph, const SbpConfig& config,
              const McmcPhase& phase, std::size_t min_streams);

/// H-SBP's serial/asynchronous vertex split for `config`; empty for the
/// other variants.
graph::DegreeSplit hybrid_split(const graph::GraphView& graph,
                                const SbpConfig& config);

/// Runs one MCMC phase of `config.variant` on `b`: the Variant→phase
/// switch shared by run() and the SamBaS fine-tune. `split` is
/// hybrid_split(graph, config).
PhaseOutcome run_mcmc_phase(const graph::GraphView& graph,
                            blockmodel::Blockmodel& b,
                            const SbpConfig& config,
                            const McmcSettings& settings,
                            const graph::DegreeSplit& split,
                            util::RngPool& rngs);

}  // namespace hsbp::sbp

/// \file mcmc_phases.hpp
/// \brief The MCMC phases of the paper (Algs. 2–4) and B-SBP. Each
/// refines the blockmodel in place and reports pass/acceptance
/// counters; all four are plans over one pass loop (mcmc_phases.cpp,
/// DESIGN §1).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "blockmodel/blockmodel.hpp"
#include "graph/degree.hpp"
#include "graph/view.hpp"
#include "sbp/mcmc_common.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp {

namespace detail {
struct PassWorkspace;
}  // namespace detail

/// Extended phase counters including the Amdahl accounting (how many
/// vertex updates ran inside a parallel region vs. serially).
struct PhaseOutcome {
  McmcPhaseStats stats;
  std::int64_t parallel_updates = 0;
  std::int64_t serial_updates = 0;
};

/// Running totals of serial_sweep, accumulated across calls.
struct SweepTally {
  std::int64_t proposals = 0;
  std::int64_t accepted = 0;
};

/// The stop rule of every pass loop (the four plans, D-SBP and OOC
/// stage 4): runs `pass` up to settings.max_iterations times and stops
/// once the ConvergenceWindow closes on settings.threshold. A pass's
/// ΔMDL is the exact mdl() of `b` after it minus the one before it.
/// Sets stats' iterations and initial/final MDL; `pass` counts its own
/// proposals and moves.
void run_passes(const graph::GraphView& graph, const blockmodel::Blockmodel& b,
                const McmcSettings& settings, McmcPhaseStats& stats,
                const std::function<void()>& pass);

/// Serial Metropolis-Hastings sweep over `vertices`, in order, against
/// fresh state: accepted moves are applied in place, and mirrored into
/// `mirror` (the workspace of asynchronous slices that follow) if set.
void serial_sweep(const graph::GraphView& graph, blockmodel::Blockmodel& b,
                  std::span<const graph::Vertex> vertices, double beta,
                  util::Rng& rng, SweepTally& tally,
                  detail::PassWorkspace* mirror = nullptr);

/// Paper Alg. 2 — serial Metropolis-Hastings. Every accepted move
/// updates the blockmodel in place; proposals always see fresh state.
PhaseOutcome metropolis_hastings_phase(const graph::GraphView& graph,
                                       blockmodel::Blockmodel& b,
                                       const McmcSettings& settings,
                                       util::RngPool& rngs);

/// Paper Alg. 3 — asynchronous Gibbs (A-SBP). One OpenMP-parallel pass
/// per iteration: proposals are evaluated against the stale blockmodel
/// and a shared membership vector updated with relaxed atomics (other
/// threads' in-pass moves may or may not be visible — the "asynchronous"
/// in the name); the blockmodel is brought up to date at pass end.
PhaseOutcome async_gibbs_phase(const graph::GraphView& graph,
                               blockmodel::Blockmodel& b,
                               const McmcSettings& settings,
                               util::RngPool& rngs);

/// Paper Alg. 4 — hybrid (H-SBP): `split.high` (the top-degree vertices)
/// is processed first, serially and in place; `split.low` then runs as
/// one asynchronous pass; the blockmodel is brought up to date at pass
/// end.
PhaseOutcome hybrid_phase(const graph::GraphView& graph,
                          blockmodel::Blockmodel& b,
                          const McmcSettings& settings,
                          const graph::DegreeSplit& split,
                          util::RngPool& rngs);

/// B-SBP — the batched asynchronous Gibbs the paper's conclusion
/// proposes as future work: each pass is `batch_count` parallel sweeps
/// over random slices of the vertex set with a blockmodel update
/// between slices, bounding staleness to 1/batch_count of a pass with
/// no serial section at all.
PhaseOutcome batched_gibbs_phase(const graph::GraphView& graph,
                                 blockmodel::Blockmodel& b,
                                 const McmcSettings& settings,
                                 int batch_count, util::RngPool& rngs);

}  // namespace hsbp::sbp

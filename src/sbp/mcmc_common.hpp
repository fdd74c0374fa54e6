/// \file mcmc_common.hpp
/// \brief Machinery shared by the MCMC phases and the D-SBP pass: the
/// per-vertex propose/evaluate/accept step and the convergence window.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/vertex_move_delta.hpp"
#include "sbp/hastings.hpp"
#include "sbp/proposal.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp {

/// Per-phase knobs resolved by the driver (threshold depends on whether
/// the golden bracket is established).
struct McmcSettings {
  double beta = 3.0;
  double threshold = 1e-4;   ///< t in "ΔMDL < t × MDL"
  int max_iterations = 100;  ///< x in Algs. 2–4
};

/// Outcome of evaluating one vertex.
struct VertexOutcome {
  bool moved = false;                  ///< proposal accepted (and not a no-op)
  blockmodel::BlockId to = 0;          ///< destination (valid if moved)
  double delta_mdl = 0.0;              ///< ΔMDL of the accepted move
};

/// Counters accumulated by each phase and surfaced through SbpStats.
struct McmcPhaseStats {
  std::int64_t iterations = 0;  ///< passes over the vertex set
  std::int64_t proposals = 0;
  std::int64_t accepted = 0;
  double initial_mdl = 0.0;
  double final_mdl = 0.0;
};

/// One propose → ΔMDL → Hastings → accept step for vertex v, reading
/// memberships through `view` (see gather_neighbor_blocks_into). Does
/// NOT apply the move; the phase decides how (in-place vs. deferred).
/// All intermediate state lives in `scratch` (per-thread, reused), so
/// the step allocates nothing after warm-up.
///
/// `can_empty_block(from)` guard: moves that would empty their source
/// block are rejected (the block count is owned by the merge phase).
///
/// Early rejection (DESIGN §10): the move is accepted with probability
/// min(1, L·H), L = e^{−βΔMDL}. When L·Ĥ < 1 for the O(1) bound Ĥ ≥ H
/// of hastings_bound(), L·H < 1 too, so the uniform draw is certain to
/// be made; it is made first, and H is computed only if the draw falls
/// below L·Ĥ. Decisions and RNG consumption equal the plain rule's.
template <typename View>
VertexOutcome evaluate_vertex(const graph::GraphView& graph,
                              const blockmodel::Blockmodel& b,
                              const View& view, graph::Vertex v,
                              std::int32_t source_block_size, double beta,
                              util::Rng& rng,
                              blockmodel::MoveScratch& scratch) {
  VertexOutcome outcome;
  const blockmodel::BlockId from = view(v);
  if (source_block_size <= 1) return outcome;  // would empty the block

  blockmodel::gather_neighbor_blocks_into(graph, view, v, b.num_blocks(),
                                          scratch);
  const blockmodel::BlockId to =
      propose_block(b, scratch.nb, from, false, rng);
  if (to == from) return outcome;

  blockmodel::vertex_move_delta_into(b, from, to, scratch.nb, scratch);
  const double mdl_ratio = std::exp(-beta * scratch.delta_mdl);
  const double bound =
      mdl_ratio * hastings_bound(b, graph.num_edges(), from,
                                 scratch.nb.degree_total());
  bool accept;
  if (bound < 1.0) {  // false for NaN: those take the plain rule below
    const double u = rng.uniform();
    accept = u < bound &&
             u < mdl_ratio * hastings_correction(b, from, to, scratch);
  } else {
    const double acceptance =
        mdl_ratio * hastings_correction(b, from, to, scratch);
    accept = acceptance >= 1.0 || rng.uniform() < acceptance;
  }
  if (accept) {
    outcome.moved = true;
    outcome.to = to;
    outcome.delta_mdl = scratch.delta_mdl;
  }
  return outcome;
}

/// The paper's early-stopping rule: stop when the summed |ΔMDL| of the
/// last kWindow passes drops below threshold × |MDL|. Fixed-size ring
/// buffer with a running sum — recording a pass is O(1) and the window
/// never allocates (every variant touches it once per pass).
class ConvergenceWindow {
 public:
  explicit ConvergenceWindow(double threshold) : threshold_(threshold) {}

  /// Records one pass; returns true if the chain has converged.
  bool record(double pass_delta_mdl, double current_mdl) {
    const double value = std::fabs(pass_delta_mdl);
    if (filled_ == kWindow) {
      sum_ -= history_[head_];
    } else {
      ++filled_;
    }
    history_[head_] = value;
    head_ = (head_ + 1) % kWindow;
    sum_ += value;
    if (filled_ < kWindow) return false;
    return sum_ < threshold_ * std::fabs(current_mdl);
  }

 private:
  static constexpr std::size_t kWindow = 3;

  double threshold_;
  std::size_t head_ = 0;
  std::size_t filled_ = 0;
  double sum_ = 0.0;
  std::array<double, kWindow> history_{};
};

}  // namespace hsbp::sbp

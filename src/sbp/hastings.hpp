/// \file hastings.hpp
/// \brief Hastings correction for the asymmetric SBP proposal.
///
/// The proposal of proposal.hpp is not symmetric, so Metropolis-Hastings
/// acceptance needs the ratio p(s→r)/p(r→s). Following the reference
/// implementation, the per-neighbor-block terms are
///
///   p(r→s) ∝ Σ_t k_t · (M_ts + M_st + 1) / (d_t + C)
///   p(s→r) ∝ Σ_t k_t · (M'_tr + M'_rt + 1) / (d'_t + C)
///
/// with k_t the number of edges between the vertex and block t (either
/// direction, self-loops excluded), M' and d' the post-move matrix and
/// block degrees. The common 1/d_v factor cancels in the ratio.
#pragma once

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/vertex_move_delta.hpp"

namespace hsbp::sbp {

/// Returns p_backward / p_forward for the move `from` → `to` described
/// by `nb`/`delta`. Post-move cells are answered by a linear scan of
/// delta.cell_deltas per lookup — use the MoveScratch overload on the
/// hot path. \pre from != to; delta was computed for this move.
double hastings_correction(const blockmodel::Blockmodel& b,
                           const blockmodel::NeighborBlockCounts& nb,
                           blockmodel::BlockId from, blockmodel::BlockId to,
                           const blockmodel::MoveDelta& delta);

/// Same correction, reading the move description (neighbor counts,
/// staged cell values, count accumulators and corner deltas) from the
/// scratch a preceding gather + vertex_move_delta_into filled. This is
/// the batched hot path: per-term operands are staged into the
/// scratch's batch arrays (two matrix probes per term instead of four
/// — hence the non-const scratch; the move description itself is only
/// read) and reduced with util::simd::ratio_pair_sums — bit-identical
/// to the MoveDelta overload above. \pre from != to; scratch holds
/// that move's gather + delta.
double hastings_correction(const blockmodel::Blockmodel& b,
                           blockmodel::BlockId from, blockmodel::BlockId to,
                           blockmodel::MoveScratch& scratch);

/// O(1) upper bound Ĥ on hastings_correction() for a move of a vertex
/// with total degree `mover_degree` out of block `from`, to any block
/// (DESIGN §10, "Early rejection"). `num_edges` is E of the graph `b`
/// was built from, and the vertex's neighbor counts may be gathered
/// under a staler or fresher assignment than b's (A-SBP). Each forward
/// term is ≥ k_t/(2E + C) and each backward term ≤ k_t, except the
/// t = from term, ≤ k_t·(d_from + 1)/(d_from − mover_degree + C); the
/// bound is (2E + C)·max(1, that ratio), widened to cover rounding.
/// Returns +infinity when that denominator is ≤ 0 (no finite bound).
double hastings_bound(const blockmodel::Blockmodel& b,
                      graph::EdgeCount num_edges, blockmodel::BlockId from,
                      blockmodel::Count mover_degree);

}  // namespace hsbp::sbp

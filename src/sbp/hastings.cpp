#include "sbp/hastings.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

namespace hsbp::sbp {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using blockmodel::Count;
using blockmodel::MoveScratch;
using blockmodel::NeighborBlockCounts;

double hastings_correction(const Blockmodel& b, BlockId from, BlockId to,
                           MoveScratch& scratch) {
  assert(from != to);
  const NeighborBlockCounts& nb = scratch.nb;
  const std::size_t n_out = nb.out.size();
  if (n_out + nb.in.size() == 0) return 1.0;  // forward sum is 0

  // The per-term operands lean on the move description the preceding
  // vertex_move_delta_into left in the scratch: a non-corner out term
  // t owns cells (from,t) and (to,t) at a deterministic position in
  // the cell list (two cells per preceding non-corner term, in list
  // order), so M(to,t) and post-move M(from,t) are the staged
  // old/new values there; post-move M(t,from) is one probe minus the
  // gather's in_count(t). Symmetrically for in terms. That leaves two
  // matrix probes per term instead of four. The rare corner terms
  // (t ∈ {from, to}) read the corner deltas instead.
  const blockmodel::DictTransposeMatrix& m = b.matrix();
  const double c = static_cast<double>(b.num_blocks());
  const Count mover_degree = nb.degree_total();

  const Count* const old_vals = scratch.batch.old_vals.data();
  const Count* const new_vals = scratch.batch.new_vals.data();
  // Hoist a probe of each of the four lines every per-term lookup lands
  // in, instead of re-deriving the line through m.get() per lookup.
  const auto row_from = m.row_probe(from);
  const auto row_to = m.row_probe(to);
  const auto col_from = m.col_probe(from);
  const auto col_to = m.col_probe(to);

  // Both sums accumulate in the canonical strided-4 order (DESIGN §13)
  // over the out-then-in neighbor terms, as the reference kernels do.
  double fwd_lanes[4] = {0.0, 0.0, 0.0, 0.0};
  double bwd_lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t idx = 0;
  const auto add_term = [&](Count k, Count fwd_num, double fwd_den,
                            Count bwd_num, double bwd_den) {
    const double kd = static_cast<double>(k);
    fwd_lanes[idx & 3] += kd * (static_cast<double>(fwd_num) + 1.0) / fwd_den;
    bwd_lanes[idx & 3] += kd * (static_cast<double>(bwd_num) + 1.0) / bwd_den;
    ++idx;
  };

  // Corner terms (t ∈ {from, to}): all four post-move cells are corner
  // cells, whose deltas the preceding vertex_move_delta_into left in
  // the scratch — three hoisted line probes replace the generic
  // move_new_value branch ladder. Writing t as from/to explicitly also
  // collapses m.get(t,to)+m.get(to,t) to its symmetric form.
  const auto add_corner_term = [&](BlockId t, Count k) {
    const Count d_t = b.degree_total(t);
    Count fwd_num, bwd_num, bwd_d_t;
    if (t == from) {
      // forward: M(from,to) + M(to,from); backward: 2·post M(from,from)
      fwd_num = row_from.get(to) + row_to.get(from);
      bwd_num = 2 * (row_from.get(from) + scratch.corner_ff());
      bwd_d_t = d_t - mover_degree;
    } else {
      // forward: 2·M(to,to); backward: post M(to,from) + post M(from,to)
      fwd_num = 2 * row_to.get(to);
      bwd_num = (row_to.get(from) + scratch.corner_tf()) +
                (row_from.get(to) + scratch.corner_ft());
      bwd_d_t = d_t + mover_degree;
    }
    assert(fwd_num == m.get(t, to) + m.get(to, t));
    assert(bwd_num == blockmodel::move_new_value(b, scratch, t, from) +
                          blockmodel::move_new_value(b, scratch, from, t));
    add_term(k, fwd_num, static_cast<double>(d_t) + c, bwd_num,
             static_cast<double>(bwd_d_t) + c);
  };
  std::size_t cell = 0;  // replay of the cell-list layout
  for (const auto& [t, k] : nb.out) {
    if (t == from || t == to) {
      add_corner_term(t, k);
      continue;
    }
    // cells[cell] = (from,t), cells[cell+1] = (to,t)
    const Count post_t_from = col_from.get(t) - scratch.in_count(t);
    const Count post_from_t = new_vals[cell];
    assert(post_t_from == blockmodel::move_new_value(b, scratch, t, from));
    assert(post_from_t == blockmodel::move_new_value(b, scratch, from, t));
    // t ∉ {from, to}: block t's degree is unchanged by the move, so the
    // backward denominator equals the forward one bit-for-bit.
    const double den = static_cast<double>(b.degree_total(t)) + c;
    add_term(k, col_to.get(t) + old_vals[cell + 1], den,
             post_t_from + post_from_t, den);
    cell += 2;
  }
  for (const auto& [t, k] : nb.in) {
    if (t == from || t == to) {
      add_corner_term(t, k);
      continue;
    }
    // cells[cell] = (t,from), cells[cell+1] = (t,to)
    const Count post_t_from = new_vals[cell];
    const Count post_from_t = row_from.get(t) - scratch.out_count(t);
    assert(post_t_from == blockmodel::move_new_value(b, scratch, t, from));
    assert(post_from_t == blockmodel::move_new_value(b, scratch, from, t));
    const double den = static_cast<double>(b.degree_total(t)) + c;
    add_term(k, old_vals[cell + 1] + row_to.get(t), den,
             post_t_from + post_from_t, den);
    cell += 2;
  }

  const double forward =
      (fwd_lanes[0] + fwd_lanes[1]) + (fwd_lanes[2] + fwd_lanes[3]);
  const double backward =
      (bwd_lanes[0] + bwd_lanes[1]) + (bwd_lanes[2] + bwd_lanes[3]);
  if (forward <= 0.0) return 1.0;  // isolated vertex: symmetric proposal
  return backward / forward;
}

double hastings_bound(const Blockmodel& b, graph::EdgeCount num_edges,
                      BlockId from, Count mover_degree) {
  // The bound holds for the exact correction, but the one compared
  // against it is computed: at most 2C ≤ 2^32 terms, each rounded
  // twice and passed through ≤ 2^30 + 2 lane additions, then one
  // division — less than 2^-21 above the exact value. The 2^-20 slack
  // also covers the roundings below.
  constexpr double kSlack = 1.0 + 0x1p-20;
  const double c = static_cast<double>(b.num_blocks());
  const Count d_from = b.degree_total(from);
  const double from_den = static_cast<double>(d_from - mover_degree) + c;
  if (from_den <= 0.0) return std::numeric_limits<double>::infinity();
  const double from_ratio =
      std::max(1.0, (static_cast<double>(d_from) + 1.0) / from_den);
  return (2.0 * static_cast<double>(num_edges) + c) * from_ratio * kSlack;
}

}  // namespace hsbp::sbp

#include "sbp/hastings.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

#include "util/simd.hpp"

namespace hsbp::sbp {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using blockmodel::Count;
using blockmodel::MoveDelta;
using blockmodel::MoveScratch;
using blockmodel::NeighborBlockCounts;

namespace {

/// Shared accumulation over the neighbor blocks; `post_value(r, c)` must
/// return the post-move value of cell (r, c). Accumulates in the
/// canonical strided-4 order (util/simd.hpp) so this path, the batched
/// scratch path, and the reference kernels are bit-identical given
/// equal inputs.
template <typename PostValue>
double correction(const Blockmodel& b, const NeighborBlockCounts& nb,
                  BlockId from, BlockId to, const PostValue& post_value) {
  assert(from != to);
  const double c = static_cast<double>(b.num_blocks());
  const Count mover_degree = nb.degree_total();

  double fwd_lanes[4] = {0.0, 0.0, 0.0, 0.0};
  double bwd_lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t idx = 0;

  const auto accumulate = [&](BlockId t, Count k) {
    const double kd = static_cast<double>(k);

    // Forward: pre-move matrix and degrees.
    const double fwd_num = static_cast<double>(b.matrix().get(t, to) +
                                               b.matrix().get(to, t)) +
                           1.0;
    const double fwd_den = static_cast<double>(b.degree_total(t)) + c;
    fwd_lanes[idx & 3] += kd * fwd_num / fwd_den;

    // Backward: post-move matrix and degrees (only from/to degrees move).
    const double bwd_num =
        static_cast<double>(post_value(t, from) + post_value(from, t)) + 1.0;
    Count d_t = b.degree_total(t);
    if (t == from) d_t -= mover_degree;
    if (t == to) d_t += mover_degree;
    const double bwd_den = static_cast<double>(d_t) + c;
    bwd_lanes[idx & 3] += kd * bwd_num / bwd_den;
    ++idx;
  };

  for (const auto& [t, k] : nb.out) accumulate(t, k);
  for (const auto& [t, k] : nb.in) accumulate(t, k);

  const double forward =
      (fwd_lanes[0] + fwd_lanes[1]) + (fwd_lanes[2] + fwd_lanes[3]);
  const double backward =
      (bwd_lanes[0] + bwd_lanes[1]) + (bwd_lanes[2] + bwd_lanes[3]);
  if (forward <= 0.0) return 1.0;  // isolated vertex: symmetric proposal
  return backward / forward;
}

}  // namespace

double hastings_correction(const Blockmodel& b, const NeighborBlockCounts& nb,
                           BlockId from, BlockId to, const MoveDelta& delta) {
  return correction(b, nb, from, to, [&](BlockId r, BlockId c) {
    return delta.new_value(b, r, c);
  });
}

double hastings_correction(const Blockmodel& b, BlockId from, BlockId to,
                           MoveScratch& scratch) {
  assert(from != to);
  const NeighborBlockCounts& nb = scratch.nb;
  const std::size_t n_out = nb.out.size();
  const std::size_t n = n_out + nb.in.size();
  if (n == 0) return 1.0;  // no neighbor terms: forward sum is 0

  // Stage the per-term operands, then reduce both ratio sums with the
  // vector kernel — the division chain is the expensive part of this
  // correction, and ratio_pair_sums turns it into packed divides.
  //
  // Operand staging leans on the move description the preceding
  // vertex_move_delta_into left in the scratch: a non-corner out term
  // t owns cells (from,t) and (to,t) at a deterministic position in
  // the cell list (two cells per preceding non-corner term, in list
  // order), so M(to,t) and post-move M(from,t) are the staged
  // old/new values there; post-move M(t,from) is one probe minus the
  // gather's in_count(t). Symmetrically for in terms. That leaves two
  // matrix probes per term instead of four. The rare corner terms
  // (t ∈ {from, to}) take the generic move_new_value path.
  MoveScratch::BatchBuffers& batch = scratch.batch;
  const blockmodel::DictTransposeMatrix& m = b.matrix();
  if (batch.kd.size() < n) {
    batch.kd.resize(n);
    batch.fwd_num.resize(n);
    batch.fwd_den.resize(n);
    batch.bwd_num.resize(n);
    batch.bwd_den.resize(n);
  }

  const double c = static_cast<double>(b.num_blocks());
  const Count mover_degree = nb.degree_total();

  const Count* const old_vals = batch.old_vals.data();
  const Count* const new_vals = batch.new_vals.data();
  // Hoist a probe of each of the four lines every per-term lookup lands
  // in, instead of re-deriving the line through m.get() per lookup.
  const auto row_from = m.row_probe(from);
  const auto row_to = m.row_probe(to);
  const auto col_from = m.col_probe(from);
  const auto col_to = m.col_probe(to);

  // Corner terms (t ∈ {from, to}): all four post-move cells are corner
  // cells, whose deltas the preceding vertex_move_delta_into left in
  // the scratch — three hoisted line probes replace the generic
  // move_new_value branch ladder. Writing t as from/to explicitly also
  // collapses m.get(t,to)+m.get(to,t) to its symmetric form.
  const auto corner_prep = [&](BlockId t, Count k, std::size_t pos) {
    batch.kd[pos] = static_cast<double>(k);
    const Count d_t = b.degree_total(t);
    Count fwd_num, bwd_num;
    if (t == from) {
      // forward: M(from,to) + M(to,from); backward: 2·post M(from,from)
      fwd_num = row_from.get(to) + row_to.get(from);
      bwd_num = 2 * (row_from.get(from) + scratch.corner_ff());
      batch.bwd_den[pos] = static_cast<double>(d_t - mover_degree) + c;
    } else {
      // forward: 2·M(to,to); backward: post M(to,from) + post M(from,to)
      fwd_num = 2 * row_to.get(to);
      bwd_num = (row_to.get(from) + scratch.corner_tf()) +
                (row_from.get(to) + scratch.corner_ft());
      batch.bwd_den[pos] = static_cast<double>(d_t + mover_degree) + c;
    }
    assert(fwd_num == m.get(t, to) + m.get(to, t));
    assert(bwd_num == blockmodel::move_new_value(b, scratch, t, from) +
                          blockmodel::move_new_value(b, scratch, from, t));
    batch.fwd_num[pos] = static_cast<double>(fwd_num) + 1.0;
    batch.bwd_num[pos] = static_cast<double>(bwd_num) + 1.0;
    batch.fwd_den[pos] = static_cast<double>(d_t) + c;
  };
  std::size_t cell = 0;  // replay of the cell-list layout
  for (std::size_t i = 0; i < n_out; ++i) {
    const auto [t, k] = nb.out[i];
    if (t == from || t == to) {
      corner_prep(t, k, i);
      continue;
    }
    batch.kd[i] = static_cast<double>(k);
    // cells[cell] = (from,t), cells[cell+1] = (to,t)
    batch.fwd_num[i] =
        static_cast<double>(col_to.get(t) + old_vals[cell + 1]) + 1.0;
    const Count post_t_from = col_from.get(t) - scratch.in_count(t);
    const Count post_from_t = new_vals[cell];
    assert(post_t_from == blockmodel::move_new_value(b, scratch, t, from));
    assert(post_from_t == blockmodel::move_new_value(b, scratch, from, t));
    batch.bwd_num[i] = static_cast<double>(post_t_from + post_from_t) + 1.0;
    // t ∉ {from, to}: block t's degree is unchanged by the move, so the
    // backward denominator equals the forward one bit-for-bit.
    const double den = static_cast<double>(b.degree_total(t)) + c;
    batch.fwd_den[i] = den;
    batch.bwd_den[i] = den;
    cell += 2;
  }
  for (std::size_t j = 0; j < nb.in.size(); ++j) {
    const auto [t, k] = nb.in[j];
    const std::size_t pos = n_out + j;
    if (t == from || t == to) {
      corner_prep(t, k, pos);
      continue;
    }
    batch.kd[pos] = static_cast<double>(k);
    // cells[cell] = (t,from), cells[cell+1] = (t,to)
    batch.fwd_num[pos] =
        static_cast<double>(old_vals[cell + 1] + row_to.get(t)) + 1.0;
    const Count post_t_from = new_vals[cell];
    const Count post_from_t = row_from.get(t) - scratch.out_count(t);
    assert(post_t_from == blockmodel::move_new_value(b, scratch, t, from));
    assert(post_from_t == blockmodel::move_new_value(b, scratch, from, t));
    batch.bwd_num[pos] = static_cast<double>(post_t_from + post_from_t) + 1.0;
    const double den = static_cast<double>(b.degree_total(t)) + c;
    batch.fwd_den[pos] = den;
    batch.bwd_den[pos] = den;
    cell += 2;
  }

  double forward = 0.0;
  double backward = 0.0;
  util::simd::ratio_pair_sums(batch.kd.data(), batch.fwd_num.data(),
                              batch.fwd_den.data(), batch.bwd_num.data(),
                              batch.bwd_den.data(), n, &forward, &backward);
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

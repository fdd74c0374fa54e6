#include "blockmodel/merge_delta.hpp"

#include <cassert>
#include <cstddef>

#include "blockmodel/mdl.hpp"
#include "blockmodel/simd_kernels.hpp"
#include "blockmodel/vertex_move_delta.hpp"
#include "blockmodel/xlogx_table.hpp"

namespace hsbp::blockmodel {

double merge_delta_mdl(const Blockmodel& b, BlockId from, BlockId to,
                       graph::Vertex num_vertices,
                       graph::EdgeCount num_edges) {
  assert(from != to);
  const DictTransposeMatrix& m = b.matrix();

  // The off-corner fold terms — one per surviving entry of row `from`
  // then column `from` — have the shape xlogx(existing + value) −
  // xlogx(existing) − xlogx(value), with `existing` one lookup in the
  // `to` line (a dense mirror load when the matrix has one). The `from`
  // slices are iterated, so the term order is their entry order. Narrow
  // rows take a fused scalar loop; wide rows stage the three operand
  // streams into the thread scratch's batch arrays and reduce with the
  // batched xlogx kernel (table gathers). Both paths accumulate in the
  // canonical strided-4 order with the identical per-term expression,
  // so the choice cannot change bits.
  const FlatSlice& row_from = m.row(from);
  const FlatSlice& col_from = m.col(from);
  const auto row_to = m.row_probe(to);
  const auto col_to = m.col_probe(to);

  // Below this many candidate terms the staging stores plus the
  // out-of-line kernel call cost more than the table gathers save
  // (measured on the kernel bench fixture, ~30 terms per merge).
  constexpr std::size_t kFoldBatchMin = 48;
  double folded;
  if (row_from.size() + col_from.size() < kFoldBatchMin) {
    double lanes[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t idx = 0;
    for (const auto& [t, value] : row_from) {
      if (t == from || t == to) continue;
      const Count existing = row_to.get(t);
      lanes[idx & 3] += (xlogx_count(existing + value) -
                         xlogx_count(existing)) -
                        xlogx_count(value);
      ++idx;
    }
    for (const auto& [t, value] : col_from) {
      if (t == from || t == to) continue;
      const Count existing = col_to.get(t);
      lanes[idx & 3] += (xlogx_count(existing + value) -
                         xlogx_count(existing)) -
                        xlogx_count(value);
      ++idx;
    }
    folded = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  } else {
    MoveScratch& scratch = thread_move_scratch();
    MoveScratch::BatchBuffers& batch = scratch.batch;
    batch.fold_a.clear();
    batch.fold_b.clear();
    batch.fold_c.clear();

    for (const auto& [t, value] : row_from) {
      if (t == from || t == to) continue;
      const Count existing = row_to.get(t);
      batch.fold_a.push_back(existing + value);
      batch.fold_b.push_back(existing);
      batch.fold_c.push_back(value);
    }
    for (const auto& [t, value] : col_from) {
      if (t == from || t == to) continue;
      const Count existing = col_to.get(t);
      batch.fold_a.push_back(existing + value);
      batch.fold_b.push_back(existing);
      batch.fold_c.push_back(value);
    }
    folded =
        simd::merge_fold_sum(batch.fold_a.data(), batch.fold_b.data(),
                             batch.fold_c.data(), batch.fold_c.size());
  }

  // The four corner cells collapse into (to, to) — one scalar term,
  // added after the strided-4 fold (the order the reference mirrors).
  const Count ff = m.get(from, from);
  const Count ft = m.get(from, to);
  const Count tf = m.get(to, from);
  const Count tt = m.get(to, to);
  const double corner = xlogx_count(tt + ff + ft + tf) - xlogx_count(tt) -
                        xlogx_count(ff) - xlogx_count(ft) - xlogx_count(tf);
  const double delta_cells = folded + corner;

  // Degree terms: d(to) absorbs d(from).
  const auto merge_degrees = [](Count a, Count into) {
    return xlogx_count(into + a) - xlogx_count(into) - xlogx_count(a);
  };
  const double delta_degrees =
      merge_degrees(b.degree_out(from), b.degree_out(to)) +
      merge_degrees(b.degree_in(from), b.degree_in(to));

  const double delta_likelihood = delta_cells - delta_degrees;

  const double delta_model =
      model_description_length(num_vertices, num_edges, b.num_blocks() - 1) -
      model_description_length(num_vertices, num_edges, b.num_blocks());

  return delta_model - delta_likelihood;
}

}  // namespace hsbp::blockmodel

#include "blockmodel/merge_delta.hpp"

#include <cassert>
#include <cstddef>

#include "blockmodel/mdl.hpp"
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
  // slices are iterated, so the term order is their entry order, and
  // the terms accumulate in the canonical strided-4 order (DESIGN §13).
  const FlatSlice& row_from = m.row(from);
  const FlatSlice& col_from = m.col(from);
  const auto row_to = m.row_probe(to);
  const auto col_to = m.col_probe(to);

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
  const double folded = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);

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

#include "blockmodel/vertex_move_delta.hpp"

#include <algorithm>
#include <cassert>

#include "blockmodel/xlogx_table.hpp"

namespace hsbp::blockmodel {

MoveScratch& thread_move_scratch() noexcept {
  static thread_local MoveScratch scratch;
  return scratch;
}

NeighborBlockCounts gather_neighbor_blocks(
    const graph::GraphView& graph, std::span<const std::int32_t> assignment,
    graph::Vertex v) {
  // Cold path: size the tallies from the labels this gather reads.
  BlockId num_blocks = 0;
  for (const auto neighbors : {graph.out_neighbors(v), graph.in_neighbors(v)}) {
    for (const graph::Vertex u : neighbors) {
      num_blocks =
          std::max(num_blocks, assignment[static_cast<std::size_t>(u)] + 1);
    }
  }
  MoveScratch& scratch = thread_move_scratch();
  gather_neighbor_blocks_into(graph, FlatMembershipView{assignment.data()}, v,
                              num_blocks, scratch);
  return scratch.nb;
}

Count MoveDelta::new_value(const Blockmodel& b, BlockId row,
                           BlockId col) const {
  Count value = b.matrix().get(row, col);
  for (const CellDelta& cd : cell_deltas) {
    if (cd.row == row && cd.col == col) value += cd.delta;
  }
  return value;
}

void vertex_move_delta_into(const Blockmodel& b, BlockId from, BlockId to,
                            const NeighborBlockCounts& nb,
                            MoveScratch& scratch) {
  assert(from != to);
  auto& batch = scratch.batch;
  scratch.set_move(from, to);

  // Out-edges touch only rows from/to, in-edges only columns from/to,
  // and self-loops only the diagonal — so contributions can overlap
  // solely on the four corner cells {from,to}×{from,to}. Splitting
  // those four into scalar accumulators makes every other cell unique,
  // so the changed cells come out in one pass: non-corner out pairs,
  // then non-corner in pairs, then the nonzero corners. That order is
  // the canonical cell order (DESIGN §13) the reference kernels and the
  // Hastings replay both rely on.
  //
  // No cell list is kept: each cell's (pre, post) value pair is staged
  // in that order — one lookup through a hoisted from/to line probe per
  // cell (a dense mirror load when the matrix has one) — and its xlogx
  // term is summed as it is staged. The Hastings correction reads the
  // staged values back instead of looking the cells up again.
  // vertex_move_delta() rebuilds the list for the by-value API.
  const DictTransposeMatrix& m = b.matrix();
  const auto row_from = m.row_probe(from);
  const auto row_to = m.row_probe(to);
  const auto col_from = m.col_probe(from);
  const auto col_to = m.col_probe(to);
  const std::size_t max_cells = 2 * (nb.out.size() + nb.in.size()) + 4;
  if (batch.old_vals.size() < max_cells) {
    batch.old_vals.resize(max_cells);
    batch.new_vals.resize(max_cells);
  }
  // Terms accumulate in the canonical strided-4 order (DESIGN §13),
  // which the reference kernels mirror.
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t n = 0;
  const auto stage = [&](Count delta, Count old_v) {
    // A stale A-SBP view can stage a negative count: NaN, rejected (§13).
    const Count new_v = old_v + delta;
    batch.old_vals[n] = old_v;
    batch.new_vals[n] = new_v;
    lanes[n & 3] += xlogx_count(new_v) - xlogx_count(old_v);
    ++n;
  };

  Count ko_f = 0, ko_t = 0, ki_f = 0, ki_t = 0;
  for (const auto& [t, k] : nb.out) {
    if (t == from) {
      ko_f = k;
    } else if (t == to) {
      ko_t = k;
    } else {
      stage(-k, row_from.get(t));
      stage(+k, row_to.get(t));
    }
  }
  for (const auto& [t, k] : nb.in) {
    if (t == from) {
      ki_f = k;
    } else if (t == to) {
      ki_t = k;
    } else {
      stage(-k, col_from.get(t));
      stage(+k, col_to.get(t));
    }
  }
  const Count self = nb.self_loops;
  const Count d_ff = -(ko_f + ki_f + self);
  const Count d_tf = ko_f - ki_t;
  const Count d_ft = ki_f - ko_t;
  const Count d_tt = ko_t + ki_t + self;
  scratch.set_corners(d_ff, d_tf, d_ft, d_tt);
  if (d_ff != 0) stage(d_ff, row_from.get(from));
  if (d_tf != 0) stage(d_tf, row_to.get(from));
  if (d_ft != 0) stage(d_ft, row_from.get(to));
  if (d_tt != 0) stage(d_tt, row_to.get(to));

  const double delta_cells = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);

  const auto degree_delta = [](Count before_from, Count before_to, Count k) {
    return xlogx_count(before_from - k) - xlogx_count(before_from) +
           xlogx_count(before_to + k) - xlogx_count(before_to);
  };
  const double delta_degrees =
      degree_delta(b.degree_out(from), b.degree_out(to), nb.degree_out) +
      degree_delta(b.degree_in(from), b.degree_in(to), nb.degree_in);

  // ΔL = Δcells − Δdegrees; ΔMDL = −ΔL (model term unchanged).
  scratch.delta_mdl = -(delta_cells - delta_degrees);
}

Count move_new_value(const Blockmodel& b, const MoveScratch& scratch,
                     BlockId row, BlockId col) noexcept {
  const Count value = b.matrix().get(row, col);
  const BlockId from = scratch.move_from();
  const BlockId to = scratch.move_to();
  if (row == from) {
    if (col == from) return value + scratch.corner_ff();
    if (col == to) return value + scratch.corner_ft();
    return value - scratch.out_count(col);
  }
  if (row == to) {
    if (col == from) return value + scratch.corner_tf();
    if (col == to) return value + scratch.corner_tt();
    return value + scratch.out_count(col);
  }
  if (col == from) return value - scratch.in_count(row);
  if (col == to) return value + scratch.in_count(row);
  return value;
}

MoveDelta vertex_move_delta(const Blockmodel& b, BlockId from, BlockId to,
                            const NeighborBlockCounts& nb) {
  MoveScratch& scratch = thread_move_scratch();
  vertex_move_delta_into(b, from, to, nb, scratch);
  MoveDelta result;
  result.delta_mdl = scratch.delta_mdl;
  // The canonical cell order of vertex_move_delta_into's staging.
  auto& cells = result.cell_deltas;
  for (const auto& [t, k] : nb.out) {
    if (t == from || t == to) continue;
    cells.push_back({from, t, -k});
    cells.push_back({to, t, +k});
  }
  for (const auto& [t, k] : nb.in) {
    if (t == from || t == to) continue;
    cells.push_back({t, from, -k});
    cells.push_back({t, to, +k});
  }
  const CellDelta corners[] = {{from, from, scratch.corner_ff()},
                               {to, from, scratch.corner_tf()},
                               {from, to, scratch.corner_ft()},
                               {to, to, scratch.corner_tt()}};
  for (const CellDelta& corner : corners) {
    if (corner.delta != 0) cells.push_back(corner);
  }
  return result;
}

}  // namespace hsbp::blockmodel

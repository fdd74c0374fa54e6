/// \file reference_kernels.hpp
/// \brief Pre-optimization transcriptions of the MCMC hot-path kernels,
/// used only by the equivalence tests.
///
/// Each function here is the implementation that shipped before the
/// allocation-free rewrite (scratch arenas, flat per-block tallies,
/// xlogx table): allocate-per-call gather with O(k²) linear-scan
/// accumulation, vertex_move_delta with linear-scan cell dedup and live
/// std::log, MoveDelta::new_value via a cell-list scan, the Hastings
/// correction on top of it, and merge_delta_mdl with live std::log —
/// plus the blockmodel build's per-edge edge scan, down to the entry
/// order of every slice it fills. The optimized kernels must be
/// *bit-identical* to these — that is the contract that makes the
/// rewrite a pure performance change — so the tests compare results
/// with ==, not EXPECT_NEAR.
///
/// One deliberate departure from the pre-rewrite code: floating-point
/// term sums use the canonical strided-4 accumulation order of
/// util/simd.hpp (lane[i mod 4] += term[i]; (l0+l1)+(l2+l3)) instead of
/// a single serial chain. The canonical order is part of the kernel
/// contract since the SIMD layer (DESIGN §13): it is the unique order
/// that a 4-lane vector accumulator, two 2-lane accumulators, and four
/// scalar registers all reproduce exactly, so scalar/SSE2/AVX2 dispatch
/// levels and these references agree bit-for-bit. Per-term arithmetic
/// is unchanged.
///
/// Deliberately header-only: the reference code must not be linked into
/// the library, only into test binaries.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/mdl.hpp"
#include "blockmodel/vertex_move_delta.hpp"
#include "graph/graph.hpp"
#include "sbp/mcmc_common.hpp"
#include "sbp/proposal.hpp"
#include "util/omp_region.hpp"
#include "util/rng.hpp"

namespace hsbp::reference {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using blockmodel::CellDelta;
using blockmodel::Count;
using blockmodel::MoveDelta;
using blockmodel::NeighborBlockCounts;

/// Pre-table xlogx: live std::log on every call. A negative count,
/// which a stale A-SBP view can stage (DESIGN §13), gives NaN like
/// xlogx_count's live fallback, so a chain fed stale views rejects
/// such a move just as the optimized kernels do.
inline double xlogx(double x) noexcept {
  return x == 0.0 ? 0.0 : x * std::log(x);
}

/// Pre-arena gather: fresh vectors per call, O(k) linear scan per
/// neighbor to find its block's slot (O(k²) worst case per vertex).
template <typename View>
NeighborBlockCounts gather_neighbor_blocks_view(const graph::Graph& graph,
                                                const View& view,
                                                graph::Vertex v) {
  const auto accumulate = [](std::vector<std::pair<BlockId, Count>>& counts,
                             BlockId block) {
    for (auto& [b, c] : counts) {
      if (b == block) {
        ++c;
        return;
      }
    }
    counts.emplace_back(block, 1);
  };

  NeighborBlockCounts nb;
  nb.degree_out = graph.out_degree(v);
  nb.degree_in = graph.in_degree(v);
  nb.out.reserve(8);
  nb.in.reserve(8);
  for (const graph::Vertex u : graph.out_neighbors(v)) {
    if (u == v) {
      ++nb.self_loops;
      continue;
    }
    accumulate(nb.out, view(u));
  }
  for (const graph::Vertex u : graph.in_neighbors(v)) {
    if (u == v) continue;  // counted once via the out pass
    accumulate(nb.in, view(u));
  }
  return nb;
}

/// Pre-index post-move cell value: rescans the whole cell-delta list.
inline Count new_value(const Blockmodel& b, const MoveDelta& delta,
                       BlockId row, BlockId col) {
  Count value = b.matrix().get(row, col);
  for (const CellDelta& cd : delta.cell_deltas) {
    if (cd.row == row && cd.col == col) value += cd.delta;
  }
  return value;
}

/// Pre-arena ΔMDL: fresh cell vector, linear-scan dedup, live logs.
inline MoveDelta vertex_move_delta(const Blockmodel& b, BlockId from,
                                   BlockId to,
                                   const NeighborBlockCounts& nb) {
  assert(from != to);
  MoveDelta result;
  auto& cells = result.cell_deltas;
  cells.reserve(2 * (nb.out.size() + nb.in.size()) + 4);

  // Canonical cell order (see the file docblock): non-corner out pairs,
  // non-corner in pairs, then the nonzero corner cells. Out-edges touch
  // only rows from/to and in-edges only columns from/to, so the four
  // corners {from,to}×{from,to} are the only cells where contributions
  // overlap; they are collected in scalar accumulators.
  Count ko_f = 0, ko_t = 0, ki_f = 0, ki_t = 0;
  // Out-edges v→u (u keeps its block t): (from,t) loses, (to,t) gains.
  for (const auto& [t, k] : nb.out) {
    if (t == from) {
      ko_f = k;
    } else if (t == to) {
      ko_t = k;
    } else {
      cells.push_back({from, t, -k});
      cells.push_back({to, t, +k});
    }
  }
  // In-edges u→v: (t,from) loses, (t,to) gains.
  for (const auto& [t, k] : nb.in) {
    if (t == from) {
      ki_f = k;
    } else if (t == to) {
      ki_t = k;
    } else {
      cells.push_back({t, from, -k});
      cells.push_back({t, to, +k});
    }
  }
  // Self-loops move diagonally.
  const Count self = nb.self_loops;
  const Count d_ff = -(ko_f + ki_f + self);
  const Count d_tf = ko_f - ki_t;
  const Count d_ft = ki_f - ko_t;
  const Count d_tt = ko_t + ki_t + self;
  if (d_ff != 0) cells.push_back({from, from, d_ff});
  if (d_tf != 0) cells.push_back({to, from, d_tf});
  if (d_ft != 0) cells.push_back({from, to, d_ft});
  if (d_tt != 0) cells.push_back({to, to, d_tt});

  // Canonical strided-4 sum over the cells, in cell order (see the
  // file docblock). Every listed cell has a nonzero delta.
  double cell_lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t cell_idx = 0;
  for (const CellDelta& cd : cells) {
    const Count old_value = b.matrix().get(cd.row, cd.col);
    const Count new_cell = old_value + cd.delta;
    assert(new_cell >= 0);
    cell_lanes[cell_idx & 3] += xlogx(static_cast<double>(new_cell)) -
                                xlogx(static_cast<double>(old_value));
    ++cell_idx;
  }
  const double delta_cells =
      (cell_lanes[0] + cell_lanes[1]) + (cell_lanes[2] + cell_lanes[3]);

  const auto degree_delta = [](Count before_from, Count before_to, Count k) {
    return xlogx(static_cast<double>(before_from - k)) -
           xlogx(static_cast<double>(before_from)) +
           xlogx(static_cast<double>(before_to + k)) -
           xlogx(static_cast<double>(before_to));
  };
  const double delta_degrees =
      degree_delta(b.degree_out(from), b.degree_out(to), nb.degree_out) +
      degree_delta(b.degree_in(from), b.degree_in(to), nb.degree_in);

  // ΔL = Δcells − Δdegrees; ΔMDL = −ΔL (model term unchanged).
  result.delta_mdl = -(delta_cells - delta_degrees);
  return result;
}

/// Pre-arena Hastings correction: per-cell lookups through the
/// scanning new_value above.
inline double hastings_correction(const Blockmodel& b,
                                  const NeighborBlockCounts& nb, BlockId from,
                                  BlockId to, const MoveDelta& delta) {
  assert(from != to);
  const double c = static_cast<double>(b.num_blocks());
  const Count mover_degree = nb.degree_total();

  // Canonical strided-4 sums over the out-then-in neighbor terms (see
  // the file docblock).
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
    const double bwd_num = static_cast<double>(new_value(b, delta, t, from) +
                                               new_value(b, delta, from, t)) +
                           1.0;
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

/// Pre-table merge ΔMDL: live std::log on every term.
inline double merge_delta_mdl(const Blockmodel& b, BlockId from, BlockId to,
                              graph::Vertex num_vertices,
                              graph::EdgeCount num_edges) {
  assert(from != to);
  const blockmodel::DictTransposeMatrix& m = b.matrix();

  // Canonical strided-4 sum over the row-then-column fold terms; the
  // corner term is one scalar expression added after the lane combine
  // (see the file docblock).
  double fold_lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t fold_idx = 0;

  // Off-corner cells of row `from` fold into row `to`.
  for (const auto& [t, value] : m.row(from)) {
    if (t == from || t == to) continue;
    const Count existing = m.get(to, t);
    fold_lanes[fold_idx & 3] += xlogx(static_cast<double>(existing + value)) -
                                xlogx(static_cast<double>(existing)) -
                                xlogx(static_cast<double>(value));
    ++fold_idx;
  }
  // Off-corner cells of column `from` fold into column `to`.
  for (const auto& [t, value] : m.col(from)) {
    if (t == from || t == to) continue;
    const Count existing = m.get(t, to);
    fold_lanes[fold_idx & 3] += xlogx(static_cast<double>(existing + value)) -
                                xlogx(static_cast<double>(existing)) -
                                xlogx(static_cast<double>(value));
    ++fold_idx;
  }
  const double folded =
      (fold_lanes[0] + fold_lanes[1]) + (fold_lanes[2] + fold_lanes[3]);
  // The four corner cells collapse into (to, to).
  const Count ff = m.get(from, from);
  const Count ft = m.get(from, to);
  const Count tf = m.get(to, from);
  const Count tt = m.get(to, to);
  const double corner = xlogx(static_cast<double>(tt + ff + ft + tf)) -
                        xlogx(static_cast<double>(tt)) -
                        xlogx(static_cast<double>(ff)) -
                        xlogx(static_cast<double>(ft)) -
                        xlogx(static_cast<double>(tf));
  const double delta_cells = folded + corner;

  // Degree terms: d(to) absorbs d(from).
  const auto merge_degrees = [](Count a, Count into) {
    return xlogx(static_cast<double>(into + a)) -
           xlogx(static_cast<double>(into)) - xlogx(static_cast<double>(a));
  };
  const double delta_degrees =
      merge_degrees(b.degree_out(from), b.degree_out(to)) +
      merge_degrees(b.degree_in(from), b.degree_in(to));

  const double delta_likelihood = delta_cells - delta_degrees;

  const double delta_model =
      blockmodel::model_description_length(num_vertices, num_edges,
                                           b.num_blocks() - 1) -
      blockmodel::model_description_length(num_vertices, num_edges,
                                           b.num_blocks());

  return delta_model - delta_likelihood;
}

/// Entry sequences of every row and column slice of a built matrix.
struct BuildSlices {
  std::vector<std::vector<std::pair<BlockId, Count>>> rows;
  std::vector<std::vector<std::pair<BlockId, Count>>> cols;
};

/// Pre-aggregation Blockmodel::build_from, transcribed down to the entry
/// order of every slice. Phase A makes one map update per edge, into
/// per-thread maps bucketed by row shard (shard = row mod S, S the
/// thread count), over `chunk_vertices`-sized vertex ranges, each range
/// its own parallel region (0 = one range: from_assignment and
/// rebuild). Phase B adds each shard's map cells to their rows, source
/// thread by source thread in map order; phase C appends each row
/// shard's cells, row by row in slice order, to their columns. Only
/// insertion order is emulated, which is the order a FlatSlice iterates
/// when nothing was erased.
inline BuildSlices build_slices(const graph::GraphView& graph,
                                std::span<const std::int32_t> assignment,
                                BlockId num_blocks,
                                graph::Vertex chunk_vertices) {
  const std::int64_t v_count = graph.num_vertices();
  const auto shards = static_cast<std::size_t>(omp_get_max_threads());
  std::vector<std::vector<std::unordered_map<std::uint64_t, Count>>> locals(
      shards, std::vector<std::unordered_map<std::uint64_t, Count>>(shards));

  const auto phase_a = [&](graph::Vertex begin, graph::Vertex end) {
    auto& local = locals[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(static) nowait
    for (graph::Vertex v = begin; v < end; ++v) {
      const auto src_block = static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(assignment[static_cast<std::size_t>(v)]));
      auto& bucket = local[static_cast<std::size_t>(src_block) % shards];
      for (const graph::Vertex target : graph.out_neighbors(v)) {
        const auto dst_block = static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(
                assignment[static_cast<std::size_t>(target)]));
        ++bucket[(src_block << 32) | dst_block];
      }
    }
  };
  const std::int64_t chunk = chunk_vertices > 0
                                 ? chunk_vertices
                                 : std::max<std::int64_t>(v_count, 1);
  for (std::int64_t begin = 0; begin < v_count; begin += chunk) {
    const auto end =
        static_cast<graph::Vertex>(std::min(begin + chunk, v_count));
    util::omp_region(
        [&] { phase_a(static_cast<graph::Vertex>(begin), end); });
  }

  BuildSlices slices;
  slices.rows.resize(static_cast<std::size_t>(num_blocks));
  slices.cols.resize(static_cast<std::size_t>(num_blocks));
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t src = 0; src < shards; ++src) {
      for (const auto& [key, count] : locals[src][s]) {
        auto& row = slices.rows[static_cast<std::size_t>(key >> 32)];
        const auto col = static_cast<BlockId>(key & 0xffffffffULL);
        const auto it = std::find_if(
            row.begin(), row.end(),
            [col](const auto& entry) { return entry.first == col; });
        if (it != row.end()) {
          it->second += count;
        } else {
          row.emplace_back(col, count);
        }
      }
    }
  }
  for (std::size_t src = 0; src < shards; ++src) {
    for (auto r = static_cast<BlockId>(src); r < num_blocks;
         r += static_cast<BlockId>(shards)) {
      for (const auto& [col, value] :
           slices.rows[static_cast<std::size_t>(r)]) {
        slices.cols[static_cast<std::size_t>(col)].emplace_back(r, value);
      }
    }
  }
  return slices;
}

/// Pre-arena evaluate_vertex, for whole-chain equivalence: the proposal
/// step is the shared production code (it draws from the RNG), so RNG
/// consumption matches the optimized path exactly as long as ΔMDL and
/// the correction are bit-identical.
template <typename View>
sbp::VertexOutcome evaluate_vertex(const graph::Graph& graph,
                                   const Blockmodel& b, const View& view,
                                   graph::Vertex v,
                                   std::int32_t source_block_size, double beta,
                                   util::Rng& rng) {
  sbp::VertexOutcome outcome;
  const BlockId from = view(v);
  if (source_block_size <= 1) return outcome;  // would empty the block

  const NeighborBlockCounts nb =
      reference::gather_neighbor_blocks_view(graph, view, v);
  const BlockId to = sbp::propose_block(b, nb, from, false, rng);
  if (to == from) return outcome;

  const MoveDelta delta = reference::vertex_move_delta(b, from, to, nb);
  const double correction =
      reference::hastings_correction(b, nb, from, to, delta);
  const double acceptance = std::exp(-beta * delta.delta_mdl) * correction;
  if (acceptance >= 1.0 || rng.uniform() < acceptance) {
    outcome.moved = true;
    outcome.to = to;
    outcome.delta_mdl = delta.delta_mdl;
  }
  return outcome;
}

}  // namespace hsbp::reference

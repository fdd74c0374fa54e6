/// \file vertex_move_delta.hpp
/// \brief O(deg(v)) ΔMDL computation for a proposed vertex move — the
/// inner kernel of every MCMC phase (paper Algs. 2–4: "compute AMDL for
/// proposed move") — plus the MoveScratch arena that makes it
/// allocation-free.
///
/// Uses the decomposition L = Σ xlogx(M_rs) − Σ xlogx(d_out) − Σ
/// xlogx(d_in): a move r→s changes only cells in rows/columns r and s
/// whose partner block is a neighbor block of v, plus the four degree
/// entries. The model-complexity term of the MDL is unchanged because
/// vertex moves never change the number of blocks (moves that would
/// empty a block are rejected upstream).
///
/// Two API layers:
///   - *_into kernels writing into a caller-owned MoveScratch — the hot
///     path. No heap allocation after warm-up, O(k) dedup through flat
///     per-block counters (BlockTally) instead of linear rescans.
///   - by-value wrappers (gather_neighbor_blocks, vertex_move_delta)
///     retained for cold paths and tests; they run the same kernels
///     through a thread-local scratch and copy the result out.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "blockmodel/block_tally.hpp"
#include "blockmodel/blockmodel.hpp"

namespace hsbp::blockmodel {

/// Edge counts from a vertex to each adjacent block, gathered under a
/// given membership vector. The membership is passed explicitly because
/// A-SBP evaluates moves against a *stale* assignment (paper Alg. 3).
struct NeighborBlockCounts {
  /// Distinct (block, multiplicity) for out-edges v→u, u != v.
  std::vector<std::pair<BlockId, Count>> out;
  /// Distinct (block, multiplicity) for in-edges u→v, u != v.
  std::vector<std::pair<BlockId, Count>> in;
  Count self_loops = 0;   ///< multiplicity of edge (v, v)
  Count degree_out = 0;   ///< out-degree of v including self-loops
  Count degree_in = 0;    ///< in-degree of v including self-loops

  Count degree_total() const noexcept { return degree_out + degree_in; }
};

/// A changed cell of M: (row, col, additive delta).
struct CellDelta {
  BlockId row;
  BlockId col;
  Count delta;
};

/// Result of evaluating a move. `cell_deltas` lists every changed cell
/// exactly once, in the canonical cell order (DESIGN §13), so that
/// new_value() can answer post-move matrix values without applying the
/// move. Only the by-value vertex_move_delta() builds the list; the hot
/// path stages cell values in MoveScratch.
struct MoveDelta {
  double delta_mdl = 0.0;
  std::vector<CellDelta> cell_deltas;

  /// Post-move value of cell (row, col) given the pre-move blockmodel.
  /// Linear scan over the cell list; the hot path uses move_new_value()
  /// on a MoveScratch instead, which answers in O(1).
  Count new_value(const Blockmodel& b, BlockId row, BlockId col) const;
};

/// Per-thread reusable workspace for the propose/ΔMDL/accept step.
/// Holds the gather and staging buffers (cleared, never freed, so
/// steady-state passes allocate nothing) and one BlockTally per
/// direction, which turns the gather dedup into one branch-free
/// counter increment per neighbor.
///
/// The tallies double as the move-description index: after a gather,
/// out_count(t)/in_count(t) answer the vertex's edge multiplicity
/// towards block t in O(1), which is exactly the cell delta of the move
/// for any non-corner cell (see move_new_value). They stay valid until
/// the next gather on this scratch, whatever happens to `nb` in between:
/// block_merge_phase refills `nb` from the blockmodel, and the next
/// gather still resets the counters through the tallies' own lists.
class MoveScratch {
 public:
  NeighborBlockCounts nb;  ///< gather target (buffers reused)
  double delta_mdl = 0.0;  ///< ΔMDL target of vertex_move_delta_into

  /// Gather internals, written only by gather_neighbor_blocks_into.
  BlockTally out_blocks;
  BlockTally in_blocks;

  /// Edge multiplicity from the gathered vertex to block t (out / in
  /// direction); 0 for blocks outside the neighbor lists. Valid from
  /// the end of a gather until the next gather on this scratch.
  /// \pre block < the num_blocks of that gather.
  Count out_count(BlockId block) const noexcept {
    return out_blocks.count(block);
  }
  Count in_count(BlockId block) const noexcept {
    return in_blocks.count(block);
  }

  /// Endpoints of the move `delta_mdl` currently describes (set by
  /// vertex_move_delta_into; consumed by move_new_value), and the
  /// deltas of the four corner cells {from,to}×{from,to} — the only
  /// cells where out-, in- and self-loop contributions can overlap.
  BlockId move_from() const noexcept { return move_from_; }
  BlockId move_to() const noexcept { return move_to_; }
  Count corner_ff() const noexcept { return corner_ff_; }
  Count corner_tf() const noexcept { return corner_tf_; }
  Count corner_ft() const noexcept { return corner_ft_; }
  Count corner_tt() const noexcept { return corner_tt_; }
  void set_move(BlockId from, BlockId to) noexcept {
    move_from_ = from;
    move_to_ = to;
  }
  void set_corners(Count ff, Count tf, Count ft, Count tt) noexcept {
    corner_ff_ = ff;
    corner_tf_ = tf;
    corner_ft_ = ft;
    corner_tt_ = tt;
  }

  /// Each changed cell's pre/post-move value, staged by
  /// vertex_move_delta_into in the canonical cell order (DESIGN §13)
  /// and replayed by the Hastings correction, which then probes two
  /// cells per term instead of four. Contents are valid until the next
  /// move delta on this scratch; capacity is retained forever, like the
  /// other scratch buffers.
  struct BatchBuffers {
    std::vector<Count> old_vals;       ///< pre-move cell values, per cell
    std::vector<Count> new_vals;       ///< post-move cell values (nonzero Δ)
  };
  BatchBuffers batch;

 private:
  BlockId move_from_ = -1;
  BlockId move_to_ = -1;
  Count corner_ff_ = 0;
  Count corner_tf_ = 0;
  Count corner_ft_ = 0;
  Count corner_tt_ = 0;
};

/// The calling thread's scratch arena (one per OpenMP thread, lives for
/// the thread's lifetime). Scratch state never influences results —
/// every gather resets the tallies it reads and every kernel overwrites
/// what it stages — so sharing one arena across phases is safe.
MoveScratch& thread_move_scratch() noexcept;

/// Membership view over a plain contiguous int32 label array. The
/// serial phases wrap the blockmodel's own assignment; the async phase
/// wraps its shared atomic vector outside TSan builds, where relaxed
/// atomic loads and plain loads are the same instruction.
struct FlatMembershipView {
  const std::int32_t* base = nullptr;
  BlockId operator()(graph::Vertex u) const noexcept {
    return base[static_cast<std::size_t>(u)];
  }
};

/// Gathers neighbor-block counts into scratch.nb, reading memberships
/// through `view`, a callable Vertex → BlockId. This is the A-SBP hook:
/// the async phase passes a view over an atomically-updated shared
/// membership vector, the serial phases a view over the blockmodel's
/// own assignment. Dedup is O(deg(v)): one branch-free tally increment
/// per neighbor, after which the counts stay readable
/// (out_count/in_count) until the next gather on the same scratch.
/// nb.out/nb.in list the blocks in first-sighting order.
/// \pre every label `view` returns for a neighbor of v is in
/// [0, num_blocks) — the tallies index by it unchecked.
template <typename View>
void gather_neighbor_blocks_into(const graph::GraphView& graph, const View& view,
                                 graph::Vertex v, BlockId num_blocks,
                                 MoveScratch& scratch) {
  const std::span<const graph::Vertex> out = graph.out_neighbors(v);
  const std::span<const graph::Vertex> in = graph.in_neighbors(v);
  BlockTally& out_blocks = scratch.out_blocks;
  BlockTally& in_blocks = scratch.in_blocks;
  out_blocks.begin(num_blocks, out.size());
  in_blocks.begin(num_blocks, in.size());
  // A self-loop is counted once, on the out side.
  const auto self_loops = static_cast<Count>(out_blocks.add(out, v, view));
  in_blocks.add(in, v, view);

  NeighborBlockCounts& nb = scratch.nb;
  const auto fill = [](const BlockTally& tally,
                       std::vector<std::pair<BlockId, Count>>& counts) {
    counts.resize(tally.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const BlockId block = tally.block(i);
      counts[i] = {block, tally.count(block)};
    }
  };
  fill(out_blocks, nb.out);
  fill(in_blocks, nb.in);
  nb.self_loops = self_loops;
  nb.degree_out = graph.out_degree(v);
  nb.degree_in = graph.in_degree(v);
}

/// ΔMDL of moving v from `from` to `to`, written into scratch.delta_mdl
/// (plus the corner deltas, which move_new_value() reads afterwards, and
/// each changed cell's pre/post value in scratch.batch.old_vals/new_vals,
/// in the canonical cell order, which the Hastings correction replays).
/// `nb` is usually scratch.nb (aliasing is fine — it is only read).
/// \pre from != to; `nb` gathered under the same assignment the
/// blockmodel's M corresponds to, by a gather on this same scratch
/// (move_new_value and the Hastings correction answer non-corner cell
/// deltas from the scratch's count accumulators).
void vertex_move_delta_into(const Blockmodel& b, BlockId from, BlockId to,
                            const NeighborBlockCounts& nb,
                            MoveScratch& scratch);

/// Post-move value of cell (row, col) in O(1): a cell's delta is fully
/// determined by which of row/col equal from/to, the gather's count
/// accumulators, and the corner deltas left by vertex_move_delta_into.
Count move_new_value(const Blockmodel& b, const MoveScratch& scratch,
                     BlockId row, BlockId col) noexcept;

/// By-value wrapper over gather_neighbor_blocks_into (thread scratch),
/// reading memberships from `assignment`.
NeighborBlockCounts gather_neighbor_blocks(
    const graph::GraphView& graph, std::span<const std::int32_t> assignment,
    graph::Vertex v);

/// By-value wrapper over vertex_move_delta_into (thread scratch). ΔMDL
/// of moving v from `from` to `to`, plus the full cell list, built here
/// off the hot path. \pre from != to; `nb` gathered under the same
/// assignment the blockmodel's M corresponds to.
MoveDelta vertex_move_delta(const Blockmodel& b, BlockId from, BlockId to,
                            const NeighborBlockCounts& nb);

}  // namespace hsbp::blockmodel

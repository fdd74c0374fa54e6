/// \file blockmodel.hpp
/// \brief The degree-corrected stochastic blockmodel state fitted by SBP.
///
/// Holds, for a fixed graph and a membership vector b : V → [0, C):
///   - M, the C×C inter-block edge-count matrix (DictTransposeMatrix),
///   - block degree totals d_out, d_in, d = d_out + d_in,
///   - block sizes (vertex counts).
///
/// Two update paths mirror the paper's algorithms:
///   - move_vertex(): in-place O(deg(v)) update, used by serial
///     Metropolis-Hastings (Alg. 2), H-SBP's synchronous pass (Alg. 4),
///     and the pass-end replay of the asynchronous passes' move logs
///     (DESIGN §11);
///   - from_assignment(): full construction from a membership vector,
///     the same slices at every thread count (DESIGN §11), used at
///     initialization, merge boundaries and D-SBP's per-pass exchange.
///
/// Both paths also maintain the log-likelihood term of the MDL as a
/// pair of order-independent fixed-point sums (Σ xlogx(M_rs) and
/// Σ xlogx(d_out) + xlogx(d_in), see xlogx_table.hpp), so mdl() is O(1)
/// and bit-identical no matter which path produced the state.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "blockmodel/dict_transpose_matrix.hpp"
#include "blockmodel/xlogx_table.hpp"
#include "graph/view.hpp"

namespace hsbp::blockmodel {

class Blockmodel {
 public:
  Blockmodel() = default;

  /// Builds the blockmodel of `graph` under `assignment` with blocks
  /// [0, num_blocks). OpenMP-parallel over vertices.
  /// \throws std::invalid_argument if assignment size != V or a label is
  /// outside [0, num_blocks).
  static Blockmodel from_assignment(const graph::GraphView& graph,
                                    std::span<const std::int32_t> assignment,
                                    BlockId num_blocks);

  /// from_assignment with bounded graph residency, for the out-of-core
  /// driver: the edge scan runs over `chunk_vertices`-sized vertex
  /// ranges with `release` invoked between ranges (pointed at
  /// MmapGraph::evict it caps how much of a mapped CSR stays resident).
  /// The ranges run in ascending order, so the result equals
  /// from_assignment exactly, slice entry order included. An empty
  /// `release` builds in one range.
  static Blockmodel from_assignment_chunked(
      const graph::GraphView& graph,
      std::span<const std::int32_t> assignment, BlockId num_blocks,
      graph::Vertex chunk_vertices, const std::function<void()>& release);

  /// Identity partition: every vertex its own block (SBP's start state).
  static Blockmodel identity(const graph::GraphView& graph);

  BlockId num_blocks() const noexcept { return num_blocks_; }
  const std::vector<std::int32_t>& assignment() const noexcept {
    return assignment_;
  }
  std::int32_t block_of(graph::Vertex v) const noexcept {
    return assignment_[static_cast<std::size_t>(v)];
  }

  const DictTransposeMatrix& matrix() const noexcept { return m_; }

  Count degree_out(BlockId b) const noexcept {
    return d_out_[static_cast<std::size_t>(b)];
  }
  Count degree_in(BlockId b) const noexcept {
    return d_in_[static_cast<std::size_t>(b)];
  }
  Count degree_total(BlockId b) const noexcept {
    return degree_out(b) + degree_in(b);
  }
  std::int32_t block_size(BlockId b) const noexcept {
    return block_sizes_[static_cast<std::size_t>(b)];
  }

  /// Moves vertex v to block `to`, updating M, degrees and sizes in
  /// place in O(deg(v)). No-op if v is already in `to`.
  void move_vertex(const graph::GraphView& graph, graph::Vertex v, BlockId to);

  /// Deep-copies the membership vector (the A-SBP working copy).
  std::vector<std::int32_t> copy_assignment() const { return assignment_; }

  /// Log-likelihood term L(G|B) (mdl.hpp Eq. 1) decoded from the
  /// incrementally maintained fixed-point sums — O(1). Exactly equal to
  /// an O(nnz) rescan (log_likelihood_rescan) because both accumulate
  /// the same quantized integer terms.
  double log_likelihood() const noexcept {
    return ll_fixed_to_double(ll_cells_ - ll_degrees_);
  }

  /// Full structural invariant check (matrix mirror, degree totals,
  /// sizes, fixed-point likelihood sums); O(E + nnz). For tests.
  bool check_consistency(const graph::GraphView& graph) const;

 private:
  /// Fills every member but assignment_ and num_blocks_ from them;
  /// `release` (if set) runs after each `chunk_vertices` range.
  void build_from(const graph::GraphView& graph, graph::Vertex chunk_vertices,
                  const std::function<void()>& release);

  /// m_.add(row, col, +1) returning the canonical quantized change to
  /// Σ xlogx(M_rs) — a single step-table lookup. Callers accumulate the
  /// returned terms locally (a register, not the __int128 member) and
  /// flush once per move; integer addition makes the grouping
  /// irrelevant to the final sum.
  LlFixed insert_cell_unit(BlockId row, BlockId col) {
    const Count value = m_.add(row, col, +1);
    return xlogx_fixed_step(value - 1);
  }

  /// m_.add(row, col, -1) counterpart of insert_cell_unit().
  LlFixed remove_cell_unit(BlockId row, BlockId col) {
    const Count value = m_.add(row, col, -1);
    return -xlogx_fixed_step(value);
  }

  BlockId num_blocks_ = 0;
  std::vector<std::int32_t> assignment_;
  DictTransposeMatrix m_;
  std::vector<Count> d_out_;
  std::vector<Count> d_in_;
  std::vector<std::int32_t> block_sizes_;
  LlFixed ll_cells_ = 0;    ///< Σ_{r,s} xlogx(M_rs), fixed point
  LlFixed ll_degrees_ = 0;  ///< Σ_r xlogx(d_out_r) + xlogx(d_in_r), fixed point
};

}  // namespace hsbp::blockmodel

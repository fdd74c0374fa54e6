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
/// Neither path keeps a likelihood: mdl.hpp's log_likelihood() rescans
/// the state in fixed point, so it is bit-identical no matter which path
/// produced it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "blockmodel/dict_transpose_matrix.hpp"
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

  /// Full structural invariant check (matrix mirror, degree totals,
  /// sizes); O(E + nnz). For tests.
  bool check_consistency(const graph::GraphView& graph) const;

 private:
  /// Fills every member but assignment_ and num_blocks_ from them;
  /// `release` (if set) runs after each `chunk_vertices` range.
  void build_from(const graph::GraphView& graph, graph::Vertex chunk_vertices,
                  const std::function<void()>& release);

  BlockId num_blocks_ = 0;
  std::vector<std::int32_t> assignment_;
  DictTransposeMatrix m_;
  std::vector<Count> d_out_;
  std::vector<Count> d_in_;
  std::vector<std::int32_t> block_sizes_;
};

}  // namespace hsbp::blockmodel

/// \file dict_transpose_matrix.hpp
/// \brief Sparse C×C inter-block edge-count matrix with O(nnz) row *and*
/// column slices, plus a dense lookup mirror once C is small.
///
/// Every SBP kernel needs both row r (out-edges of block r) and column r
/// (in-edges of block r): proposals draw from row+column of a block,
/// ΔMDL touches two rows and two columns, merges fold a row+column into
/// another. CSR can't give cheap column access and a dense matrix is
/// impossible at C = V (the initial state), so the matrix keeps both a
/// row-map and a column-map ("dict" + "transpose dict"), the structure
/// the reference SBP implementations call DictTransposeMatrix.
///
/// Slices are FlatSlice (contiguous entries + open-addressing index),
/// so the weighted proposal draws and merge folds that sweep whole
/// slices run over contiguous memory instead of hash-map nodes.
///
/// Dense mirror. Once the golden-section search has cut C down, the
/// slices' hash probes dominate the ΔMDL, Hastings and merge kernels:
/// each is a hit/miss branch the CPU cannot predict. A bulk build
/// (set_bulk_counters) therefore also fills a row-major int32 C×C copy
/// of the cells when C·C ≤ kDenseCellsPerEdge·total and the total fits
/// int32, and get() / SliceProbe read it with one load. C and the total
/// (the fitted graph's edge count) are what a vertex move never
/// changes, so the decision holds for the matrix's whole life. The
/// mirror is only ever read by lookups: the slices stay the single
/// source of iteration order, so proposal draws and merge folds walk
/// the same entries in the same order whether or not a mirror exists.
///
/// Invariants (checked by check_consistency() in tests):
///   - rows_[r][s] == cols_[s][r] for every stored cell,
///   - no zero-valued entries are stored,
///   - total() equals the sum of all cells,
///   - nonzeros() equals the stored-cell count (maintained
///     incrementally by add(), not recounted),
///   - with a dense mirror, its cell (r, s) equals rows_[r][s] (0 where
///     no entry is stored).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "blockmodel/flat_slice.hpp"

namespace hsbp::blockmodel {

/// One sparse row or column: block id → edge count.
using SparseSlice = FlatSlice;

class DictTransposeMatrix {
 public:
  /// Read-only cell lookups along one row or one column: one load from
  /// the dense mirror when the matrix has one, else a probe of the
  /// slice. The kernels that look up many cells of the same line hoist
  /// one per line. Valid until the matrix is next modified.
  class SliceProbe {
   public:
    /// Value of the line's cell at block `key`; absent cells are 0.
    Count get(BlockId key) const noexcept {
      return dense_ != nullptr
                 ? dense_[static_cast<std::size_t>(key) * stride_]
                 : slice_->get(key);
    }

   private:
    friend class DictTransposeMatrix;
    SliceProbe(const FlatSlice& slice, const std::int32_t* dense,
               std::size_t stride) noexcept
        : slice_(&slice), dense_(dense), stride_(stride) {}

    const FlatSlice* slice_;
    const std::int32_t* dense_;  ///< the line's first mirror cell, or null
    std::size_t stride_;         ///< mirror distance between its cells
  };

  DictTransposeMatrix() = default;
  explicit DictTransposeMatrix(BlockId size)
      : dim_(static_cast<std::size_t>(size)),
        rows_(dim_),
        cols_(dim_) {}

  BlockId size() const noexcept { return static_cast<BlockId>(dim_); }

  /// Cell value; absent cells are 0.
  Count get(BlockId row, BlockId col) const noexcept {
    if (!dense_.empty()) return dense_[dense_index(row, col)];
    return rows_[static_cast<std::size_t>(row)].get(col);
  }

  /// Adds `delta` to cell (row, col); erases the cell if it reaches zero.
  /// Returns the cell's resulting value (0 when erased).
  /// \pre resulting value must be >= 0 (asserted).
  /// Inline so move_vertex's ±1 deltas constant-propagate into the
  /// FlatSlice fast path — this is called ~4·deg(v) times per move and
  /// an out-of-line call here is measurable on BM_MoveVertexRoundTrip.
  Count add(BlockId row, BlockId col, Count delta) {
    if (delta == 0) return get(row, col);
    Count new_value = 0;
    const int created =
        rows_[static_cast<std::size_t>(row)].add(col, delta, new_value);
    const int mirror = cols_[static_cast<std::size_t>(col)].add(row, delta);
    assert(created == mirror && "row/column mirror diverged");
    (void)mirror;
    nnz_ = static_cast<std::size_t>(static_cast<std::int64_t>(nnz_) + created);
    total_ += delta;
    if (!dense_.empty()) {
      // Only adds that grow the total can push a cell past int32
      // (vertex moves never do); the slices then answer every lookup.
      if (new_value > std::numeric_limits<std::int32_t>::max()) {
        dense_ = {};
      } else {
        dense_[dense_index(row, col)] = static_cast<std::int32_t>(new_value);
      }
    }
    return new_value;
  }

  const SparseSlice& row(BlockId r) const noexcept {
    return rows_[static_cast<std::size_t>(r)];
  }
  const SparseSlice& col(BlockId c) const noexcept {
    return cols_[static_cast<std::size_t>(c)];
  }

  /// Lookup handles for row r / column c (see SliceProbe).
  SliceProbe row_probe(BlockId r) const noexcept {
    const auto i = static_cast<std::size_t>(r);
    return {rows_[i], dense_.empty() ? nullptr : dense_.data() + i * dim_, 1};
  }
  SliceProbe col_probe(BlockId c) const noexcept {
    const auto i = static_cast<std::size_t>(c);
    return {cols_[i], dense_.empty() ? nullptr : dense_.data() + i, dim_};
  }

  /// True while lookups read the dense mirror.
  bool has_dense_mirror() const noexcept { return !dense_.empty(); }

  /// Sum of all cells (maintained incrementally).
  Count total() const noexcept { return total_; }

  /// Number of stored nonzero cells (maintained incrementally).
  std::size_t nonzeros() const noexcept { return nnz_; }

  /// Verifies the row/column mirror, non-negativity, the incremental
  /// total/nonzero counters and the dense mirror; returns false on
  /// violation. O(nnz + C²) with a dense mirror, else O(nnz).
  bool check_consistency() const;

  /// Bulk-construction escape hatch for the parallel build
  /// (Blockmodel::build_from): each thread owns a disjoint range of rows
  /// (then, in a second phase, columns) and fills the slices directly,
  /// bypassing the per-add mirror/total/nnz bookkeeping. The caller
  /// must insert every cell on both sides and then restore the
  /// counters via set_bulk_counters(), which also decides and fills
  /// the dense mirror; check_consistency() verifies the result. Not
  /// for incremental updates — use add().
  SparseSlice& bulk_row(BlockId r) noexcept {
    return rows_[static_cast<std::size_t>(r)];
  }
  SparseSlice& bulk_col(BlockId c) noexcept {
    return cols_[static_cast<std::size_t>(c)];
  }
  void set_bulk_counters(Count total, std::size_t nnz);

 private:
  /// A bulk build mirrors the cells densely iff C·C is at most this many
  /// times the cell total, which for a blockmodel is the fitted graph's
  /// edge count: the mirror's 4·C² bytes then stay under 64 bytes per
  /// edge (DESIGN §10, "Dense cell mirror").
  static constexpr std::uint64_t kDenseCellsPerEdge = 16;

  std::size_t dense_index(BlockId row, BlockId col) const noexcept {
    return static_cast<std::size_t>(row) * dim_ +
           static_cast<std::size_t>(col);
  }

  std::size_t dim_ = 0;  ///< C
  std::vector<SparseSlice> rows_;
  std::vector<SparseSlice> cols_;
  std::vector<std::int32_t> dense_;  ///< row-major C×C mirror, or empty
  Count total_ = 0;
  std::size_t nnz_ = 0;
};

}  // namespace hsbp::blockmodel

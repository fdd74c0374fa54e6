#include "blockmodel/dict_transpose_matrix.hpp"

#include <cassert>

namespace hsbp::blockmodel {

void DictTransposeMatrix::set_bulk_counters(Count total, std::size_t nnz) {
  total_ = total;
  nnz_ = nnz;
  // Moves change neither C nor the total, so this decision holds until
  // the next bulk build replaces the matrix.
  const auto c = static_cast<std::uint64_t>(dim_);
  const bool mirror = total <= std::numeric_limits<std::int32_t>::max() &&
                      c * c <= kDenseCellsPerEdge *
                                   static_cast<std::uint64_t>(total);
  dense_ = {};
  if (!mirror) return;
  dense_.assign(dim_ * dim_, 0);
  for (std::size_t r = 0; r < dim_; ++r) {
    for (const auto& [col, value] : rows_[r]) {
      dense_[r * dim_ + static_cast<std::size_t>(col)] =
          static_cast<std::int32_t>(value);
    }
  }
}

bool DictTransposeMatrix::check_consistency() const {
  Count row_total = 0;
  std::size_t row_nnz = 0;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (const auto& [col, value] : rows_[r]) {
      if (value <= 0) return false;
      row_total += value;
      ++row_nnz;
      if (cols_[static_cast<std::size_t>(col)].get(
              static_cast<BlockId>(r)) != value) {
        return false;
      }
    }
  }
  Count col_total = 0;
  std::size_t col_nnz = 0;
  for (const auto& slice : cols_) {
    for (const auto& [row, value] : slice) {
      (void)row;
      col_total += value;
      ++col_nnz;
    }
  }
  if (!dense_.empty()) {
    if (dense_.size() != dim_ * dim_) return false;
    for (std::size_t r = 0; r < dim_; ++r) {
      for (std::size_t c = 0; c < dim_; ++c) {
        if (dense_[r * dim_ + c] != rows_[r].get(static_cast<BlockId>(c))) {
          return false;
        }
      }
    }
  }
  return row_total == total_ && col_total == total_ && row_nnz == nnz_ &&
         col_nnz == nnz_;
}

}  // namespace hsbp::blockmodel

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "blockmodel/dict_transpose_matrix.hpp"
#include "util/rng.hpp"

namespace hsbp::blockmodel {
namespace {

struct Cell {
  BlockId row;
  BlockId col;
  Count value;
};

/// A matrix filled the way Blockmodel::build_from fills one: slices
/// through the bulk handles, then set_bulk_counters(), which decides
/// the dense mirror. Cells must be distinct and positive.
DictTransposeMatrix bulk_matrix(BlockId size, const std::vector<Cell>& cells) {
  DictTransposeMatrix m(size);
  Count total = 0;
  for (const Cell& cell : cells) {
    m.bulk_row(cell.row).add(cell.col, cell.value);
    m.bulk_col(cell.col).add(cell.row, cell.value);
    total += cell.value;
  }
  m.set_bulk_counters(total, cells.size());
  return m;
}

/// Every lookup path — get(), both probes, both slices — against an
/// independent dense reference.
void expect_cells(const DictTransposeMatrix& m,
                  const std::vector<Count>& want) {
  const BlockId c = m.size();
  for (BlockId r = 0; r < c; ++r) {
    const auto row = m.row_probe(r);
    for (BlockId s = 0; s < c; ++s) {
      const Count value =
          want[static_cast<std::size_t>(r) * static_cast<std::size_t>(c) +
               static_cast<std::size_t>(s)];
      ASSERT_EQ(m.get(r, s), value) << "cell (" << r << ", " << s << ")";
      ASSERT_EQ(row.get(s), value);
      ASSERT_EQ(m.col_probe(s).get(r), value);
      ASSERT_EQ(m.row(r).get(s), value);
      ASSERT_EQ(m.col(s).get(r), value);
    }
  }
}

TEST(DictTransposeMatrix, StartsEmpty) {
  const DictTransposeMatrix m(4);
  EXPECT_EQ(m.size(), 4);
  EXPECT_EQ(m.total(), 0);
  EXPECT_EQ(m.nonzeros(), 0u);
  EXPECT_EQ(m.get(0, 0), 0);
  EXPECT_FALSE(m.has_dense_mirror());
  EXPECT_TRUE(m.check_consistency());
}

TEST(DictTransposeMatrix, AddAndGet) {
  DictTransposeMatrix m(3);
  m.add(0, 1, 5);
  m.add(1, 2, 2);
  EXPECT_EQ(m.get(0, 1), 5);
  EXPECT_EQ(m.get(1, 0), 0);
  EXPECT_EQ(m.get(1, 2), 2);
  EXPECT_EQ(m.total(), 7);
  EXPECT_EQ(m.nonzeros(), 2u);
  EXPECT_TRUE(m.check_consistency());
}

TEST(DictTransposeMatrix, RowAndColumnMirror) {
  DictTransposeMatrix m(3);
  m.add(0, 1, 3);
  m.add(2, 1, 4);
  const auto& col = m.col(1);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col.at(0), 3);
  EXPECT_EQ(col.at(2), 4);
  const auto& row = m.row(0);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row.at(1), 3);
}

TEST(DictTransposeMatrix, ZeroCellsAreErased) {
  DictTransposeMatrix m(2);
  m.add(0, 1, 3);
  m.add(0, 1, -3);
  EXPECT_EQ(m.get(0, 1), 0);
  EXPECT_EQ(m.nonzeros(), 0u);
  EXPECT_TRUE(m.row(0).empty());
  EXPECT_TRUE(m.col(1).empty());
  EXPECT_EQ(m.total(), 0);
  EXPECT_TRUE(m.check_consistency());
}

TEST(DictTransposeMatrix, AddZeroIsNoop) {
  DictTransposeMatrix m(2);
  m.add(0, 0, 0);
  EXPECT_EQ(m.nonzeros(), 0u);
}

TEST(DictTransposeMatrix, DiagonalCellAppearsOnceInRowAndCol) {
  DictTransposeMatrix m(2);
  m.add(1, 1, 6);
  EXPECT_EQ(m.get(1, 1), 6);
  EXPECT_EQ(m.row(1).size(), 1u);
  EXPECT_EQ(m.col(1).size(), 1u);
  EXPECT_TRUE(m.check_consistency());
}

TEST(DictTransposeMatrix, IncrementalUpdatesAccumulate) {
  DictTransposeMatrix m(4);
  for (int i = 0; i < 10; ++i) m.add(2, 3, 1);
  m.add(2, 3, -4);
  EXPECT_EQ(m.get(2, 3), 6);
  EXPECT_EQ(m.total(), 6);
  EXPECT_TRUE(m.check_consistency());
}

TEST(DictTransposeMatrix, DenseMirrorFollowsRandomUpdates) {
  // C = 12 with 30 seeded cells: C·C = 144 is well under 16·nnz = 480.
  // The updates fill most rows past FlatSlice's 8 inline entries, so
  // both slice modes sit behind the mirror.
  constexpr BlockId kSize = 12;
  util::Rng rng(41);
  std::vector<Count> want(kSize * kSize, 0);
  std::vector<Cell> cells;
  while (cells.size() < 30) {
    const auto r = static_cast<BlockId>(rng.uniform_int(kSize));
    const auto s = static_cast<BlockId>(rng.uniform_int(kSize));
    Count& value = want[static_cast<std::size_t>(r * kSize + s)];
    if (value != 0) continue;
    value = 1 + static_cast<Count>(rng.uniform_int(5));
    cells.push_back({r, s, value});
  }
  DictTransposeMatrix m = bulk_matrix(kSize, cells);
  ASSERT_TRUE(m.has_dense_mirror());
  ASSERT_TRUE(m.check_consistency());
  expect_cells(m, want);

  for (int step = 0; step < 4000; ++step) {
    const auto r = static_cast<BlockId>(rng.uniform_int(kSize));
    const auto s = static_cast<BlockId>(rng.uniform_int(kSize));
    Count& value = want[static_cast<std::size_t>(r * kSize + s)];
    // Grow, shrink or erase the cell; erasing a present cell is as
    // likely as creating an absent one, so the slices keep churning.
    Count delta = 1 + static_cast<Count>(rng.uniform_int(3));
    if (value > 0 && rng.uniform_int(2) == 0) {
      delta = rng.uniform_int(2) == 0 ? -value : -1;
    }
    value += delta;
    EXPECT_EQ(m.add(r, s, delta), value);
    if (step % 200 == 0) {
      ASSERT_TRUE(m.check_consistency()) << "step " << step;
      expect_cells(m, want);
    }
  }
  // Adds never revoke the mirror, whatever they do to nnz.
  EXPECT_TRUE(m.has_dense_mirror());
  EXPECT_TRUE(m.check_consistency());
  expect_cells(m, want);
}

TEST(DictTransposeMatrix, DenseMirrorOnlyWhileSmallAgainstNonzeros) {
  // C = 8: C·C = 64 ≤ 16·nnz holds from nnz = 4 on.
  const std::vector<Cell> four = {{0, 1, 2}, {3, 3, 1}, {7, 0, 5}, {2, 6, 1}};
  const DictTransposeMatrix mirrored = bulk_matrix(8, four);
  EXPECT_TRUE(mirrored.has_dense_mirror());
  EXPECT_TRUE(mirrored.check_consistency());

  const std::vector<Cell> three(four.begin(), four.begin() + 3);
  const DictTransposeMatrix sparse = bulk_matrix(8, three);
  EXPECT_FALSE(sparse.has_dense_mirror());
  EXPECT_TRUE(sparse.check_consistency());
  std::vector<Count> want(64, 0);
  for (const Cell& cell : three) {
    want[static_cast<std::size_t>(cell.row * 8 + cell.col)] = cell.value;
  }
  expect_cells(sparse, want);

  // An empty bulk build has nothing to mirror.
  EXPECT_FALSE(bulk_matrix(1, {}).has_dense_mirror());
}

TEST(DictTransposeMatrix, DenseMirrorOnlyWhileTotalFitsInt32) {
  constexpr Count kMax = std::numeric_limits<std::int32_t>::max();
  const DictTransposeMatrix at_limit =
      bulk_matrix(2, {{0, 1, kMax - 1}, {1, 1, 1}});
  EXPECT_TRUE(at_limit.has_dense_mirror());
  EXPECT_EQ(at_limit.get(0, 1), kMax - 1);

  const DictTransposeMatrix past_limit =
      bulk_matrix(2, {{0, 1, kMax}, {1, 1, 1}});
  EXPECT_FALSE(past_limit.has_dense_mirror());
  EXPECT_EQ(past_limit.get(0, 1), kMax);
  EXPECT_TRUE(past_limit.check_consistency());

  // An add that takes a cell past int32 hands lookups back to the
  // slices instead of storing a wrapped value.
  DictTransposeMatrix grown = at_limit;
  grown.add(0, 1, 1);
  EXPECT_TRUE(grown.has_dense_mirror());
  EXPECT_EQ(grown.get(0, 1), kMax);
  grown.add(0, 1, 1);
  EXPECT_FALSE(grown.has_dense_mirror());
  EXPECT_EQ(grown.get(0, 1), kMax + 1);
  EXPECT_EQ(grown.row_probe(0).get(1), kMax + 1);
  EXPECT_EQ(grown.col_probe(1).get(0), kMax + 1);
  EXPECT_TRUE(grown.check_consistency());
}

}  // namespace
}  // namespace hsbp::blockmodel

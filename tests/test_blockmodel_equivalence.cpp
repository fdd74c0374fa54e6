/// Bit-identity of the optimized hot-path kernels against their pre-PR
/// reference transcriptions (tests/reference_kernels.hpp). Every
/// comparison uses exact equality: the scratch-arena/xlogx-table/flat-
/// slice rewrite must be a pure performance change, with no numerical
/// drift at all.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/merge_delta.hpp"
#include "blockmodel/vertex_move_delta.hpp"
#include "blockmodel/xlogx_table.hpp"
#include "generator/dcsbm.hpp"
#include "reference_kernels.hpp"
#include "sbp/hastings.hpp"
#include "util/rng.hpp"

namespace hsbp::blockmodel {
namespace {

using graph::Graph;
using graph::Vertex;

TEST(XlogxTable, BitIdenticalToLiveLogAcrossTable) {
  // Every tabulated integer, both sides of the table boundary, and a
  // spread of large values must match the live-log reference exactly.
  for (Count x = 0; x < static_cast<Count>(kXlogxTableSize); ++x) {
    EXPECT_EQ(xlogx_count(x), reference::xlogx(static_cast<double>(x)))
        << "x=" << x;
  }
  const Count boundary = static_cast<Count>(kXlogxTableSize);
  for (Count x = boundary - 2; x <= boundary + 2; ++x) {
    EXPECT_EQ(xlogx_count(x), reference::xlogx(static_cast<double>(x)))
        << "x=" << x;
  }
  for (Count x = boundary; x < boundary * 64; x += 997) {
    EXPECT_EQ(xlogx_count(x), reference::xlogx(static_cast<double>(x)))
        << "x=" << x;
  }
  // A stale A-SBP view can stage a negative count (DESIGN §13). It must
  // take the live-log fallback, never index the table: NaN, bitwise
  // equal to the reference (NaN != NaN, so compare the bits).
  for (const Count x : {Count{-1}, Count{-2}, -boundary}) {
    const double got = xlogx_count(x);
    const double ref = reference::xlogx(static_cast<double>(x));
    EXPECT_TRUE(std::isnan(got)) << "x=" << x;
    EXPECT_EQ(std::memcmp(&got, &ref, sizeof(double)), 0) << "x=" << x;
  }
}

struct DensityCase {
  graph::Vertex vertices;
  std::int32_t communities;
  graph::EdgeCount edges;
  bool dense_mirror;  ///< whether the built matrix mirrors its cells
};

/// Sparse, medium, and dense DCSBM graphs: density controls the
/// neighbor-block fan-out k and hence how hard the tallied dedup and
/// the flat slices are exercised. At C = 6 every matrix carries the
/// dense cell mirror, so the last two cases, with C·C > 16·E, keep the
/// slice-probe lookup path under the same comparison.
const DensityCase kDensities[] = {
    {120, 6, 360, true},      // sparse: avg degree 3
    {120, 6, 1800, true},     // medium: avg degree 15
    {120, 6, 7200, true},     // dense: avg degree 60, k often ≈ num_blocks
    {120, 100, 360, false},   // C ≈ V: avg degree 3, 100² > 16·360
    {200, 160, 1200, false},  // C ≈ V: avg degree 12, 160² > 16·1200
};

class KernelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(KernelEquivalence, MoveKernelsBitIdenticalOnRandomMoves) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const DensityCase& dc = kDensities[std::get<1>(GetParam())];

  generator::DcsbmParams params;
  params.num_vertices = dc.vertices;
  params.num_communities = dc.communities;
  params.num_edges = dc.edges;
  params.seed = seed;
  const auto generated = generator::generate_dcsbm(params);
  const Graph& g = generated.graph;

  util::Rng rng(seed * 7919 + 31);
  std::vector<std::int32_t> state(static_cast<std::size_t>(dc.vertices));
  for (auto& label : state) {
    label = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(dc.communities)));
  }
  auto b = Blockmodel::from_assignment(g, state, dc.communities);
  ASSERT_EQ(b.matrix().has_dense_mirror(), dc.dense_mirror);
  const auto view = [&b](Vertex u) { return b.block_of(u); };

  MoveScratch scratch;
  int compared = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const auto v = static_cast<Vertex>(
        rng.uniform_int(static_cast<std::uint64_t>(dc.vertices)));
    const BlockId from = b.block_of(v);
    const auto to = static_cast<BlockId>(
        rng.uniform_int(static_cast<std::uint64_t>(dc.communities)));
    if (to == from) continue;

    // Reference chain: allocate-per-call kernels.
    const auto ref_nb = reference::gather_neighbor_blocks_view(g, view, v);
    const auto ref_delta = reference::vertex_move_delta(b, from, to, ref_nb);
    const double ref_corr =
        reference::hastings_correction(b, ref_nb, from, to, ref_delta);

    // Optimized chain: one scratch arena end to end.
    gather_neighbor_blocks_into(g, view, v, b.num_blocks(), scratch);
    EXPECT_EQ(scratch.nb.out, ref_nb.out);
    EXPECT_EQ(scratch.nb.in, ref_nb.in);
    EXPECT_EQ(scratch.nb.self_loops, ref_nb.self_loops);
    EXPECT_EQ(scratch.nb.degree_out, ref_nb.degree_out);
    EXPECT_EQ(scratch.nb.degree_in, ref_nb.degree_in);

    vertex_move_delta_into(b, from, to, scratch.nb, scratch);
    EXPECT_EQ(scratch.delta_mdl, ref_delta.delta_mdl)
        << "v=" << v << " from=" << from << " to=" << to;
    // The hot path keeps no cell list. Its staged pre/post values must
    // follow the reference cell list position by position, which keeps
    // the canonical cell order under test.
    ASSERT_GE(scratch.batch.old_vals.size(), ref_delta.cell_deltas.size());
    for (std::size_t i = 0; i < ref_delta.cell_deltas.size(); ++i) {
      const CellDelta& cd = ref_delta.cell_deltas[i];
      const Count before = b.matrix().get(cd.row, cd.col);
      EXPECT_EQ(scratch.batch.old_vals[i], before) << "cell " << i;
      EXPECT_EQ(scratch.batch.new_vals[i], before + cd.delta) << "cell " << i;
    }

    const double opt_corr = sbp::hastings_correction(b, from, to, scratch);
    EXPECT_EQ(opt_corr, ref_corr) << "v=" << v << " from=" << from
                                  << " to=" << to;

    // The by-value API builds the cell list off the hot path, in the
    // same canonical order.
    const MoveDelta by_value = vertex_move_delta(b, from, to, ref_nb);
    EXPECT_EQ(by_value.delta_mdl, ref_delta.delta_mdl);
    ASSERT_EQ(by_value.cell_deltas.size(), ref_delta.cell_deltas.size());
    for (std::size_t i = 0; i < ref_delta.cell_deltas.size(); ++i) {
      EXPECT_EQ(by_value.cell_deltas[i].row, ref_delta.cell_deltas[i].row);
      EXPECT_EQ(by_value.cell_deltas[i].col, ref_delta.cell_deltas[i].col);
      EXPECT_EQ(by_value.cell_deltas[i].delta,
                ref_delta.cell_deltas[i].delta);
    }

    // The O(1) post-move lookup must agree with the scanning reference
    // on every cell of the affected rows/columns.
    for (BlockId r = 0; r < b.num_blocks(); ++r) {
      EXPECT_EQ(move_new_value(b, scratch, from, r),
                reference::new_value(b, ref_delta, from, r));
      EXPECT_EQ(move_new_value(b, scratch, r, to),
                reference::new_value(b, ref_delta, r, to));
    }

    ++compared;
    // Walk the chain so later trials see evolving, messy matrices.
    if (b.block_size(from) > 1 && trial % 3 == 0) b.move_vertex(g, v, to);
  }
  EXPECT_GT(compared, 500);
}

TEST_P(KernelEquivalence, MergeDeltaBitIdenticalOnRandomMerges) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const DensityCase& dc = kDensities[std::get<1>(GetParam())];

  generator::DcsbmParams params;
  params.num_vertices = dc.vertices;
  params.num_communities = dc.communities;
  params.num_edges = dc.edges;
  params.seed = seed + 17;
  const auto generated = generator::generate_dcsbm(params);
  const Graph& g = generated.graph;
  const auto b = Blockmodel::from_assignment(g, generated.ground_truth,
                                             dc.communities);
  ASSERT_EQ(b.matrix().has_dense_mirror(), dc.dense_mirror);

  util::Rng rng(seed + 101);
  for (int trial = 0; trial < 200; ++trial) {
    const auto from = static_cast<BlockId>(
        rng.uniform_int(static_cast<std::uint64_t>(dc.communities)));
    const auto to = static_cast<BlockId>(
        rng.uniform_int(static_cast<std::uint64_t>(dc.communities)));
    if (from == to) continue;
    EXPECT_EQ(merge_delta_mdl(b, from, to, g.num_vertices(), g.num_edges()),
              reference::merge_delta_mdl(b, from, to, g.num_vertices(),
                                         g.num_edges()))
        << "merge " << from << " into " << to;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByDensity, KernelEquivalence,
    ::testing::Combine(::testing::Values<std::uint64_t>(7, 21, 63),
                       ::testing::Values(0, 1, 2, 3, 4)));

}  // namespace
}  // namespace hsbp::blockmodel

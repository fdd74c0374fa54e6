/// Bit-identity of the pass-to-pass delta application (DESIGN §11):
/// after every pass of every parallel variant, the delta-applied
/// blockmodel must equal a from-scratch rebuild of the pass snapshot
/// exactly — matrix cells (both slice directions), degrees, sizes, and
/// the MDL double. No tolerances: the fixed-point likelihood sums make
/// the two paths produce the same bits by construction, and this suite
/// is the enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/mdl.hpp"
#include "generator/dcsbm.hpp"
#include "sbp/async_pass.hpp"
#include "sbp/mcmc_common.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp::detail {
namespace {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using graph::Vertex;

struct Density {
  graph::EdgeCount edges;
};

constexpr Vertex kVertices = 120;
constexpr BlockId kBlocks = 6;

generator::GeneratedGraph make_graph(graph::EdgeCount edges, std::uint64_t seed) {
  generator::DcsbmParams p;
  p.num_vertices = kVertices;
  p.num_communities = kBlocks;
  p.num_edges = edges;
  p.ratio_within_between = 3.0;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

/// Exact equality of two blockmodels: every cell in both slice
/// directions, the incremental counters, degrees, sizes, and the MDL
/// doubles bit-for-bit (EXPECT_EQ, not EXPECT_NEAR).
void expect_identical(const Blockmodel& got, const Blockmodel& want,
                      const graph::Graph& graph, const char* context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(got.num_blocks(), want.num_blocks());
  EXPECT_EQ(got.assignment(), want.assignment());
  EXPECT_EQ(got.matrix().total(), want.matrix().total());
  EXPECT_EQ(got.matrix().nonzeros(), want.matrix().nonzeros());
  for (BlockId r = 0; r < got.num_blocks(); ++r) {
    for (const auto& [col, count] : got.matrix().row(r)) {
      EXPECT_EQ(count, want.matrix().get(r, col))
          << "row cell (" << r << ", " << col << ")";
    }
    for (const auto& [col, count] : want.matrix().row(r)) {
      EXPECT_EQ(count, got.matrix().get(r, col))
          << "missing row cell (" << r << ", " << col << ")";
    }
    for (const auto& [row, count] : got.matrix().col(r)) {
      EXPECT_EQ(count, want.matrix().get(row, r))
          << "col cell (" << row << ", " << r << ")";
    }
    EXPECT_EQ(got.degree_out(r), want.degree_out(r)) << "d_out of " << r;
    EXPECT_EQ(got.degree_in(r), want.degree_in(r)) << "d_in of " << r;
    EXPECT_EQ(got.block_size(r), want.block_size(r)) << "size of " << r;
  }
  // Exact double equality: both sides decode the same fixed-point sums.
  EXPECT_EQ(got.log_likelihood(), want.log_likelihood());
  EXPECT_EQ(
      blockmodel::mdl(got, graph.num_vertices(), graph.num_edges()),
      blockmodel::mdl(want, graph.num_vertices(), graph.num_edges()));
  // At C = 6 every state carries the dense cell mirror, which
  // check_consistency() compares cell by cell with the slices.
  EXPECT_TRUE(got.matrix().has_dense_mirror());
  EXPECT_TRUE(got.check_consistency(graph));
}

/// Reference state for the current workspace memberships: a fresh
/// from-scratch construction.
Blockmodel reference_of(const graph::Graph& graph, const PassWorkspace& ws,
                        BlockId num_blocks) {
  return Blockmodel::from_assignment(graph, snapshot_assignment(ws.shared),
                                     num_blocks);
}

constexpr double kForceDelta = 1e12;   ///< threshold no pass can exceed
constexpr double kForceRebuild = -1.0; ///< any moved degree exceeds it

class DeltaApplyBitIdentity
    : public ::testing::TestWithParam<graph::EdgeCount> {};

TEST_P(DeltaApplyBitIdentity, AsbpPassesDeltaVsRebuild) {
  const auto g = make_graph(GetParam(), 101);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, kBlocks);
  std::vector<Vertex> all(static_cast<std::size_t>(kVertices));
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(21, 4);
  PassWorkspace ws;
  ws.reset(b);

  for (int pass = 0; pass < 4; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    async_pass(g.graph, b, ws, all, 1.0, rngs);
    const auto want = reference_of(g.graph, ws, kBlocks);

    // Same pass applied both ways: the delta path to b, the rebuild
    // path to a copy. Both must land on the reference exactly.
    Blockmodel via_rebuild = b;
    const auto delta_apply = finish_pass(g.graph, b, ws, kForceDelta);
    EXPECT_FALSE(delta_apply.rebuilt);
    const auto rebuild_apply =
        finish_pass(g.graph, via_rebuild, ws, kForceRebuild);
    EXPECT_EQ(rebuild_apply.rebuilt, rebuild_apply.moved > 0);
    EXPECT_EQ(delta_apply.moved, rebuild_apply.moved);
    EXPECT_EQ(delta_apply.moved_degree, rebuild_apply.moved_degree);

    expect_identical(b, want, g.graph, "delta path");
    expect_identical(via_rebuild, want, g.graph, "rebuild path");
  }
}

TEST_P(DeltaApplyBitIdentity, HsbpPassesWithSerialSweep) {
  const auto g = make_graph(GetParam(), 102);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, kBlocks);

  // Manual high/low degree split: top 10% by total degree go serial.
  std::vector<Vertex> order(static_cast<std::size_t>(kVertices));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](Vertex a, Vertex c) {
    return g.graph.degree(a) > g.graph.degree(c);
  });
  const std::vector<Vertex> high(order.begin(), order.begin() + 12);
  const std::vector<Vertex> low(order.begin() + 12, order.end());

  util::RngPool rngs(22, 4);
  util::Rng& serial_rng = rngs.stream(0);
  blockmodel::MoveScratch scratch;
  PassWorkspace ws;
  ws.reset(b);

  for (int pass = 0; pass < 4; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    // Synchronous high-degree sweep with mirrored moves (Alg. 4 first
    // half), exactly as hybrid_phase interleaves with the workspace.
    const auto fresh_view = [&b](Vertex u) { return b.block_of(u); };
    for (const Vertex v : high) {
      const auto result =
          evaluate_vertex(g.graph, b, fresh_view, v,
                          b.block_size(b.block_of(v)), 1.0, serial_rng,
                          scratch);
      if (result.moved) {
        const auto from = b.block_of(v);
        b.move_vertex(g.graph, v, result.to);
        ws.sync_move(v, from, result.to);
      }
    }
    async_pass(g.graph, b, ws, low, 1.0, rngs);
    const auto want = reference_of(g.graph, ws, kBlocks);

    Blockmodel via_rebuild = b;
    finish_pass(g.graph, b, ws, kForceDelta);
    finish_pass(g.graph, via_rebuild, ws, kForceRebuild);
    expect_identical(b, want, g.graph, "delta path");
    expect_identical(via_rebuild, want, g.graph, "rebuild path");
  }
}

TEST_P(DeltaApplyBitIdentity, BsbpBatchesDeltaVsRebuild) {
  const auto g = make_graph(GetParam(), 103);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, kBlocks);
  std::vector<Vertex> all(static_cast<std::size_t>(kVertices));
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(23, 4);
  PassWorkspace ws;
  ws.reset(b);
  constexpr int kBatches = 4;

  for (int pass = 0; pass < 2; ++pass) {
    rngs.stream(0).shuffle(all);
    for (int batch = 0; batch < kBatches; ++batch) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " batch " +
                   std::to_string(batch));
      const std::size_t begin =
          all.size() * static_cast<std::size_t>(batch) / kBatches;
      const std::size_t end =
          all.size() * static_cast<std::size_t>(batch + 1) / kBatches;
      const std::span<const Vertex> slice(all.data() + begin, end - begin);
      async_pass(g.graph, b, ws, slice, 1.0, rngs);
      const auto want = reference_of(g.graph, ws, kBlocks);

      Blockmodel via_rebuild = b;
      finish_pass(g.graph, b, ws, kForceDelta);
      finish_pass(g.graph, via_rebuild, ws, kForceRebuild);
      expect_identical(b, want, g.graph, "delta path");
      expect_identical(via_rebuild, want, g.graph, "rebuild path");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, DeltaApplyBitIdentity,
                         ::testing::Values(360, 1800, 7200),
                         [](const auto& info) {
                           return "edges" + std::to_string(info.param);
                         });

/// Crossing the rebuild threshold flips finish_pass between its two
/// paths, and both land on the same assignment, cell values, degrees,
/// sizes and MDL. They do not land on the same slice entry order: a
/// rebuild lays each slice out in build order, the delta path leaves
/// swap-remove/append order, and proposals walk slices in entry order.
/// So the threshold can change a chain's later draws (DESIGN §11); this
/// test does not compare entry order.
TEST(AdaptiveFallback, ThresholdCrossingFlipsPathKeepsCountsAndMdl) {
  const auto g = make_graph(1800, 104);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, kBlocks);
  std::vector<Vertex> all(static_cast<std::size_t>(kVertices));
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(24, 4);
  PassWorkspace ws;
  ws.reset(b);

  // Low beta → high acceptance → a pass with real degree mass moved.
  async_pass(g.graph, b, ws, all, 0.2, rngs);
  const auto want = reference_of(g.graph, ws, kBlocks);

  // Probe the pass's moved degree without consuming the log.
  Blockmodel probe = b;
  const auto measured = finish_pass(g.graph, probe, ws, kForceDelta);
  ASSERT_GT(measured.moved, 0) << "pass moved nothing; raise acceptance";
  const double frac = static_cast<double>(measured.moved_degree) /
                      (2.0 * static_cast<double>(g.graph.num_edges()));

  // Threshold just above the moved fraction → delta path; just below →
  // rebuild path. Either way the counts and MDL equal the reference's.
  Blockmodel via_delta = b;
  Blockmodel via_rebuild = b;
  const auto above = finish_pass(g.graph, via_delta, ws, frac * 1.01);
  const auto below = finish_pass(g.graph, via_rebuild, ws, frac * 0.99);
  EXPECT_FALSE(above.rebuilt);
  EXPECT_TRUE(below.rebuilt);
  expect_identical(via_delta, want, g.graph, "just-above threshold");
  expect_identical(via_rebuild, want, g.graph, "just-below threshold");
}

}  // namespace
}  // namespace hsbp::sbp::detail

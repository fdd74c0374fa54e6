/// Bit-identity of the pass-end update (DESIGN §11): after every pass
/// of every parallel variant, the blockmodel finish_pass() leaves must
/// equal a from-scratch build of the pass's memberships exactly —
/// matrix cells (both slice directions), degrees, sizes, and the
/// likelihood and MDL doubles. No tolerances: move_vertex keeps
/// the state a function of the memberships at every step, and this
/// suite is the enforcement.
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
constexpr BlockId kBlocks = 6;  ///< C·C ≤ 16·E: every state is mirrored

generator::GeneratedGraph make_graph(graph::EdgeCount edges, std::uint64_t seed,
                                     Vertex vertices = kVertices) {
  generator::DcsbmParams p;
  p.num_vertices = vertices;
  p.num_communities = kBlocks;
  p.num_edges = edges;
  p.ratio_within_between = 3.0;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

/// Exact equality of two blockmodels: every cell in both slice
/// directions, the incremental counters, degrees, sizes, the mirror
/// state, and the MDL doubles bit-for-bit (EXPECT_EQ, not EXPECT_NEAR).
/// check_consistency() compares every cell with a fresh build's and any
/// dense mirror cell by cell with the slices.
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
  // Exact double equality: both rescans add the same fixed-point terms,
  // in whatever order each side's slices list them.
  EXPECT_EQ(blockmodel::log_likelihood(got), blockmodel::log_likelihood(want));
  EXPECT_EQ(
      blockmodel::mdl(got, graph.num_vertices(), graph.num_edges()),
      blockmodel::mdl(want, graph.num_vertices(), graph.num_edges()));
  EXPECT_EQ(got.matrix().has_dense_mirror(), want.matrix().has_dense_mirror());
  EXPECT_TRUE(got.check_consistency(graph));
}

/// Reference state for the current workspace memberships: a fresh
/// from-scratch construction.
Blockmodel reference_of(const graph::Graph& graph, const PassWorkspace& ws,
                        BlockId num_blocks) {
  std::vector<std::int32_t> labels;
  for (const auto& label : ws.shared) labels.push_back(label.load());
  return Blockmodel::from_assignment(graph, labels, num_blocks);
}

class DeltaApplyBitIdentity
    : public ::testing::TestWithParam<graph::EdgeCount> {};

TEST_P(DeltaApplyBitIdentity, AsbpPassesDeltaVsRebuild) {
  const auto g = make_graph(GetParam(), 101);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, kBlocks);
  ASSERT_TRUE(b.matrix().has_dense_mirror());
  std::vector<Vertex> all(static_cast<std::size_t>(kVertices));
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(21, 4);
  PassWorkspace ws;
  ws.reset(b);

  for (int pass = 0; pass < 4; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    async_pass(g.graph, b, ws, all, 1.0, rngs);
    const auto want = reference_of(g.graph, ws, kBlocks);
    finish_pass(g.graph, b, ws);
    expect_identical(b, want, g.graph, "A-SBP pass");
  }
}

TEST_P(DeltaApplyBitIdentity, HsbpPassesWithSerialSweep) {
  const auto g = make_graph(GetParam(), 102);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, kBlocks);
  ASSERT_TRUE(b.matrix().has_dense_mirror());

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
    finish_pass(g.graph, b, ws);
    expect_identical(b, want, g.graph, "H-SBP pass");
  }
}

TEST_P(DeltaApplyBitIdentity, BsbpBatchesDeltaVsRebuild) {
  const auto g = make_graph(GetParam(), 103);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, kBlocks);
  ASSERT_TRUE(b.matrix().has_dense_mirror());
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
      finish_pass(g.graph, b, ws);
      expect_identical(b, want, g.graph, "B-SBP batch");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, DeltaApplyBitIdentity,
                         ::testing::Values(360, 1800, 7200),
                         [](const auto& info) {
                           return "edges" + std::to_string(info.param);
                         });

/// Passes that move more than a quarter of the directed edge mass 2E
/// are replayed through move_vertex like any other and land on the same
/// state as a fresh build of their memberships. Moves keep C and the
/// edge count, so the mirror state does not change: C = 6 keeps its
/// mirror and C = 120 on 800 edges (120² > 16·800) stays without one.
TEST(PassEndApply, HeavyPassMatchesFromAssignment) {
  struct HeavyCase {
    Vertex vertices;
    BlockId blocks;
    graph::EdgeCount edges;
    bool dense_mirror;
  };
  for (const HeavyCase& hc : {HeavyCase{kVertices, kBlocks, 1800, true},
                              HeavyCase{600, 120, 800, false}}) {
    SCOPED_TRACE("C " + std::to_string(hc.blocks));
    const auto g = make_graph(hc.edges, 104, hc.vertices);
    util::Rng label_rng(25);
    std::vector<std::int32_t> labels(static_cast<std::size_t>(hc.vertices));
    for (auto& label : labels) {
      label = static_cast<std::int32_t>(
          label_rng.uniform_int(static_cast<std::uint64_t>(hc.blocks)));
    }
    auto b = Blockmodel::from_assignment(g.graph, labels, hc.blocks);
    ASSERT_EQ(b.matrix().has_dense_mirror(), hc.dense_mirror);
    std::vector<Vertex> all(static_cast<std::size_t>(hc.vertices));
    std::iota(all.begin(), all.end(), 0);
    util::RngPool rngs(24, 4);
    PassWorkspace ws;
    ws.reset(b);

    // Low beta → high acceptance → passes that move most degree mass.
    int heavy_passes = 0;
    for (int pass = 0; pass < 4; ++pass) {
      SCOPED_TRACE("pass " + std::to_string(pass));
      async_pass(g.graph, b, ws, all, 0.1, rngs);
      graph::EdgeCount moved_degree = 0;
      for (const auto& log : ws.logs) {
        for (const MoveRecord& rec : log) {
          moved_degree += g.graph.degree(rec.v);
        }
      }
      if (4 * moved_degree > 2 * g.graph.num_edges()) ++heavy_passes;

      const auto want = reference_of(g.graph, ws, hc.blocks);
      finish_pass(g.graph, b, ws);
      expect_identical(b, want, g.graph, "pass end");
      EXPECT_EQ(b.matrix().has_dense_mirror(), hc.dense_mirror);
    }
    EXPECT_GE(heavy_passes, 2) << "passes moved too little; raise acceptance";
  }
}

}  // namespace
}  // namespace hsbp::sbp::detail

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "generator/dcsbm.hpp"
#include "sbp/hastings.hpp"
#include "sbp/proposal.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp {
namespace {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using blockmodel::Count;
using graph::Edge;
using graph::Graph;
using graph::Vertex;

Graph two_communities() {
  // Blocks {0,1,2} densely bidirected; {3,4,5} densely bidirected; one
  // bridge 2↔3.
  std::vector<Edge> edges;
  const auto add_bi = [&edges](graph::Vertex a, graph::Vertex b) {
    edges.emplace_back(a, b);
    edges.emplace_back(b, a);
  };
  add_bi(0, 1);
  add_bi(1, 2);
  add_bi(0, 2);
  add_bi(3, 4);
  add_bi(4, 5);
  add_bi(3, 5);
  add_bi(2, 3);
  return Graph::from_edges(6, edges);
}

const std::vector<std::int32_t> kTwoBlocks = {0, 0, 0, 1, 1, 1};

TEST(ProposeBlock, StaysInRange) {
  const Graph g = two_communities();
  const auto b = Blockmodel::from_assignment(g, kTwoBlocks, 2);
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto nb = blockmodel::gather_neighbor_blocks(g, kTwoBlocks, 0);
    const BlockId p = propose_block(b, nb, 0, false, rng);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 2);
  }
}

TEST(ProposeBlock, MergeNeverProposesSelf) {
  const Graph g = two_communities();
  const auto b = Blockmodel::from_assignment(g, kTwoBlocks, 2);
  util::Rng rng(2);
  for (BlockId c = 0; c < 2; ++c) {
    const auto nb = block_neighbor_counts(b, c);
    for (int i = 0; i < 500; ++i) {
      EXPECT_NE(propose_block(b, nb, c, true, rng), c);
    }
  }
}

TEST(ProposeBlock, IsolatedVertexGetsUniformProposals) {
  // Vertex 6 isolated; proposals must still be valid blocks, roughly
  // uniformly distributed.
  std::vector<Edge> edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}, {5, 4}};
  const Graph g = Graph::from_edges(7, edges);
  const std::vector<std::int32_t> assignment = {0, 0, 1, 1, 2, 2, 0};
  const auto b = Blockmodel::from_assignment(g, assignment, 3);
  util::Rng rng(3);
  const auto nb = blockmodel::gather_neighbor_blocks(g, assignment, 6);
  EXPECT_EQ(nb.degree_total(), 0);
  std::map<BlockId, int> counts;
  for (int i = 0; i < 3000; ++i) {
    ++counts[propose_block(b, nb, 0, false, rng)];
  }
  for (BlockId c = 0; c < 3; ++c) {
    EXPECT_NEAR(counts[c] / 3000.0, 1.0 / 3.0, 0.05);
  }
}

TEST(ProposeBlock, FavorsStronglyConnectedBlock) {
  // Vertex 0 sits in a dense community; the majority of proposals should
  // land on its own block (neighbor-guided step dominates).
  const Graph g = two_communities();
  const auto b = Blockmodel::from_assignment(g, kTwoBlocks, 2);
  util::Rng rng(4);
  const auto nb = blockmodel::gather_neighbor_blocks(g, kTwoBlocks, 0);
  int own = 0;
  constexpr int n = 5000;
  for (int i = 0; i < n; ++i) {
    own += (propose_block(b, nb, 0, false, rng) == 0);
  }
  EXPECT_GT(own, n / 2);
}

TEST(BlockNeighborCounts, MatchesMatrixSlices) {
  const Graph g = two_communities();
  const auto b = Blockmodel::from_assignment(g, kTwoBlocks, 2);
  const auto nb = block_neighbor_counts(b, 0);
  // Block 0: 6 within edges (self-loops of the super-vertex) + 1 out to
  // block 1 + 1 in from block 1.
  EXPECT_EQ(nb.self_loops, 6);
  ASSERT_EQ(nb.out.size(), 1u);
  EXPECT_EQ(nb.out[0].first, 1);
  EXPECT_EQ(nb.out[0].second, 1);
  ASSERT_EQ(nb.in.size(), 1u);
  EXPECT_EQ(nb.in[0].second, 1);
  EXPECT_EQ(nb.degree_out, b.degree_out(0));
  EXPECT_EQ(nb.degree_in, b.degree_in(0));
}

TEST(HastingsCorrection, ForwardTimesReverseIsOne) {
  // Detailed-balance identity: the correction of a move times the
  // correction of its reverse (evaluated after applying the move) is 1.
  generator::DcsbmParams params;
  params.num_vertices = 60;
  params.num_communities = 4;
  params.num_edges = 480;
  params.seed = 5;
  const auto generated = generator::generate_dcsbm(params);
  const Graph& g = generated.graph;
  auto b = Blockmodel::from_assignment(g, generated.ground_truth, 4);

  util::Rng rng(6);
  int tested = 0;
  for (int trial = 0; trial < 200 && tested < 50; ++trial) {
    const auto v = static_cast<graph::Vertex>(rng.uniform_int(60));
    const BlockId from = b.block_of(v);
    const auto to = static_cast<BlockId>(rng.uniform_int(4));
    if (to == from || b.block_size(from) <= 1) continue;

    const auto nb_fwd = blockmodel::gather_neighbor_blocks(g, b.assignment(), v);
    const auto delta_fwd = blockmodel::vertex_move_delta(b, from, to, nb_fwd);
    const double h_fwd = hastings_correction(b, nb_fwd, from, to, delta_fwd);

    auto moved = b;
    moved.move_vertex(g, v, to);
    const auto nb_bwd =
        blockmodel::gather_neighbor_blocks(g, moved.assignment(), v);
    const auto delta_bwd =
        blockmodel::vertex_move_delta(moved, to, from, nb_bwd);
    const double h_bwd =
        hastings_correction(moved, nb_bwd, to, from, delta_bwd);

    ASSERT_GT(h_fwd, 0.0);
    EXPECT_NEAR(h_fwd * h_bwd, 1.0, 1e-9);
    ++tested;
  }
  EXPECT_GE(tested, 20);
}

TEST(HastingsCorrection, IsolatedVertexIsNeutral) {
  std::vector<Edge> edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}};
  const Graph g = Graph::from_edges(5, edges);
  const std::vector<std::int32_t> assignment = {0, 0, 1, 1, 0};
  const auto b = Blockmodel::from_assignment(g, assignment, 2);
  const auto nb = blockmodel::gather_neighbor_blocks(g, assignment, 4);
  const auto delta = blockmodel::vertex_move_delta(b, 0, 1, nb);
  EXPECT_DOUBLE_EQ(hastings_correction(b, nb, 0, 1, delta), 1.0);
}

// ---- HastingsBound: hastings_bound() must bound hastings_correction()
// on every state an MCMC phase can present, or early rejection would
// reject a move the plain acceptance rule accepts.

/// Correction and bound for moving v to `to`, with v's neighbor blocks
/// read through `labels`. `labels` may have moved on from the
/// assignment `b` was built from, as in an A-SBP pass.
struct BoundCase {
  double correction = 0.0;
  double bound = 0.0;
  /// Backward t = from term per unit of k_t (0 without such a term);
  /// above 1 only under staleness.
  double from_term = 0.0;
};

BoundCase bound_case(const Graph& g, const Blockmodel& b,
                     const std::vector<std::int32_t>& labels, Vertex v,
                     BlockId to, blockmodel::MoveScratch& scratch) {
  const BlockId from = labels[static_cast<std::size_t>(v)];
  const blockmodel::FlatMembershipView view{labels.data()};
  blockmodel::gather_neighbor_blocks_into(g, view, v, b.num_blocks(), scratch);
  blockmodel::vertex_move_delta_into(b, from, to, scratch.nb, scratch);
  BoundCase out;
  out.correction = hastings_correction(b, from, to, scratch);
  out.bound =
      hastings_bound(b, g.num_edges(), from, scratch.nb.degree_total());
  if (scratch.out_count(from) + scratch.in_count(from) > 0) {
    out.from_term =
        (2.0 * static_cast<double>(
                   blockmodel::move_new_value(b, scratch, from, from)) +
         1.0) /
        (static_cast<double>(b.degree_total(from) -
                             scratch.nb.degree_total()) +
         b.num_blocks());
  }
  return out;
}

/// The KernelEquivalence densities (test_blockmodel_equivalence.cpp):
/// average degree 3, 15 and 60 on 120 vertices in 6 communities.
const graph::EdgeCount kBoundEdges[] = {360, 1800, 7200};

generator::GeneratedGraph bound_graph(graph::EdgeCount edges,
                                      std::uint64_t seed) {
  generator::DcsbmParams params;
  params.num_vertices = 120;
  params.num_communities = 6;
  params.num_edges = edges;
  params.seed = seed;
  return generator::generate_dcsbm(params);
}

std::vector<std::int32_t> random_labels(Vertex n, BlockId blocks,
                                        util::Rng& rng) {
  std::vector<std::int32_t> labels(static_cast<std::size_t>(n));
  for (auto& label : labels) {
    label = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(blocks)));
  }
  return labels;
}

TEST(HastingsBound, HoldsOnRandomConsistentStates) {
  blockmodel::MoveScratch scratch;
  int checked = 0;
  for (const graph::EdgeCount edges : kBoundEdges) {
    for (const std::uint64_t seed : {7u, 21u, 63u}) {
      const Graph g = bound_graph(edges, seed).graph;
      util::Rng rng(seed * 7919 + 31);
      std::vector<std::int32_t> labels = random_labels(120, 6, rng);
      auto b = Blockmodel::from_assignment(g, labels, 6);
      for (int trial = 0; trial < 300; ++trial) {
        const auto v = static_cast<Vertex>(rng.uniform_int(120));
        const BlockId from = labels[static_cast<std::size_t>(v)];
        const auto to = static_cast<BlockId>(rng.uniform_int(6));
        if (to == from) continue;
        const BoundCase c = bound_case(g, b, labels, v, to, scratch);
        EXPECT_LE(c.correction, c.bound)
            << "E=" << edges << " v=" << v << " " << from << "->" << to;
        EXPECT_LE(c.from_term, 1.0);  // consistent: every term ≤ k_t
        ++checked;
        // Walk the chain so later trials see evolving matrices.
        if (b.block_size(from) > 1 && trial % 3 == 0) {
          b.move_vertex(g, v, to);
          labels[static_cast<std::size_t>(v)] = to;
        }
      }
    }
  }
  EXPECT_GT(checked, 2000);
}

TEST(HastingsBound, HoldsOnStaleStates) {
  // b is built from A; neighbor blocks are read from A', where a third
  // of the vertices other than v have moved — an A-SBP pass mid-way.
  blockmodel::MoveScratch scratch;
  int checked = 0;
  for (const graph::EdgeCount edges : kBoundEdges) {
    for (const std::uint64_t seed : {7u, 21u, 63u}) {
      const Graph g = bound_graph(edges, seed + 3).graph;
      util::Rng rng(seed * 104729 + 7);
      const std::vector<std::int32_t> a = random_labels(120, 6, rng);
      const auto b = Blockmodel::from_assignment(g, a, 6);
      std::vector<std::int32_t> a_prime = a;
      std::vector<bool> moved(120, false);
      for (Vertex u = 0; u < 120; ++u) {
        if (rng.uniform() < 1.0 / 3.0) {
          a_prime[static_cast<std::size_t>(u)] =
              static_cast<std::int32_t>(rng.uniform_int(6));
          moved[static_cast<std::size_t>(u)] = true;
        }
      }
      for (int trial = 0; trial < 300; ++trial) {
        const auto v = static_cast<Vertex>(rng.uniform_int(120));
        if (moved[static_cast<std::size_t>(v)]) continue;
        const auto to = static_cast<BlockId>(rng.uniform_int(6));
        if (to == a[static_cast<std::size_t>(v)]) continue;
        const BoundCase c = bound_case(g, b, a_prime, v, to, scratch);
        EXPECT_LE(c.correction, c.bound)
            << "E=" << edges << " v=" << v << " to=" << to;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000);

  // A stale t = from term above 1. Under A, {0..5} is a closed
  // bidirected clique in block 0 (so M_00 = d_0 / 2) and {6, 7} a pair
  // in block 1. Under A', 1..4 have moved to block 1: vertex 0 keeps one
  // neighbor in block 0 but all ten of its edge ends still count in
  // d_0, so the post-move M'_00 is out of proportion to d_0 − deg(0).
  std::vector<Edge> edges;
  const auto add_bi = [&edges](Vertex x, Vertex y) {
    edges.emplace_back(x, y);
    edges.emplace_back(y, x);
  };
  for (Vertex x = 0; x < 6; ++x) {
    for (Vertex y = x + 1; y < 6; ++y) add_bi(x, y);
  }
  add_bi(6, 7);
  const Graph clique = Graph::from_edges(8, edges);
  const std::vector<std::int32_t> a = {0, 0, 0, 0, 0, 0, 1, 1};
  const std::vector<std::int32_t> a_prime = {0, 1, 1, 1, 1, 0, 1, 1};
  const auto b = Blockmodel::from_assignment(clique, a, 2);
  const BoundCase c = bound_case(clique, b, a_prime, 0, 1, scratch);
  EXPECT_GT(c.from_term, 1.0);  // (2·28 + 1) / (60 − 10 + 2)
  EXPECT_LE(c.correction, c.bound);
}

TEST(HastingsBound, HoldsOnEdgeCases) {
  // Two blocks (C = 2) throughout, so every neighbor term is a corner
  // term: t ∈ {from, to}.
  blockmodel::MoveScratch scratch;

  // Isolated vertex 4: no terms, correction 1.
  {
    const std::vector<Edge> edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}};
    const Graph g = Graph::from_edges(5, edges);
    const std::vector<std::int32_t> labels = {0, 0, 1, 1, 0};
    const auto b = Blockmodel::from_assignment(g, labels, 2);
    const BoundCase c = bound_case(g, b, labels, 4, 1, scratch);
    EXPECT_EQ(c.correction, 1.0);
    EXPECT_LE(c.correction, c.bound);
  }

  // Self-loops: vertex 0 with a double self-loop and neighbors in both
  // blocks, vertex 4 with only a self-loop; moved each way.
  {
    const std::vector<Edge> edges = {{0, 0}, {0, 0}, {0, 1}, {1, 0}, {0, 2},
                                     {2, 3}, {3, 0}, {4, 4}, {1, 2}};
    const Graph g = Graph::from_edges(5, edges);
    const std::vector<std::int32_t> labels = {0, 0, 1, 1, 0};
    const auto b = Blockmodel::from_assignment(g, labels, 2);
    for (const Vertex v : {0, 4}) {
      const BoundCase c = bound_case(g, b, labels, v, 1, scratch);
      EXPECT_LE(c.correction, c.bound) << "v=" << v;
    }
    std::vector<std::int32_t> flipped = labels;
    flipped[0] = 1;
    const auto b_flipped = Blockmodel::from_assignment(g, flipped, 2);
    const BoundCase c = bound_case(g, b_flipped, flipped, 0, 0, scratch);
    EXPECT_LE(c.correction, c.bound);
  }

  // Near-tight: block 0 holds every edge, block 1 one isolated vertex.
  // Each forward term sits at its floor k_t/(2E + C), so the bound is
  // within 5% of the correction (156.9 against 165.1) — a bound that
  // undershot by more than that would fail here.
  {
    std::vector<Edge> edges;
    for (Vertex x = 0; x < 40; ++x) {
      edges.emplace_back(x, (x + 1) % 40);
      edges.emplace_back(x, (x + 7) % 40);
    }
    const Graph g = Graph::from_edges(41, edges);
    std::vector<std::int32_t> labels(41, 0);
    labels[40] = 1;
    const auto b = Blockmodel::from_assignment(g, labels, 2);
    const BoundCase c = bound_case(g, b, labels, 0, 1, scratch);
    EXPECT_LE(c.correction, c.bound);
    EXPECT_GT(c.correction, 0.9 * c.bound);
  }
}

TEST(HastingsBound, InfiniteWithoutAPositiveSourceDenominator) {
  // d_from − deg(v) + C ≤ 0 can only come from a view that disagrees
  // with b about v's own block; the bound then gives up.
  const Graph g = two_communities();
  const auto b = Blockmodel::from_assignment(g, kTwoBlocks, 2);
  const Count d0 = b.degree_total(0);
  EXPECT_TRUE(std::isinf(hastings_bound(b, g.num_edges(), 0, d0 + 2)));
  EXPECT_TRUE(std::isfinite(hastings_bound(b, g.num_edges(), 0, d0 + 1)));
}

}  // namespace
}  // namespace hsbp::sbp

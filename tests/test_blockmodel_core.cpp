#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "generator/dcsbm.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace hsbp::blockmodel {
namespace {

using graph::Edge;
using graph::Graph;
using graph::Vertex;

/// 5 vertices, 2 blocks {0,1,2} and {3,4}; includes a self-loop and a
/// parallel edge so every bookkeeping path is exercised.
Graph hand_graph() {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {0, 3},
                                   {3, 4}, {4, 3}, {1, 1}, {0, 3}};
  return Graph::from_edges(5, edges);
}

const std::vector<std::int32_t> kHandAssignment = {0, 0, 0, 1, 1};

TEST(Blockmodel, HandComputedMatrix) {
  const Graph g = hand_graph();
  const auto b = Blockmodel::from_assignment(g, kHandAssignment, 2);
  // Within block 0: (0,1),(1,2),(2,0),(1,1) → M[0][0] = 4.
  EXPECT_EQ(b.matrix().get(0, 0), 4);
  // Block 0 → block 1: two copies of (0,3) → M[0][1] = 2.
  EXPECT_EQ(b.matrix().get(0, 1), 2);
  EXPECT_EQ(b.matrix().get(1, 0), 0);
  // Within block 1: (3,4),(4,3) → M[1][1] = 2.
  EXPECT_EQ(b.matrix().get(1, 1), 2);
  EXPECT_EQ(b.matrix().total(), g.num_edges());
}

TEST(Blockmodel, HandComputedDegreesAndSizes) {
  const Graph g = hand_graph();
  const auto b = Blockmodel::from_assignment(g, kHandAssignment, 2);
  EXPECT_EQ(b.degree_out(0), 6);
  EXPECT_EQ(b.degree_in(0), 4);
  EXPECT_EQ(b.degree_out(1), 2);
  EXPECT_EQ(b.degree_in(1), 4);
  EXPECT_EQ(b.block_size(0), 3);
  EXPECT_EQ(b.block_size(1), 2);
  EXPECT_EQ(b.degree_total(0), 10);
}

TEST(Blockmodel, IdentityPartition) {
  const Graph g = hand_graph();
  const auto b = Blockmodel::identity(g);
  EXPECT_EQ(b.num_blocks(), 5);
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_EQ(b.block_of(v), v);
    EXPECT_EQ(b.block_size(v), 1);
    EXPECT_EQ(b.degree_out(v), g.out_degree(v));
    EXPECT_EQ(b.degree_in(v), g.in_degree(v));
  }
  EXPECT_TRUE(b.check_consistency(g));
}

TEST(Blockmodel, ValidationErrors) {
  const Graph g = hand_graph();
  const std::vector<std::int32_t> short_assignment = {0, 0, 0};
  EXPECT_THROW(Blockmodel::from_assignment(g, short_assignment, 1),
               std::invalid_argument);
  const std::vector<std::int32_t> out_of_range = {0, 0, 0, 0, 2};
  EXPECT_THROW(Blockmodel::from_assignment(g, out_of_range, 2),
               std::invalid_argument);
  const std::vector<std::int32_t> negative = {0, 0, 0, 0, -1};
  EXPECT_THROW(Blockmodel::from_assignment(g, negative, 2),
               std::invalid_argument);
}

TEST(Blockmodel, MoveVertexUpdatesEverything) {
  const Graph g = hand_graph();
  auto b = Blockmodel::from_assignment(g, kHandAssignment, 2);
  b.move_vertex(g, 2, 1);  // vertex 2 (edges 1→2, 2→0) to block 1
  EXPECT_EQ(b.block_of(2), 1);
  EXPECT_EQ(b.block_size(0), 2);
  EXPECT_EQ(b.block_size(1), 3);
  EXPECT_TRUE(b.check_consistency(g));
  // M[0][0] loses (1,2) and (2,0): 4 → 2.
  EXPECT_EQ(b.matrix().get(0, 0), 2);
  // (1,2) becomes block0→block1, (2,0) becomes block1→block0.
  EXPECT_EQ(b.matrix().get(0, 1), 3);
  EXPECT_EQ(b.matrix().get(1, 0), 1);
}

TEST(Blockmodel, MoveVertexWithSelfLoop) {
  const Graph g = hand_graph();
  auto b = Blockmodel::from_assignment(g, kHandAssignment, 2);
  b.move_vertex(g, 1, 1);  // vertex 1 has the (1,1) self-loop
  EXPECT_TRUE(b.check_consistency(g));
  // Self-loop moved to the diagonal of block 1.
  EXPECT_EQ(b.matrix().get(1, 1), 3);
}

TEST(Blockmodel, MoveToSameBlockIsNoop) {
  const Graph g = hand_graph();
  auto b = Blockmodel::from_assignment(g, kHandAssignment, 2);
  const auto before = b.matrix().get(0, 0);
  b.move_vertex(g, 0, 0);
  EXPECT_EQ(b.matrix().get(0, 0), before);
  EXPECT_EQ(b.block_size(0), 3);
}

TEST(Blockmodel, MoveThereAndBackRestoresState) {
  const Graph g = hand_graph();
  auto b = Blockmodel::from_assignment(g, kHandAssignment, 2);
  const auto reference = Blockmodel::from_assignment(g, kHandAssignment, 2);
  b.move_vertex(g, 0, 1);
  b.move_vertex(g, 0, 0);
  EXPECT_EQ(b.assignment(), reference.assignment());
  for (BlockId r = 0; r < 2; ++r) {
    EXPECT_EQ(b.degree_out(r), reference.degree_out(r));
    EXPECT_EQ(b.degree_in(r), reference.degree_in(r));
    for (BlockId s = 0; s < 2; ++s) {
      EXPECT_EQ(b.matrix().get(r, s), reference.matrix().get(r, s));
    }
  }
}

/// Moving every vertex to another labelling lands on that labelling's
/// from-scratch build.
TEST(Blockmodel, RebuildMatchesFromAssignment) {
  const Graph g = hand_graph();
  auto b = Blockmodel::from_assignment(g, kHandAssignment, 2);
  const std::vector<std::int32_t> other = {1, 0, 1, 0, 1};
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    b.move_vertex(g, v, other[static_cast<std::size_t>(v)]);
  }
  const auto fresh = Blockmodel::from_assignment(g, other, 2);
  EXPECT_EQ(b.assignment(), fresh.assignment());
  for (BlockId r = 0; r < 2; ++r) {
    for (BlockId s = 0; s < 2; ++s) {
      EXPECT_EQ(b.matrix().get(r, s), fresh.matrix().get(r, s));
    }
  }
  EXPECT_TRUE(b.check_consistency(g));
}

/// Property: arbitrary random move sequences stay consistent with a
/// from-scratch rebuild.
class MoveSequenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoveSequenceProperty, IncrementalEqualsRebuilt) {
  generator::DcsbmParams params;
  params.num_vertices = 120;
  params.num_communities = 6;
  params.num_edges = 900;
  params.seed = GetParam();
  const auto generated = generator::generate_dcsbm(params);
  const Graph& g = generated.graph;

  auto b = Blockmodel::from_assignment(g, generated.ground_truth, 6);
  util::Rng rng(GetParam() * 31 + 7);
  for (int step = 0; step < 200; ++step) {
    const auto v = static_cast<Vertex>(rng.uniform_int(120));
    const auto to = static_cast<BlockId>(rng.uniform_int(6));
    if (b.block_size(b.block_of(v)) <= 1) continue;  // keep blocks non-empty
    b.move_vertex(g, v, to);
  }
  EXPECT_TRUE(b.check_consistency(g));
  EXPECT_EQ(b.matrix().total(), g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveSequenceProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace hsbp::blockmodel

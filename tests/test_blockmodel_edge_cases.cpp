#include <gtest/gtest.h>

#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/mdl.hpp"
#include "blockmodel/merge_delta.hpp"
#include "blockmodel/vertex_move_delta.hpp"
#include "sbp/hastings.hpp"

namespace hsbp::blockmodel {
namespace {

using graph::Edge;
using graph::Graph;

TEST(VertexMoveDelta, VertexWithOnlySelfLoops) {
  // Vertex 0 has two self-loops and nothing else; moving it transfers
  // the diagonal mass wholesale.
  const std::vector<Edge> edges = {{0, 0}, {0, 0}, {1, 2}, {2, 1}};
  const Graph g = Graph::from_edges(3, edges);
  const std::vector<std::int32_t> assignment = {0, 1, 1};
  const auto b = Blockmodel::from_assignment(g, assignment, 2);

  const auto nb = gather_neighbor_blocks(g, assignment, 0);
  EXPECT_EQ(nb.self_loops, 2);
  EXPECT_TRUE(nb.out.empty());
  EXPECT_TRUE(nb.in.empty());

  const auto delta = vertex_move_delta(b, 0, 1, nb);
  auto moved = b;
  moved.move_vertex(g, 0, 1);
  const double expected = mdl(moved, 3, 4) - mdl(b, 3, 4);
  EXPECT_NEAR(delta.delta_mdl, expected, 1e-10);
  EXPECT_EQ(moved.matrix().get(1, 1), 4);
  EXPECT_EQ(moved.matrix().get(0, 0), 0);
}

TEST(VertexMoveDelta, MoveIntoCurrentlyEmptyAdjacencyCells) {
  // Destination block shares no cells with the mover's neighbor blocks:
  // all destination cells are created from zero.
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 4}};
  const Graph g = Graph::from_edges(5, edges);
  const std::vector<std::int32_t> assignment = {0, 0, 1, 1, 2};
  const auto b = Blockmodel::from_assignment(g, assignment, 3);
  ASSERT_EQ(b.matrix().get(2, 0), 0);

  const auto nb = gather_neighbor_blocks(g, assignment, 0);
  const auto delta = vertex_move_delta(b, 0, 2, nb);
  auto moved = b;
  moved.move_vertex(g, 0, 2);
  EXPECT_NEAR(delta.delta_mdl, mdl(moved, 5, 5) - mdl(b, 5, 5), 1e-10);
  EXPECT_EQ(moved.matrix().get(2, 0), 1);  // 0→1 edge now block2→block0
}

TEST(HastingsCorrection, SelfLoopVertexRoundTripIsUnity) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}, {1, 0}, {2, 2}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);
  const std::vector<std::int32_t> assignment = {0, 0, 1};
  auto b = Blockmodel::from_assignment(g, assignment, 2);

  // Vertex 1 evaluated as the MCMC step does: gather into scratch,
  // ΔMDL, then the correction that replays the scratch.
  MoveScratch scratch;
  const auto correction = [&](const Blockmodel& model, BlockId from,
                              BlockId to) {
    const FlatMembershipView view{model.assignment().data()};
    gather_neighbor_blocks_into(g, view, 1, model.num_blocks(), scratch);
    vertex_move_delta_into(model, from, to, scratch.nb, scratch);
    return sbp::hastings_correction(model, from, to, scratch);
  };
  const double h_fwd = correction(b, 0, 1);

  auto moved = b;
  moved.move_vertex(g, 1, 1);
  const double h_bwd = correction(moved, 1, 0);
  EXPECT_NEAR(h_fwd * h_bwd, 1.0, 1e-10);
}

TEST(MergeDelta, MergingMutuallyUnconnectedBlocks) {
  // Blocks 0 and 2 have no edges between them; the merge delta must
  // still be exact (only corner/degree terms move).
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2},
                                   {4, 5}, {5, 4}, {1, 2}};
  const Graph g = Graph::from_edges(6, edges);
  const std::vector<std::int32_t> assignment = {0, 0, 1, 1, 2, 2};
  const auto b = Blockmodel::from_assignment(g, assignment, 3);
  ASSERT_EQ(b.matrix().get(0, 2), 0);
  ASSERT_EQ(b.matrix().get(2, 0), 0);

  const double delta = merge_delta_mdl(b, 0, 2, 6, 7);
  std::vector<std::int32_t> merged = {2, 2, 1, 1, 2, 2};
  // Compact: labels {1, 2} → {0, 1}.
  for (auto& label : merged) label = (label == 1) ? 0 : 1;
  const auto bm = Blockmodel::from_assignment(g, merged, 2);
  EXPECT_NEAR(delta, mdl(bm, 6, 7) - mdl(b, 6, 7), 1e-10);
}

TEST(MergeDelta, TwoBlocksDownToOneMatchesNullModel) {
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}};
  const Graph g = Graph::from_edges(4, edges);
  const std::vector<std::int32_t> assignment = {0, 0, 1, 1};
  const auto b = Blockmodel::from_assignment(g, assignment, 2);
  const double delta = merge_delta_mdl(b, 1, 0, 4, 5);
  const double expected = null_mdl(4, 5) - mdl(b, 4, 5);
  EXPECT_NEAR(delta, expected, 1e-10);
}

TEST(Blockmodel, MoveVertexBetweenBlocksWithParallelEdges) {
  const std::vector<Edge> edges = {{0, 1}, {0, 1}, {0, 1}, {1, 0}, {2, 0}};
  const Graph g = Graph::from_edges(3, edges);
  const std::vector<std::int32_t> assignment = {0, 1, 1};
  auto b = Blockmodel::from_assignment(g, assignment, 2);
  EXPECT_EQ(b.matrix().get(0, 1), 3);
  b.move_vertex(g, 1, 0);
  EXPECT_TRUE(b.check_consistency(g));
  EXPECT_EQ(b.matrix().get(0, 0), 4);  // 3 parallel + the return edge
}

TEST(Blockmodel, DegreesSurviveEmptyingABlock) {
  // move_vertex itself permits emptying (the guard lives in the MCMC
  // layer); the bookkeeping must stay exact regardless.
  const std::vector<Edge> edges = {{0, 1}, {1, 0}};
  const Graph g = Graph::from_edges(2, edges);
  const std::vector<std::int32_t> assignment = {0, 1};
  auto b = Blockmodel::from_assignment(g, assignment, 2);
  b.move_vertex(g, 1, 0);
  EXPECT_EQ(b.block_size(1), 0);
  EXPECT_EQ(b.degree_out(1), 0);
  EXPECT_EQ(b.degree_in(1), 0);
  EXPECT_EQ(b.matrix().get(0, 0), 2);
  EXPECT_TRUE(b.matrix().check_consistency());
}

}  // namespace
}  // namespace hsbp::blockmodel

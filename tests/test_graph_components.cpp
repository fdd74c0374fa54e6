#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/components.hpp"
#include "graph/graph.hpp"

namespace hsbp::graph {
namespace {

TEST(Components, EmptyGraph) {
  const Graph g;
  const auto info = weakly_connected_components(g);
  EXPECT_EQ(info.count, 0);
  EXPECT_TRUE(info.component_of.empty());
}

TEST(Components, EdgelessGraphIsAllSingletons) {
  const Graph g = Graph::from_edges(4, {});
  const auto info = weakly_connected_components(g);
  EXPECT_EQ(info.count, 4);
  for (const auto size : info.sizes) EXPECT_EQ(size, 1);
}

TEST(Components, DirectionIsIgnored) {
  // 0→1→2 chain: weakly connected even though 2 can't reach 0.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);
  const auto info = weakly_connected_components(g);
  EXPECT_EQ(info.count, 1);
  EXPECT_EQ(info.sizes[0], 3);
}

TEST(Components, TwoComponentsWithSizes) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {3, 4}};
  const Graph g = Graph::from_edges(6, edges);  // vertex 5 isolated
  const auto info = weakly_connected_components(g);
  EXPECT_EQ(info.count, 3);
  EXPECT_EQ(info.sizes[info.component_of[0]], 3);
  EXPECT_EQ(info.sizes[info.component_of[3]], 2);
  EXPECT_EQ(info.sizes[info.component_of[5]], 1);
  EXPECT_EQ(info.largest, info.component_of[0]);
}

TEST(Components, SameComponentSameLabel) {
  const std::vector<Edge> edges = {{0, 1}, {2, 1}, {3, 4}};
  const Graph g = Graph::from_edges(5, edges);
  const auto info = weakly_connected_components(g);
  EXPECT_EQ(info.component_of[0], info.component_of[1]);
  EXPECT_EQ(info.component_of[1], info.component_of[2]);
  EXPECT_EQ(info.component_of[3], info.component_of[4]);
  EXPECT_NE(info.component_of[0], info.component_of[3]);
}

TEST(Components, SelfLoopsDoNotConfuse) {
  const std::vector<Edge> edges = {{0, 0}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);
  const auto info = weakly_connected_components(g);
  EXPECT_EQ(info.count, 2);
}

TEST(Components, SizesSumToVertexCount) {
  const std::vector<Edge> edges = {{0, 1}, {2, 3}, {4, 5}, {5, 6}, {8, 8}};
  const Graph g = Graph::from_edges(10, edges);
  const auto info = weakly_connected_components(g);
  std::int64_t total = 0;
  for (const auto size : info.sizes) total += size;
  EXPECT_EQ(total, g.num_vertices());
}

}  // namespace
}  // namespace hsbp::graph

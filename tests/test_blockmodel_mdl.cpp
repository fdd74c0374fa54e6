#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/mdl.hpp"
#include "generator/dcsbm.hpp"
#include "graph/graph.hpp"
#include "util/omp_region.hpp"

namespace hsbp::blockmodel {
namespace {

using graph::Edge;
using graph::Graph;

TEST(Xlogx, Basics) {
  EXPECT_DOUBLE_EQ(xlogx(0.0), 0.0);
  EXPECT_DOUBLE_EQ(xlogx(1.0), 0.0);
  EXPECT_NEAR(xlogx(2.0), 2.0 * std::log(2.0), 1e-12);
  EXPECT_NEAR(xlogx(std::exp(1.0)), std::exp(1.0), 1e-12);
}

TEST(HFunction, Basics) {
  EXPECT_DOUBLE_EQ(h_function(0.0), 0.0);
  // h(1) = 2 log 2 − 0.
  EXPECT_NEAR(h_function(1.0), 2.0 * std::log(2.0), 1e-12);
  // h is increasing on small x.
  EXPECT_GT(h_function(0.2), h_function(0.1));
}

TEST(ModelDescriptionLength, Formula) {
  // E=100, V=50, C=4: E·h(16/100) + 50·log 4.
  const double expected =
      100.0 * h_function(0.16) + 50.0 * std::log(4.0);
  EXPECT_NEAR(model_description_length(50, 100, 4), expected, 1e-9);
}

TEST(ModelDescriptionLength, OneBlockNearZero) {
  // C=1: V·log 1 = 0, leaving only E·h(1/E) → small.
  const double v = model_description_length(100, 1000, 1);
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, 20.0);
}

TEST(LogLikelihood, HandComputedTwoBlocks) {
  // Two blocks, M = [[4,2],[0,2]], d_out = (6,2), d_in = (4,4).
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {0, 3},
                                   {3, 4}, {4, 3}, {1, 1}, {0, 3}};
  const Graph g = Graph::from_edges(5, edges);
  const std::vector<std::int32_t> assignment = {0, 0, 0, 1, 1};
  const auto b = Blockmodel::from_assignment(g, assignment, 2);

  // Direct Eq. 1: Σ M_rs log(M_rs / (d_out_r d_in_s)).
  double expected = 0.0;
  const double m[2][2] = {{4, 2}, {0, 2}};
  const double d_out[2] = {6, 2};
  const double d_in[2] = {4, 4};
  for (int r = 0; r < 2; ++r) {
    for (int s = 0; s < 2; ++s) {
      if (m[r][s] > 0) {
        expected += m[r][s] * std::log(m[r][s] / (d_out[r] * d_in[s]));
      }
    }
  }
  EXPECT_NEAR(log_likelihood(b), expected, 1e-9);
}

TEST(LogLikelihood, DecompositionMatchesDirectForm) {
  // On a random-ish small graph, the xlogx decomposition used by
  // log_likelihood must equal the direct Eq. 1 sum.
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}, {0, 2},
                                   {4, 4}, {4, 1}, {3, 4}, {2, 2}};
  const Graph g = Graph::from_edges(5, edges);
  const std::vector<std::int32_t> assignment = {0, 1, 2, 0, 1};
  const auto b = Blockmodel::from_assignment(g, assignment, 3);

  double direct = 0.0;
  for (BlockId r = 0; r < 3; ++r) {
    for (const auto& [s, count] : b.matrix().row(r)) {
      direct += static_cast<double>(count) *
                std::log(static_cast<double>(count) /
                         (static_cast<double>(b.degree_out(r)) *
                          static_cast<double>(b.degree_in(s))));
    }
  }
  EXPECT_NEAR(log_likelihood(b), direct, 1e-9);
}

TEST(Mdl, CombinesModelAndLikelihood) {
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}};
  const Graph g = Graph::from_edges(4, edges);
  const std::vector<std::int32_t> assignment = {0, 0, 1, 1};
  const auto b = Blockmodel::from_assignment(g, assignment, 2);
  const double expected =
      model_description_length(4, 4, 2) - log_likelihood(b);
  EXPECT_NEAR(mdl(b, 4, 4), expected, 1e-12);
}

TEST(NullMdl, MatchesOneBlockPartition) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {0, 2}, {1, 1}};
  const Graph g = Graph::from_edges(3, edges);
  const std::vector<std::int32_t> ones(3, 0);
  const auto b = Blockmodel::from_assignment(g, ones, 1);
  EXPECT_NEAR(null_mdl(g.num_vertices(), g.num_edges()),
              mdl(b, g.num_vertices(), g.num_edges()), 1e-9);
}

TEST(NullMdl, DegenerateInputs) {
  EXPECT_EQ(null_mdl(10, 0), 0.0);
}

TEST(LogLikelihood, SameAtEveryThreadCount) {
  // The rescan splits the rows among the threads and adds their
  // fixed-point partials as integers, so the decoded double is the same
  // at every team size — EXPECT_EQ on doubles, no tolerance.
  generator::DcsbmParams p;
  p.num_vertices = 300;
  p.num_communities = 24;
  p.num_edges = 3000;
  p.seed = 5;
  const auto g = generator::generate_dcsbm(p);
  const auto b =
      Blockmodel::from_assignment(g.graph, g.ground_truth, p.num_communities);
  const auto at_threads = [&b](int threads) {
    const util::ScopedThreads scoped(threads);
    return log_likelihood(b);
  };
  const double serial = at_threads(1);
  EXPECT_EQ(at_threads(2), serial);
  EXPECT_EQ(at_threads(3), serial);
  EXPECT_EQ(at_threads(4), serial);
}

/// True when some row lists the same cells in another order in `a`
/// than in `b`.
bool some_row_order_differs(const Blockmodel& a, const Blockmodel& b) {
  for (BlockId r = 0; r < a.num_blocks(); ++r) {
    const auto x = a.matrix().row(r).entries();
    const auto y = b.matrix().row(r).entries();
    for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
      if (x[i].key != y[i].key) return true;
    }
  }
  return false;
}

TEST(LogLikelihood, IndependentOfSliceEntryOrder) {
  // move_vertex appends new cells to a row and swap-removes emptied
  // ones, while a fresh build lists a row's cells by first sighting in
  // ascending vertex id. After every move below the two list some row
  // in another order, and the rescans must still agree to the bit: the
  // pass-end replay (DESIGN §11) rests on this.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4},
                                   {4, 3}, {1, 1}, {0, 3}, {2, 4}, {4, 0},
                                   {3, 1}, {1, 4}};
  const Graph g = Graph::from_edges(5, edges);
  std::vector<std::int32_t> assignment = {0, 0, 1, 1, 2};
  auto b = Blockmodel::from_assignment(g, assignment, 3);

  const std::vector<std::pair<graph::Vertex, BlockId>> moves = {
      {0, 1}, {2, 2}, {4, 0}, {0, 2}, {2, 1},
      {4, 2}, {3, 0}, {1, 2}, {0, 0}};
  for (const auto& [v, to] : moves) {
    b.move_vertex(g, v, to);
    assignment[static_cast<std::size_t>(v)] = to;
    const auto fresh = Blockmodel::from_assignment(g, assignment, 3);
    ASSERT_TRUE(some_row_order_differs(b, fresh)) << "after moving " << v;
    EXPECT_EQ(log_likelihood(b), log_likelihood(fresh));
    EXPECT_EQ(mdl(b, 5, 12), mdl(fresh, 5, 12));
  }
}

TEST(Mdl, GoodPartitionBeatsBadPartition) {
  // Two disconnected bidirected triangles: the true 2-block split must
  // have lower MDL than a mixed split.
  std::vector<Edge> edges;
  for (int i = 0; i < 3; ++i) {
    const auto a = static_cast<graph::Vertex>(i);
    const auto b2 = static_cast<graph::Vertex>((i + 1) % 3);
    edges.emplace_back(a, b2);
    edges.emplace_back(b2, a);
    edges.emplace_back(static_cast<graph::Vertex>(3 + i),
                       static_cast<graph::Vertex>(3 + (i + 1) % 3));
    edges.emplace_back(static_cast<graph::Vertex>(3 + (i + 1) % 3),
                       static_cast<graph::Vertex>(3 + i));
  }
  const Graph g = Graph::from_edges(6, edges);
  const std::vector<std::int32_t> good = {0, 0, 0, 1, 1, 1};
  const std::vector<std::int32_t> bad = {0, 1, 0, 1, 0, 1};
  const auto b_good = Blockmodel::from_assignment(g, good, 2);
  const auto b_bad = Blockmodel::from_assignment(g, bad, 2);
  EXPECT_LT(mdl(b_good, 6, 12), mdl(b_bad, 6, 12));
}

}  // namespace
}  // namespace hsbp::blockmodel

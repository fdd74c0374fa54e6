/// The exact part of the entry-order gate (DESIGN §7): a change that
/// only moves slice entries must leave every transition probability of
/// the chain as it is. ProposalExact checks vertex and merge proposals
/// against the enumerated proposal distribution, on a fixture built
/// fresh and on the same fixture built again in another entry order,
/// by moving every vertex home from a shifted start. EntryOrder checks that the kernels which
/// read cells by key and iterate the gather (ΔMDL of a vertex move, the
/// Hastings correction, mdl()) are bit-identical across two entry orders
/// of one blockmodel, and that merge ΔMDL, which sums its fold terms in
/// slice order, agrees to 1e-12 relative.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/mdl.hpp"
#include "blockmodel/merge_delta.hpp"
#include "generator/dcsbm.hpp"
#include "sbp/hastings.hpp"
#include "sbp/proposal.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp {
namespace {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using blockmodel::Count;
using blockmodel::NeighborBlockCounts;
using graph::Edge;
using graph::Graph;
using graph::Vertex;

/// `b` built again in another slice entry order: every vertex starts
/// one block over, then moves home with move_vertex, from the highest
/// id down. move_vertex appends the cells it creates and swap-removes
/// the cells it empties, so the lines fill in another order.
Blockmodel reordered(const Graph& graph, const Blockmodel& b) {
  std::vector<std::int32_t> shifted = b.assignment();
  for (auto& label : shifted) label = (label + 1) % b.num_blocks();
  Blockmodel out = Blockmodel::from_assignment(graph, shifted, b.num_blocks());
  for (Vertex v = graph.num_vertices() - 1; v >= 0; --v) {
    out.move_vertex(graph, v, b.block_of(v));
  }
  return out;
}

/// True if some row or column of `a` lists its entries in another order
/// than the same line of `b`.
bool entry_orders_differ(const Blockmodel& a, const Blockmodel& b) {
  const auto same = [](const blockmodel::FlatSlice& x,
                       const blockmodel::FlatSlice& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](const auto& e, const auto& f) {
                        return e.key == f.key && e.value == f.value;
                      });
  };
  for (BlockId r = 0; r < a.num_blocks(); ++r) {
    if (!same(a.matrix().row(r), b.matrix().row(r)) ||
        !same(a.matrix().col(r), b.matrix().col(r))) {
      return true;
    }
  }
  return false;
}

/// A fixture small enough to compute the proposal distribution exactly:
/// 4 blocks of two vertices, rows of up to four entries.
///
///   blocks: {0,1}, {2,3}, {4,5}, {6,7}
///   edges:  0→2, 0→4, 0→6, 0→0 (self-loop), 1→0, 2→3 ×2, 3→6, 4→5,
///           5→2, 6→1, 7→7 (self-loop), 7→4
struct ExactFixture {
  Graph graph;
  Blockmodel b;

  ExactFixture()
      : graph(Graph::from_edges(
            8, std::vector<Edge>{{0, 2},
                                 {0, 4},
                                 {0, 6},
                                 {0, 0},
                                 {1, 0},
                                 {2, 3},
                                 {2, 3},
                                 {3, 6},
                                 {4, 5},
                                 {5, 2},
                                 {6, 1},
                                 {7, 7},
                                 {7, 4}})),
        b(Blockmodel::from_assignment(
            graph, std::vector<std::int32_t>{0, 0, 1, 1, 2, 2, 3, 3}, 4)) {}
};

/// Exact probability of proposing each block for a mover in block
/// `current` with neighbor-block counts `nb`, by enumerating the
/// proposal chain of proposal.hpp:
///   step 1: no neighbors → uniform
///   step 2: block t of a uniform incident edge (self-loops → current)
///   step 3: escape with C/(d_t + C) → uniform
///   step 4: draw from row t + column t of M.
/// A merge (is_merge) excludes `current` from the uniform draws and
/// from step 4, falling back to uniform when nothing else is left.
std::vector<double> exact_distribution(const Blockmodel& b,
                                       const NeighborBlockCounts& nb,
                                       BlockId current, bool is_merge) {
  const BlockId blocks = b.num_blocks();
  const double c = static_cast<double>(blocks);
  std::vector<double> prob(static_cast<std::size_t>(blocks), 0.0);
  const auto add_uniform = [&](double weight) {
    for (BlockId s = 0; s < blocks; ++s) {
      if (is_merge && s == current) continue;
      prob[static_cast<std::size_t>(s)] += weight / (is_merge ? c - 1 : c);
    }
  };

  const auto total = static_cast<double>(nb.degree_total());
  if (total == 0) {
    add_uniform(1.0);
    return prob;
  }
  std::map<BlockId, double> neighbor_weight;
  double listed = 0;
  for (const auto& [t, count] : nb.out) {
    neighbor_weight[t] += static_cast<double>(count) / total;
    listed += static_cast<double>(count);
  }
  for (const auto& [t, count] : nb.in) {
    neighbor_weight[t] += static_cast<double>(count) / total;
    listed += static_cast<double>(count);
  }
  neighbor_weight[current] += (total - listed) / total;

  for (const auto& [t, weight] : neighbor_weight) {
    const double d_t = static_cast<double>(b.degree_total(t));
    const double escape = c / (d_t + c);
    add_uniform(weight * escape);
    const auto mass = [&](BlockId s) {
      return static_cast<double>(b.matrix().get(t, s) + b.matrix().get(s, t));
    };
    const double rest = is_merge ? d_t - mass(current) : d_t;
    if (rest <= 0) {
      add_uniform(weight * (1.0 - escape));
      continue;
    }
    for (BlockId s = 0; s < blocks; ++s) {
      if (is_merge && s == current) continue;
      prob[static_cast<std::size_t>(s)] +=
          weight * (1.0 - escape) * mass(s) / rest;
    }
  }
  return prob;
}

/// Draws `draws` proposals and checks every block's frequency against
/// `expected` within 4σ; a block of probability 0 is never drawn.
void expect_matches(const Blockmodel& b, const NeighborBlockCounts& nb,
                    BlockId current, bool is_merge,
                    const std::vector<double>& expected, util::Rng& rng,
                    int draws, const char* what) {
  double total = 0.0;
  for (const double p : expected) total += p;
  ASSERT_NEAR(total, 1.0, 1e-12) << what;

  std::vector<int> counts(expected.size(), 0);
  for (int i = 0; i < draws; ++i) {
    ++counts[static_cast<std::size_t>(
        propose_block(b, nb, current, is_merge, rng))];
  }
  for (std::size_t s = 0; s < expected.size(); ++s) {
    const double p = expected[s];
    const double empirical = counts[s] / static_cast<double>(draws);
    if (p == 0.0) {
      EXPECT_EQ(counts[s], 0) << what << " block " << s;
      continue;
    }
    const double sigma = std::sqrt(p * (1.0 - p) / draws);
    EXPECT_NEAR(empirical, p, 4.0 * sigma + 1e-4)
        << what << " mover in block " << current << ", block " << s;
  }
}

TEST(ProposalExact, EmpiricalMatchesEnumeratedDistribution) {
  const ExactFixture fx;
  const Blockmodel other = reordered(fx.graph, fx.b);
  ASSERT_TRUE(entry_orders_differ(fx.b, other));
  ASSERT_TRUE(other.check_consistency(fx.graph));

  util::Rng rng(271828);
  for (const auto& [b, order] :
       {std::pair{&fx.b, "built"}, std::pair{&other, "reordered"}}) {
    for (Vertex v = 0; v < fx.graph.num_vertices(); ++v) {
      const auto nb =
          blockmodel::gather_neighbor_blocks(fx.graph, b->assignment(), v);
      const BlockId current = b->block_of(v);
      expect_matches(*b, nb, current, false,
                     exact_distribution(*b, nb, current, false), rng, 100000,
                     order);
    }
  }
}

TEST(ProposalExact, MergeDistributionExcludesSelf) {
  const ExactFixture fx;
  const Blockmodel other = reordered(fx.graph, fx.b);
  ASSERT_TRUE(entry_orders_differ(fx.b, other));

  util::Rng rng(31415);
  for (const auto& [b, order] :
       {std::pair{&fx.b, "built"}, std::pair{&other, "reordered"}}) {
    for (BlockId c = 0; c < b->num_blocks(); ++c) {
      const auto nb = block_neighbor_counts(*b, c);
      const auto expected = exact_distribution(*b, nb, c, true);
      EXPECT_EQ(expected[static_cast<std::size_t>(c)], 0.0);
      expect_matches(*b, nb, c, true, expected, rng, 100000, order);
    }
  }
}

struct OrderCase {
  Vertex vertices;
  BlockId blocks;
  graph::EdgeCount edges;
};

class EntryOrder : public ::testing::TestWithParam<OrderCase> {};

TEST_P(EntryOrder, KernelsAgreeAcrossSliceOrders) {
  const OrderCase& oc = GetParam();
  generator::DcsbmParams params;
  params.num_vertices = oc.vertices;
  params.num_communities = 4;
  params.num_edges = oc.edges;
  params.seed = 43;
  const Graph g = generator::generate_dcsbm(params).graph;

  util::Rng rng(47);
  std::vector<std::int32_t> labels(static_cast<std::size_t>(oc.vertices));
  for (auto& label : labels) {
    label = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(oc.blocks)));
  }
  const Blockmodel built = Blockmodel::from_assignment(g, labels, oc.blocks);
  const Blockmodel other = reordered(g, built);
  ASSERT_TRUE(entry_orders_differ(built, other));
  // The lookup path the instantiation below names for each case.
  ASSERT_EQ(built.matrix().has_dense_mirror(), oc.blocks == 6);
  ASSERT_EQ(built.matrix().has_dense_mirror(),
            other.matrix().has_dense_mirror());

  const Vertex v_count = g.num_vertices();
  const graph::EdgeCount e_count = g.num_edges();
  EXPECT_EQ(blockmodel::mdl(built, v_count, e_count),
            blockmodel::mdl(other, v_count, e_count));

  blockmodel::MoveScratch scratch_a;
  blockmodel::MoveScratch scratch_b;
  const blockmodel::FlatMembershipView view{labels.data()};
  for (Vertex v = 0; v < v_count; ++v) {
    const BlockId from = built.block_of(v);
    for (BlockId to = 0; to < oc.blocks; ++to) {
      if (to == from) continue;
      blockmodel::gather_neighbor_blocks_into(g, view, v, oc.blocks,
                                              scratch_a);
      blockmodel::gather_neighbor_blocks_into(g, view, v, oc.blocks,
                                              scratch_b);
      blockmodel::vertex_move_delta_into(built, from, to, scratch_a.nb,
                                         scratch_a);
      blockmodel::vertex_move_delta_into(other, from, to, scratch_b.nb,
                                         scratch_b);
      ASSERT_EQ(scratch_a.delta_mdl, scratch_b.delta_mdl)
          << "vertex " << v << " " << from << "→" << to;
      ASSERT_EQ(hastings_correction(built, from, to, scratch_a),
                hastings_correction(other, from, to, scratch_b))
          << "vertex " << v << " " << from << "→" << to;
    }
  }

  for (BlockId from = 0; from < oc.blocks; ++from) {
    for (BlockId to = 0; to < oc.blocks; ++to) {
      if (to == from) continue;
      const double want =
          blockmodel::merge_delta_mdl(built, from, to, v_count, e_count);
      const double got =
          blockmodel::merge_delta_mdl(other, from, to, v_count, e_count);
      ASSERT_NEAR(got, want, 1e-12 * std::max(std::abs(want), 1.0))
          << "merge " << from << "→" << to;
    }
  }
}

// C = 6 reads cells through the dense mirror; C = 120 on 600 edges
// (120² > 16·600) leaves the matrix without one, so every lookup probes
// a slice.
INSTANTIATE_TEST_SUITE_P(
    MirrorAndSlices, EntryOrder,
    ::testing::Values(OrderCase{120, 6, 1800}, OrderCase{200, 120, 600}),
    [](const ::testing::TestParamInfo<OrderCase>& info) {
      return "C" + std::to_string(info.param.blocks);
    });

}  // namespace
}  // namespace hsbp::sbp

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "generator/dcsbm.hpp"
#include "sbp/async_pass.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp::detail {
namespace {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using graph::Vertex;

/// Plain copy of the shared memberships.
std::vector<std::int32_t> labels_of(const AtomicAssignment& shared) {
  std::vector<std::int32_t> out;
  for (const auto& label : shared) out.push_back(label.load());
  return out;
}

TEST(AtomicHelpers, AssignmentRoundTrip) {
  generator::DcsbmParams p;
  p.num_vertices = 50;
  p.num_communities = 5;
  p.num_edges = 300;
  p.seed = 30;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 5);
  PassWorkspace ws;
  ws.reset(b);
  EXPECT_EQ(labels_of(ws.shared), b.assignment());
}

TEST(AtomicHelpers, SizesMatchBlockmodel) {
  generator::DcsbmParams p;
  p.num_vertices = 100;
  p.num_communities = 4;
  p.num_edges = 600;
  p.seed = 31;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 4);
  PassWorkspace ws;
  ws.reset(b);
  ASSERT_EQ(ws.sizes.size(), 4u);
  for (BlockId r = 0; r < 4; ++r) {
    EXPECT_EQ(ws.sizes[static_cast<std::size_t>(r)].load(), b.block_size(r));
  }
}

TEST(AtomicHelpers, ResetReusesBuffersAcrossCalls) {
  generator::DcsbmParams p;
  p.num_vertices = 80;
  p.num_communities = 4;
  p.num_edges = 500;
  p.seed = 37;
  const auto g = generator::generate_dcsbm(p);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 4);
  PassWorkspace ws;
  ws.reset(b);
  const auto* shared_data = ws.shared.data();
  b.move_vertex(g.graph, 0, (b.block_of(0) + 1) % 4);
  ws.reset(b);
  // Same sizes → the atomic vectors are reused, not reallocated, and
  // the contents track the mutated blockmodel.
  EXPECT_EQ(ws.shared.data(), shared_data);
  EXPECT_EQ(labels_of(ws.shared), b.assignment());
  for (BlockId r = 0; r < 4; ++r) {
    EXPECT_EQ(ws.sizes[static_cast<std::size_t>(r)].load(), b.block_size(r));
  }
}

TEST(AsyncPass, EvaluatesExactlyTheGivenVertices) {
  generator::DcsbmParams p;
  p.num_vertices = 120;
  p.num_communities = 4;
  p.num_edges = 900;
  p.ratio_within_between = 4.0;
  p.seed = 32;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 4);

  PassWorkspace ws;
  ws.reset(b);
  std::vector<Vertex> subset = {0, 5, 10, 15, 20};
  util::RngPool rngs(1, 4);
  const auto counters = async_pass(g.graph, b, ws, subset, 3.0, rngs);
  EXPECT_EQ(counters.proposals, 5);
  EXPECT_LE(counters.accepted, counters.proposals);

  // Vertices outside the subset are untouched, and the move log only
  // mentions subset vertices.
  const auto result = labels_of(ws.shared);
  for (Vertex v = 0; v < 120; ++v) {
    const bool in_subset =
        std::find(subset.begin(), subset.end(), v) != subset.end();
    if (!in_subset) {
      EXPECT_EQ(result[static_cast<std::size_t>(v)], b.block_of(v));
    }
  }
  for (const auto& log : ws.logs) {
    for (const MoveRecord& rec : log) {
      EXPECT_NE(std::find(subset.begin(), subset.end(), rec.v), subset.end());
    }
  }
}

TEST(AsyncPass, MoveLogIsExactlyThePassDiff) {
  generator::DcsbmParams p;
  p.num_vertices = 200;
  p.num_communities = 5;
  p.num_edges = 1500;
  p.seed = 38;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 5);

  PassWorkspace ws;
  ws.reset(b);
  std::vector<Vertex> all(200);
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(7, 4);
  const auto counters = async_pass(g.graph, b, ws, all, 3.0, rngs);

  // Each vertex appears at most once across the per-thread logs, the
  // logged destinations match the shared memberships, and every vertex
  // whose membership changed is in the log.
  const auto result = labels_of(ws.shared);
  std::set<Vertex> logged;
  std::int64_t records = 0;
  for (const auto& log : ws.logs) {
    for (const MoveRecord& rec : log) {
      ++records;
      EXPECT_TRUE(logged.insert(rec.v).second)
          << "vertex " << rec.v << " logged twice";
      EXPECT_EQ(result[static_cast<std::size_t>(rec.v)], rec.to);
      EXPECT_NE(rec.to, b.block_of(rec.v));
    }
  }
  EXPECT_EQ(records, counters.accepted);
  for (Vertex v = 0; v < 200; ++v) {
    if (result[static_cast<std::size_t>(v)] != b.block_of(v)) {
      EXPECT_TRUE(logged.count(v)) << "moved vertex " << v << " not logged";
    }
  }
}

TEST(AsyncPass, SizeAccountingStaysExact) {
  generator::DcsbmParams p;
  p.num_vertices = 200;
  p.num_communities = 5;
  p.num_edges = 1500;
  p.seed = 33;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 5);

  PassWorkspace ws;
  ws.reset(b);
  std::vector<Vertex> all(200);
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(2, 4);
  async_pass(g.graph, b, ws, all, 3.0, rngs);

  // Tracked sizes equal recounted sizes; all blocks stay non-empty.
  const auto result = labels_of(ws.shared);
  std::vector<std::int32_t> recounted(5, 0);
  for (const std::int32_t label : result) {
    ++recounted[static_cast<std::size_t>(label)];
  }
  for (BlockId r = 0; r < 5; ++r) {
    EXPECT_EQ(ws.sizes[static_cast<std::size_t>(r)].load(),
              recounted[static_cast<std::size_t>(r)]);
    EXPECT_GT(recounted[static_cast<std::size_t>(r)], 0);
  }
}

TEST(AsyncPass, NeverEmptiesSingletonBlocks) {
  // A state with several singleton blocks: after the pass each must
  // still have its vertex.
  generator::DcsbmParams p;
  p.num_vertices = 60;
  p.num_communities = 3;
  p.num_edges = 400;
  p.seed = 34;
  const auto g = generator::generate_dcsbm(p);
  // Labels 3,4,5 are singletons held by vertices 0,1,2.
  std::vector<std::int32_t> state = g.ground_truth;
  for (auto& label : state) label = label % 3;
  state[0] = 3;
  state[1] = 4;
  state[2] = 5;
  const auto b = Blockmodel::from_assignment(g.graph, state, 6);

  PassWorkspace ws;
  ws.reset(b);
  std::vector<Vertex> all(60);
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(3, 4);
  async_pass(g.graph, b, ws, all, 3.0, rngs);

  const auto result = labels_of(ws.shared);
  std::vector<int> counts(6, 0);
  for (const std::int32_t label : result) {
    ++counts[static_cast<std::size_t>(label)];
  }
  for (int label = 3; label <= 5; ++label) {
    EXPECT_GE(counts[static_cast<std::size_t>(label)], 1);
  }
}

// The hogwild pass reads neighbors' *live* labels, so with more than
// one thread the accepted set depends on cross-thread visibility
// timing — the static schedule pins the vertex→RNG mapping, not the
// interleaving (TSan's scheduler perturbation surfaces this). The
// replayable contract is the single-thread team: same seed, same
// schedule, identical result, asserted exactly here. Multi-thread
// passes promise workspace validity (invariant tests above), not
// replay.
void expect_single_thread_replay(std::uint64_t graph_seed) {
  generator::DcsbmParams p;
  p.num_vertices = 150;
  p.num_communities = 4;
  p.num_edges = 1000;
  p.seed = graph_seed;
  const auto g = generator::generate_dcsbm(p);
  const auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 4);
  std::vector<Vertex> all(150);
  std::iota(all.begin(), all.end(), 0);

  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto run_once = [&]() {
    PassWorkspace ws;
    ws.reset(b);
    util::RngPool rngs(9, 4);
    async_pass(g.graph, b, ws, all, 3.0, rngs);
    return labels_of(ws.shared);
  };
  const auto first = run_once();
  const auto second = run_once();
  omp_set_num_threads(prev_threads);
  EXPECT_EQ(first, second);
}

TEST(AsyncPass, DeterministicForSingleThreadTeam) {
  expect_single_thread_replay(35);
}

TEST(AsyncPass, DeterministicForSingleThreadTeamOnSecondGraph) {
  expect_single_thread_replay(43);
}

TEST(AsyncPass, EmptyVertexSetIsNoop) {
  generator::DcsbmParams p;
  p.num_vertices = 50;
  p.num_communities = 2;
  p.num_edges = 300;
  p.seed = 36;
  const auto g = generator::generate_dcsbm(p);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 2);
  PassWorkspace ws;
  ws.reset(b);
  util::RngPool rngs(1, 2);
  const auto counters = async_pass(g.graph, b, ws, {}, 3.0, rngs);
  EXPECT_EQ(counters.proposals, 0);
  EXPECT_EQ(counters.accepted, 0);
  EXPECT_EQ(labels_of(ws.shared), b.assignment());
  for (const auto& log : ws.logs) EXPECT_TRUE(log.empty());
  const auto before = b.assignment();
  finish_pass(g.graph, b, ws);
  EXPECT_EQ(b.assignment(), before);
  EXPECT_TRUE(b.check_consistency(g.graph));
}

TEST(AsyncPass, SyncMoveKeepsWorkspaceInvariant) {
  generator::DcsbmParams p;
  p.num_vertices = 90;
  p.num_communities = 3;
  p.num_edges = 600;
  p.seed = 39;
  const auto g = generator::generate_dcsbm(p);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 3);
  PassWorkspace ws;
  ws.reset(b);

  // Serial-style moves mirrored through sync_move, as the hybrid
  // phase's high-degree sweep does.
  for (Vertex v = 0; v < 10; ++v) {
    const BlockId from = b.block_of(v);
    if (b.block_size(from) <= 1) continue;
    const auto to = static_cast<BlockId>((from + 1) % 3);
    b.move_vertex(g.graph, v, to);
    ws.sync_move(v, from, to);
  }
  EXPECT_EQ(labels_of(ws.shared), b.assignment());
  for (BlockId r = 0; r < 3; ++r) {
    EXPECT_EQ(ws.sizes[static_cast<std::size_t>(r)].load(), b.block_size(r));
  }
}

/// One pass + apply on a multi-thread team: the static split must not
/// break any workspace or blockmodel invariant. Running this under TSan
/// (ctest -L async in check_tier1.sh) exercises the racing reads.
TEST(AsyncPass, PassAndApplyKeepInvariants) {
  generator::DcsbmParams p;
  p.num_vertices = 300;
  p.num_communities = 5;
  p.num_edges = 2400;
  p.seed = 42;
  const auto g = generator::generate_dcsbm(p);
  auto b = Blockmodel::from_assignment(g.graph, g.ground_truth, 5);

  PassWorkspace ws;
  ws.reset(b);
  std::vector<Vertex> all(300);
  std::iota(all.begin(), all.end(), 0);
  util::RngPool rngs(11, 4);
  const auto counters = async_pass(g.graph, b, ws, all, 3.0, rngs);
  EXPECT_EQ(counters.proposals, 300);
  EXPECT_LE(counters.accepted, counters.proposals);

  // Size accounting stays exact and no block empties, regardless of
  // which thread evaluated which vertex.
  const auto result = labels_of(ws.shared);
  std::vector<std::int32_t> recounted(5, 0);
  for (const std::int32_t label : result) {
    ++recounted[static_cast<std::size_t>(label)];
  }
  for (BlockId r = 0; r < 5; ++r) {
    EXPECT_EQ(ws.sizes[static_cast<std::size_t>(r)].load(),
              recounted[static_cast<std::size_t>(r)]);
    EXPECT_GT(recounted[static_cast<std::size_t>(r)], 0);
  }

  // The applied blockmodel lands exactly on the shared memberships.
  finish_pass(g.graph, b, ws);
  EXPECT_EQ(b.assignment(), result);
}

}  // namespace
}  // namespace hsbp::sbp::detail

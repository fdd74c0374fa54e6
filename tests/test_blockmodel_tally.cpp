/// The flat per-block tallies (blockmodel/block_tally.hpp) in their two
/// users. BuildSliceOrder pins the blockmodel build's slice entry order
/// to the serial per-edge reference scan: the build tallies each row's
/// out-neighbor blocks over its vertices (grouped by a counting sort),
/// and every row and column slice must come out in the order the
/// per-edge scan gives, whole or chunked, at 1 and at 4 threads (the
/// 4-thread cases carry the `async` label, so check_tier1.sh runs them
/// under TSan). TallyRuns checks that a row tally split into runs, as
/// the build does past INT32_MAX sightings, adds up to the same slice.
/// MoveScratchReuse drives one MoveScratch through
/// gathers at different block counts, with block_merge_phase's refill
/// of `nb` in between, and checks every gather against the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "blockmodel/block_tally.hpp"
#include "blockmodel/blockmodel.hpp"
#include "blockmodel/vertex_move_delta.hpp"
#include "generator/dcsbm.hpp"
#include "graph/graph.hpp"
#include "reference_kernels.hpp"
#include "sbp/proposal.hpp"
#include "util/omp_region.hpp"
#include "util/rng.hpp"

namespace hsbp::blockmodel {
namespace {

using graph::Graph;
using graph::Vertex;

struct BuildCase {
  Vertex vertices;
  std::int32_t blocks;
  graph::EdgeCount edges;
};

/// The three KernelEquivalence densities at C = 6, and C ≈ V.
const BuildCase kBuildCases[] = {
    {120, 6, 360},     // sparse: avg degree 3
    {120, 6, 1800},    // medium: avg degree 15
    {120, 6, 7200},    // dense: avg degree 60
    {200, 160, 1200},  // C ≈ V: avg degree 12
};

/// The entry sequences of every row and column slice of `b`.
reference::BuildSlices slices_of(const Blockmodel& b) {
  reference::BuildSlices slices;
  for (BlockId r = 0; r < b.num_blocks(); ++r) {
    auto& row = slices.rows.emplace_back();
    for (const auto& [col, value] : b.matrix().row(r)) {
      row.emplace_back(col, value);
    }
    auto& col = slices.cols.emplace_back();
    for (const auto& [row_id, value] : b.matrix().col(r)) {
      col.emplace_back(row_id, value);
    }
  }
  return slices;
}

void expect_slices_equal(const Blockmodel& b,
                         const reference::BuildSlices& ref,
                         const char* path) {
  const DictTransposeMatrix& m = b.matrix();
  for (BlockId r = 0; r < b.num_blocks(); ++r) {
    const auto& want_row = ref.rows[static_cast<std::size_t>(r)];
    const auto row = m.row(r).entries();
    ASSERT_EQ(row.size(), want_row.size()) << path << " row " << r;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].key, want_row[i].first) << path << " row " << r;
      EXPECT_EQ(row[i].value, want_row[i].second) << path << " row " << r;
    }
    const auto& want_col = ref.cols[static_cast<std::size_t>(r)];
    const auto col = m.col(r).entries();
    ASSERT_EQ(col.size(), want_col.size()) << path << " col " << r;
    for (std::size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(col[i].key, want_col[i].first) << path << " col " << r;
      EXPECT_EQ(col[i].value, want_col[i].second) << path << " col " << r;
    }
  }
}

class BuildSliceOrder
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BuildSliceOrder, SlicesMatchPerEdgeScan) {
  const BuildCase& bc = kBuildCases[std::get<0>(GetParam())];
  const util::ScopedThreads threads(std::get<1>(GetParam()));

  generator::DcsbmParams params;
  params.num_vertices = bc.vertices;
  params.num_communities = bc.blocks;
  params.num_edges = bc.edges;
  params.seed = 29;
  const auto generated = generator::generate_dcsbm(params);
  const Graph& g = generated.graph;

  util::Rng rng(31);
  std::vector<std::int32_t> labels(static_cast<std::size_t>(bc.vertices));
  for (auto& label : labels) {
    label = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(bc.blocks)));
  }

  const reference::BuildSlices want =
      reference::build_slices(g, labels, bc.blocks);
  const Blockmodel whole = Blockmodel::from_assignment(g, labels, bc.blocks);
  expect_slices_equal(whole, want, "from_assignment");

  // Chunks that split most rows' vertices across ranges move no entry.
  for (const Vertex chunk : {Vertex{7}, Vertex{30}, Vertex{50}}) {
    int releases = 0;
    expect_slices_equal(
        Blockmodel::from_assignment_chunked(g, labels, bc.blocks, chunk,
                                            [&releases] { ++releases; }),
        want, "from_assignment_chunked");
    EXPECT_EQ(releases, (bc.vertices + chunk - 1) / chunk);
  }

  // The other thread count builds the same slices, compared directly.
  const int other = std::get<1>(GetParam()) == 1 ? 4 : 1;
  const util::ScopedThreads other_threads(other);
  EXPECT_TRUE(slices_of(Blockmodel::from_assignment(g, labels, bc.blocks)) ==
              slices_of(whole))
      << "1-thread and 4-thread builds differ";
}

INSTANTIATE_TEST_SUITE_P(CasesByThreads, BuildSliceOrder,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 4)));

/// tally_runs at any cap, its emissions summed into a FlatSlice as the
/// build sums them, must give one tally's blocks, counts and order.
TEST(TallyRuns, RunsAddUpToOneTallyAtAnyCap) {
  constexpr BlockId kBlocks = 12;
  util::Rng rng(61);
  std::vector<std::int32_t> labels(60);
  for (auto& label : labels) {
    label = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(kBlocks)));
  }
  const auto label_of = [&labels](Vertex u) {
    return labels[static_cast<std::size_t>(u)];
  };
  // Empty lists, and lists longer than most caps below.
  std::vector<std::vector<Vertex>> lists;
  std::size_t total = 0;
  for (const std::size_t length : {5, 0, 1, 23, 0, 2, 9, 40, 3}) {
    auto& list = lists.emplace_back(length);
    for (auto& u : list) u = static_cast<Vertex>(rng.uniform_int(60));
    total += length;
  }
  const auto spans =
      lists | std::views::transform([](const std::vector<Vertex>& list) {
        return std::span<const Vertex>(list);
      });

  // One pass in first-sighting order, with int64 counts.
  std::vector<std::pair<BlockId, Count>> want;
  for (const auto& list : lists) {
    for (const Vertex u : list) {
      const auto seen = std::find_if(
          want.begin(), want.end(),
          [&](const auto& entry) { return entry.first == label_of(u); });
      if (seen == want.end()) {
        want.emplace_back(label_of(u), 1);
      } else {
        ++seen->second;
      }
    }
  }

  BlockTally tally;
  for (const std::size_t cap : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{7},
                                std::size_t{40}, total - 1, total,
                                std::size_t{INT32_MAX}}) {
    FlatSlice slice;
    std::size_t emissions = 0;
    tally_runs(
        tally, kBlocks, spans, total, label_of,
        [&](BlockId block, std::int32_t n) {
          EXPECT_GE(n, 1) << "cap " << cap;
          EXPECT_LE(static_cast<std::size_t>(n), cap) << "cap " << cap;
          slice.add(block, n);
          ++emissions;
        },
        cap);
    const auto got = slice.entries();
    ASSERT_EQ(got.size(), want.size()) << "cap " << cap;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, want[i].first) << "cap " << cap << " entry " << i;
      EXPECT_EQ(got[i].value, want[i].second) << "cap " << cap << " entry " << i;
    }
    // Each run emits at least one block; a single run emits each once.
    EXPECT_GE(emissions, (total + cap - 1) / cap) << "cap " << cap;
    if (cap == 1) EXPECT_EQ(emissions, total);
    if (cap >= total) EXPECT_EQ(emissions, want.size()) << "cap " << cap;
  }
}

/// A 200-vertex graph with the shapes a gather must get right: vertex 0
/// a hub (out-degree 80, in-degree 40, repeated neighbors), vertex 1
/// only self-loops, vertex 2 isolated, vertex 3 self-loops plus
/// ordinary edges, and random edges among the rest.
Graph reuse_graph() {
  util::Rng rng(57);
  std::vector<graph::Edge> edges;
  const auto random_vertex = [&] {
    return static_cast<Vertex>(4 + rng.uniform_int(std::uint64_t{196}));
  };
  for (int i = 0; i < 80; ++i) edges.emplace_back(0, random_vertex());
  for (int i = 0; i < 40; ++i) edges.emplace_back(random_vertex(), 0);
  edges.emplace_back(1, 1);
  edges.emplace_back(1, 1);
  edges.emplace_back(3, 3);
  edges.emplace_back(3, random_vertex());
  edges.emplace_back(random_vertex(), 3);
  for (int i = 0; i < 600; ++i) {
    edges.emplace_back(random_vertex(), random_vertex());
  }
  return Graph::from_edges(200, edges);
}

/// scratch.nb and the per-block counts must equal the reference gather
/// for every block below `count_blocks`; blocks off the lists read 0.
template <typename View>
void expect_gather(const Graph& g, const View& view, Vertex v,
                   const MoveScratch& scratch, BlockId count_blocks,
                   const char* stage) {
  const NeighborBlockCounts ref =
      reference::gather_neighbor_blocks_view(g, view, v);
  EXPECT_EQ(scratch.nb.out, ref.out) << stage << " v=" << v;
  EXPECT_EQ(scratch.nb.in, ref.in) << stage << " v=" << v;
  EXPECT_EQ(scratch.nb.self_loops, ref.self_loops) << stage << " v=" << v;
  EXPECT_EQ(scratch.nb.degree_out, ref.degree_out) << stage << " v=" << v;
  EXPECT_EQ(scratch.nb.degree_in, ref.degree_in) << stage << " v=" << v;
  std::vector<Count> want_out(static_cast<std::size_t>(count_blocks), 0);
  std::vector<Count> want_in(static_cast<std::size_t>(count_blocks), 0);
  for (const auto& [t, k] : ref.out) want_out[static_cast<std::size_t>(t)] = k;
  for (const auto& [t, k] : ref.in) want_in[static_cast<std::size_t>(t)] = k;
  for (BlockId t = 0; t < count_blocks; ++t) {
    ASSERT_EQ(scratch.out_count(t), want_out[static_cast<std::size_t>(t)])
        << stage << " v=" << v << " block " << t;
    ASSERT_EQ(scratch.in_count(t), want_in[static_cast<std::size_t>(t)])
        << stage << " v=" << v << " block " << t;
  }
}

TEST(MoveScratchReuse, GathersStayExactAcrossBlockCountsAndMergeRefills) {
  const Graph g = reuse_graph();
  ASSERT_GE(g.out_degree(0) + g.in_degree(0), 64);
  ASSERT_EQ(g.out_degree(2) + g.in_degree(2), 0);

  // Fine labels: C ≈ V (180 blocks on 200 vertices, every block used).
  constexpr BlockId kFine = 180;
  constexpr BlockId kCoarse = 16;
  util::Rng rng(58);
  std::vector<std::int32_t> fine(200);
  std::vector<std::int32_t> coarse(200);
  for (std::size_t v = 0; v < fine.size(); ++v) {
    fine[v] = static_cast<std::int32_t>(
        v < static_cast<std::size_t>(kFine)
            ? v
            : rng.uniform_int(static_cast<std::uint64_t>(kFine)));
    coarse[v] = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(kCoarse)));
  }
  const Blockmodel fine_model = Blockmodel::from_assignment(g, fine, kFine);
  const FlatMembershipView fine_view{fine.data()};
  const FlatMembershipView coarse_view{coarse.data()};
  const auto lambda_view = [&fine](Vertex u) {
    return fine[static_cast<std::size_t>(u)];
  };

  MoveScratch scratch;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    gather_neighbor_blocks_into(g, fine_view, v, kFine, scratch);
    expect_gather(g, fine_view, v, scratch, kFine, "fine");

    // The merge phase refills nb in the same arena from the blockmodel.
    sbp::block_neighbor_counts_into(
        fine_model, fine[static_cast<std::size_t>(v)], scratch.nb);

    // Counts beyond kCoarse are checked too: the counters never shrink,
    // and the fine gather's entries there must have been reset.
    gather_neighbor_blocks_into(g, coarse_view, v, kCoarse, scratch);
    expect_gather(g, coarse_view, v, scratch, kFine, "coarse");

    gather_neighbor_blocks_into(g, lambda_view, v, kFine, scratch);
    expect_gather(g, lambda_view, v, scratch, kFine, "lambda");
  }
}

}  // namespace
}  // namespace hsbp::blockmodel

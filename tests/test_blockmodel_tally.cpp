/// The flat per-block tallies (blockmodel/block_tally.hpp) in their two
/// users. BuildSliceOrder pins the blockmodel build's slice entry order
/// to the per-edge reference scan: the build tallies each vertex's
/// out-neighbor blocks and makes one map update per distinct block, and
/// every row and column slice must still come out in the order the
/// per-edge scan gives. MoveScratchReuse drives one MoveScratch through
/// gathers at different block counts, with block_merge_phase's refill
/// of `nb` in between, and checks every gather against the reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

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
  const auto random_labels = [&] {
    std::vector<std::int32_t> labels(static_cast<std::size_t>(bc.vertices));
    for (auto& label : labels) {
      label = static_cast<std::int32_t>(
          rng.uniform_int(static_cast<std::uint64_t>(bc.blocks)));
    }
    return labels;
  };
  const std::vector<std::int32_t> labels = random_labels();

  expect_slices_equal(Blockmodel::from_assignment(g, labels, bc.blocks),
                      reference::build_slices(g, labels, bc.blocks, 0),
                      "from_assignment");

  // Chunk sizes below, at and above the static schedule's per-thread
  // share, so chunks split, match and straddle the thread ranges.
  for (const Vertex chunk : {Vertex{7}, Vertex{30}, Vertex{50}}) {
    int releases = 0;
    expect_slices_equal(
        Blockmodel::from_assignment_chunked(g, labels, bc.blocks, chunk,
                                            [&releases] { ++releases; }),
        reference::build_slices(g, labels, bc.blocks, chunk),
        "from_assignment_chunked");
    EXPECT_EQ(releases, (bc.vertices + chunk - 1) / chunk);
  }

  // rebuild() from a different state lands on the same slices.
  Blockmodel rebuilt =
      Blockmodel::from_assignment(g, random_labels(), bc.blocks);
  rebuilt.rebuild(g, labels);
  expect_slices_equal(rebuilt,
                      reference::build_slices(g, labels, bc.blocks, 0),
                      "rebuild");
  EXPECT_TRUE(rebuilt.check_consistency(g));
}

INSTANTIATE_TEST_SUITE_P(CasesByThreads, BuildSliceOrder,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 4)));

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

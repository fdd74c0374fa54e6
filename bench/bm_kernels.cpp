/// \file bm_kernels.cpp
/// \brief google-benchmark micro benches for the kernels every SBP
/// variant is built from: neighbor gathering, ΔMDL for moves and
/// merges, proposal drawing, Hastings correction, in-place vertex
/// moves, full-matrix rebuild, and MDL evaluation. These are the
/// numbers to watch when optimizing — the paper's future-work section
/// calls out rebuild cost and data-structure choice explicitly.
#include <benchmark/benchmark.h>

#include <omp.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/mdl.hpp"
#include "blockmodel/merge_delta.hpp"
#include "blockmodel/vertex_move_delta.hpp"
#include "blockmodel/xlogx_table.hpp"
#include "generator/dcsbm.hpp"
#include "sbp/async_pass.hpp"
#include "sbp/hastings.hpp"
#include "sbp/mcmc_common.hpp"
#include "sbp/mcmc_phases.hpp"
#include "sbp/proposal.hpp"
#include "util/rng.hpp"

// The gather/move-delta/Hastings benches measure the kernels exactly as
// the phase loops invoke them. With the scratch-arena API present that
// is the allocation-free *_into path; in older trees (this file doubles
// as the before/after probe for the perf harness) it is the original
// allocate-per-call path — each tree benches its own hot path.
#if __has_include("blockmodel/flat_slice.hpp")
#define HSBP_BENCH_HAVE_SCRATCH 1
#endif

namespace {

using hsbp::blockmodel::BlockId;
using hsbp::blockmodel::Blockmodel;
using hsbp::graph::Vertex;

struct Fixture {
  hsbp::generator::GeneratedGraph generated;
  Blockmodel blockmodel;

  /// A planted DCSBM graph under its planted partition, each community
  /// split `split` ways (vertex id mod split) into blocks.
  explicit Fixture(Vertex vertices, std::int32_t communities,
                   hsbp::graph::EdgeCount edges, std::int32_t split = 1) {
    hsbp::generator::DcsbmParams params;
    params.num_vertices = vertices;
    params.num_communities = communities;
    params.num_edges = edges;
    params.ratio_within_between = 3.0;
    params.seed = 1234;
    generated = hsbp::generator::generate_dcsbm(params);
    std::vector<std::int32_t> labels = generated.ground_truth;
    for (std::size_t v = 0; v < labels.size(); ++v) {
      labels[v] = labels[v] * split + static_cast<std::int32_t>(
                                          v % static_cast<std::size_t>(split));
    }
    blockmodel = Blockmodel::from_assignment(generated.graph, labels,
                                             communities * split);
  }
};

Fixture& fixture() {
  static Fixture f(2000, 16, 20000);
  return f;
}

/// The fixture refined to C = 256. On the detect benchmark graphs H-SBP
/// spends three quarters of its MCMC time at C ≥ 64, most of it in the
/// C ≈ 125 and C ≈ 250 phases. At C = 16 every slice probe hits L1 and
/// costs about what a dense load does, so only the C256 kernels show
/// what a cell lookup costs.
Fixture& fixture_c256() {
  static Fixture f(2000, 16, 20000, 16);
  return f;
}

/// A uniform block other than `from`.
BlockId other_block(const Blockmodel& b, BlockId from, hsbp::util::Rng& rng) {
  const auto blocks = static_cast<std::uint64_t>(b.num_blocks());
  return static_cast<BlockId>(
      (static_cast<std::uint64_t>(from) + 1 + rng.uniform_int(blocks - 1)) %
      blocks);
}

/// The fixture at mean total degree 50, the fit_ooc workload's graph
/// (5000 vertices, 125000 edges), whose skeleton and piece refits the
/// out-of-core fit runs on.
Fixture& fixture_deg50() {
  static Fixture f(2000, 16, 50000);
  return f;
}

/// Vertices of `f` with total degree at least `min_degree`.
std::vector<Vertex> vertices_of_degree(const Fixture& f,
                                       hsbp::graph::EdgeCount min_degree) {
  const auto& graph = f.generated.graph;
  std::vector<Vertex> pool;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    if (graph.out_degree(v) + graph.in_degree(v) >= min_degree) {
      pool.push_back(v);
    }
  }
  return pool;
}

/// Gathers the neighbor blocks of a uniform vertex of `pool` per
/// iteration; reports the pool's mean total degree.
void gather_bench(benchmark::State& state, const Fixture& f,
                  const std::vector<Vertex>& pool) {
  hsbp::util::Rng rng(1);
  const auto& graph = f.generated.graph;
  const auto draw = [&] {
    return pool[static_cast<std::size_t>(rng.uniform_int(pool.size()))];
  };
#ifdef HSBP_BENCH_HAVE_SCRATCH
  hsbp::blockmodel::MoveScratch scratch;
  const auto assignment = f.blockmodel.assignment();
  const hsbp::blockmodel::FlatMembershipView view{assignment.data()};
  for (auto _ : state) {
    hsbp::blockmodel::gather_neighbor_blocks_into(
        graph, view, draw(), f.blockmodel.num_blocks(), scratch);
    benchmark::DoNotOptimize(scratch.nb.degree_total());
  }
#else
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsbp::blockmodel::gather_neighbor_blocks(
        graph, f.blockmodel.assignment(), draw()));
  }
#endif
  double degree = 0.0;
  for (const Vertex v : pool) {
    degree += static_cast<double>(graph.out_degree(v) + graph.in_degree(v));
  }
  state.counters["mean_degree"] = degree / static_cast<double>(pool.size());
}

void BM_GatherNeighborBlocks(benchmark::State& state) {
  gather_bench(state, fixture(), vertices_of_degree(fixture(), 0));
}
BENCHMARK(BM_GatherNeighborBlocks);

void BM_GatherNeighborBlocks_Deg50(benchmark::State& state) {
  gather_bench(state, fixture_deg50(), vertices_of_degree(fixture_deg50(), 0));
}
BENCHMARK(BM_GatherNeighborBlocks_Deg50);

/// Hubs only: total degree ≥ 64, where the gather used to batch its
/// membership loads through an AVX2 gather instruction.
void BM_GatherNeighborBlocks_Hub(benchmark::State& state) {
  gather_bench(state, fixture_deg50(),
               vertices_of_degree(fixture_deg50(), 64));
}
BENCHMARK(BM_GatherNeighborBlocks_Hub);

void vertex_move_delta_bench(benchmark::State& state, const Fixture& f) {
  hsbp::util::Rng rng(2);
  const auto vertices =
      static_cast<std::uint64_t>(f.generated.graph.num_vertices());
#ifdef HSBP_BENCH_HAVE_SCRATCH
  hsbp::blockmodel::MoveScratch scratch;
  const auto assignment = f.blockmodel.assignment();
  const hsbp::blockmodel::FlatMembershipView view{assignment.data()};
  for (auto _ : state) {
    const auto v = static_cast<Vertex>(rng.uniform_int(vertices));
    const BlockId from = f.blockmodel.block_of(v);
    const BlockId to = other_block(f.blockmodel, from, rng);
    hsbp::blockmodel::gather_neighbor_blocks_into(
        f.generated.graph, view, v, f.blockmodel.num_blocks(), scratch);
    hsbp::blockmodel::vertex_move_delta_into(f.blockmodel, from, to,
                                             scratch.nb, scratch);
    benchmark::DoNotOptimize(scratch.delta_mdl);
  }
#else
  for (auto _ : state) {
    const auto v = static_cast<Vertex>(rng.uniform_int(vertices));
    const BlockId from = f.blockmodel.block_of(v);
    const BlockId to = other_block(f.blockmodel, from, rng);
    const auto nb = hsbp::blockmodel::gather_neighbor_blocks(
        f.generated.graph, f.blockmodel.assignment(), v);
    benchmark::DoNotOptimize(
        hsbp::blockmodel::vertex_move_delta(f.blockmodel, from, to, nb));
  }
#endif
}

void BM_VertexMoveDelta(benchmark::State& state) {
  vertex_move_delta_bench(state, fixture());
}
BENCHMARK(BM_VertexMoveDelta);

void BM_VertexMoveDelta_C256(benchmark::State& state) {
  vertex_move_delta_bench(state, fixture_c256());
}
BENCHMARK(BM_VertexMoveDelta_C256);

void BM_ProposeBlock(benchmark::State& state) {
  auto& f = fixture();
  hsbp::util::Rng rng(3);
  for (auto _ : state) {
    const auto v = static_cast<Vertex>(rng.uniform_int(2000));
    const auto nb = hsbp::blockmodel::gather_neighbor_blocks(
        f.generated.graph, f.blockmodel.assignment(), v);
    benchmark::DoNotOptimize(hsbp::sbp::propose_block(
        f.blockmodel, nb, f.blockmodel.block_of(v), false, rng));
  }
}
BENCHMARK(BM_ProposeBlock);

void hastings_correction_bench(benchmark::State& state, const Fixture& f) {
  hsbp::util::Rng rng(4);
  const auto vertices =
      static_cast<std::uint64_t>(f.generated.graph.num_vertices());
#ifdef HSBP_BENCH_HAVE_SCRATCH
  hsbp::blockmodel::MoveScratch scratch;
  const auto assignment = f.blockmodel.assignment();
  const hsbp::blockmodel::FlatMembershipView view{assignment.data()};
  for (auto _ : state) {
    const auto v = static_cast<Vertex>(rng.uniform_int(vertices));
    const BlockId from = f.blockmodel.block_of(v);
    const BlockId to = other_block(f.blockmodel, from, rng);
    hsbp::blockmodel::gather_neighbor_blocks_into(
        f.generated.graph, view, v, f.blockmodel.num_blocks(), scratch);
    hsbp::blockmodel::vertex_move_delta_into(f.blockmodel, from, to,
                                             scratch.nb, scratch);
    benchmark::DoNotOptimize(
        hsbp::sbp::hastings_correction(f.blockmodel, from, to, scratch));
  }
#else
  for (auto _ : state) {
    const auto v = static_cast<Vertex>(rng.uniform_int(vertices));
    const BlockId from = f.blockmodel.block_of(v);
    const BlockId to = other_block(f.blockmodel, from, rng);
    const auto nb = hsbp::blockmodel::gather_neighbor_blocks(
        f.generated.graph, f.blockmodel.assignment(), v);
    const auto delta =
        hsbp::blockmodel::vertex_move_delta(f.blockmodel, from, to, nb);
    benchmark::DoNotOptimize(
        hsbp::sbp::hastings_correction(f.blockmodel, nb, from, to, delta));
  }
#endif
}

void BM_HastingsCorrection(benchmark::State& state) {
  hastings_correction_bench(state, fixture());
}
BENCHMARK(BM_HastingsCorrection);

void BM_HastingsCorrection_C256(benchmark::State& state) {
  hastings_correction_bench(state, fixture_c256());
}
BENCHMARK(BM_HastingsCorrection_C256);

void BM_MoveVertexRoundTrip(benchmark::State& state) {
  auto f = Fixture(2000, 16, 20000);  // private copy: we mutate it
  hsbp::util::Rng rng(5);
  for (auto _ : state) {
    const auto v = static_cast<Vertex>(rng.uniform_int(2000));
    const BlockId from = f.blockmodel.block_of(v);
    const auto to =
        static_cast<BlockId>((from + 1 + rng.uniform_int(15)) % 16);
    if (f.blockmodel.block_size(from) <= 1) continue;
    f.blockmodel.move_vertex(f.generated.graph, v, to);
    f.blockmodel.move_vertex(f.generated.graph, v, from);
  }
}
BENCHMARK(BM_MoveVertexRoundTrip);

void merge_delta_bench(benchmark::State& state, const Fixture& f) {
  hsbp::util::Rng rng(6);
  const auto blocks = static_cast<std::uint64_t>(f.blockmodel.num_blocks());
  for (auto _ : state) {
    const auto from = static_cast<BlockId>(rng.uniform_int(blocks));
    const BlockId to = other_block(f.blockmodel, from, rng);
    benchmark::DoNotOptimize(hsbp::blockmodel::merge_delta_mdl(
        f.blockmodel, from, to, f.generated.graph.num_vertices(),
        f.generated.graph.num_edges()));
  }
}

void BM_MergeDelta(benchmark::State& state) {
  merge_delta_bench(state, fixture());
}
BENCHMARK(BM_MergeDelta);

void BM_MergeDelta_C256(benchmark::State& state) {
  merge_delta_bench(state, fixture_c256());
}
BENCHMARK(BM_MergeDelta_C256);

// ---- full-pass kernels: one whole sweep over the vertex set, the
// granularity the phase loops actually run at. These aggregate the
// micro kernels above plus everything between them (scratch reuse,
// slice iteration, RNG streams), so they are the guard against a
// "micro benches improved, passes regressed" outcome.

void BM_AsyncPass(benchmark::State& state) {
  auto& f = fixture();
  hsbp::util::RngPool rngs(11, 8);
  std::vector<Vertex> vertices(2000);
  for (Vertex v = 0; v < 2000; ++v) vertices[static_cast<std::size_t>(v)] = v;
  hsbp::sbp::detail::PassWorkspace ws;
  for (auto _ : state) {
    ws.reset(f.blockmodel);
    benchmark::DoNotOptimize(hsbp::sbp::detail::async_pass(
        f.generated.graph, f.blockmodel, ws, vertices, 3.0, rngs));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_AsyncPass);

void BM_SerialMhPass(benchmark::State& state) {
  auto f = Fixture(2000, 16, 20000);  // private copy: the pass mutates it
  hsbp::util::RngPool rngs(12, 1);
  const auto view = [&f](Vertex u) { return f.blockmodel.block_of(u); };
  for (auto _ : state) {
    for (Vertex v = 0; v < 2000; ++v) {
      const auto result = hsbp::sbp::evaluate_vertex(
          f.generated.graph, f.blockmodel, view, v,
          f.blockmodel.block_size(f.blockmodel.block_of(v)), 3.0,
          rngs.stream(0));
      if (result.moved) f.blockmodel.move_vertex(f.generated.graph, v, result.to);
    }
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_SerialMhPass);

void BM_RebuildBlockmodel(benchmark::State& state) {
  auto f = Fixture(static_cast<Vertex>(state.range(0)), 16,
                   static_cast<hsbp::graph::EdgeCount>(state.range(0)) * 10);
  const auto assignment = f.blockmodel.copy_assignment();
  for (auto _ : state) {
    f.blockmodel.rebuild(f.generated.graph, assignment);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 10);
}
BENCHMARK(BM_RebuildBlockmodel)->Arg(500)->Arg(2000)->Arg(8000);

void BM_FullMdl(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hsbp::blockmodel::mdl(f.blockmodel, f.generated.graph.num_vertices(),
                              f.generated.graph.num_edges()));
  }
}
BENCHMARK(BM_FullMdl);

void BM_IdentityBlockmodel(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Blockmodel::identity(f.generated.graph));
  }
}
BENCHMARK(BM_IdentityBlockmodel);

// ---- pass-overhead benches (DESIGN §11): what it costs to carry the
// blockmodel from pass N to pass N+1, as a function of how much the
// pass moved. DeltaApply is the move-log path plus the now-O(1) MDL;
// ShardedRebuild is the adaptive fallback (sharded build + O(1) MDL);
// SerialMergeRebuild transcribes the previous per-pass overhead — the
// serial unordered_map merge plus the O(nnz) floating-point MDL rescan
// — so the before/after is measurable inside one tree. The Arg is the
// number of moved vertices per 1000 (permille of V).

void BM_PassOverhead_DeltaApply(benchmark::State& state) {
  auto f = Fixture(2000, 16, 20000);  // private copy: we mutate it
  const auto moved = static_cast<Vertex>(2000 * state.range(0) / 1000);
  // Synthesize a pass diff: `moved` vertices hop to the next block.
  // Forward-apply the log plus the MDL read, then roll back (excluded
  // work is symmetric) so every iteration applies the same diff.
  std::vector<std::pair<Vertex, BlockId>> log;
  log.reserve(static_cast<std::size_t>(moved));
  for (Vertex v = 0; v < moved; ++v) {
    log.emplace_back(v, f.blockmodel.block_of(v));
  }
  for (auto _ : state) {
    for (const auto& [v, from] : log) {
      f.blockmodel.move_vertex(f.generated.graph, v,
                               static_cast<BlockId>((from + 1) % 16));
    }
    benchmark::DoNotOptimize(
        hsbp::blockmodel::mdl(f.blockmodel, f.generated.graph.num_vertices(),
                              f.generated.graph.num_edges()));
    for (auto it = log.rbegin(); it != log.rend(); ++it) {
      f.blockmodel.move_vertex(f.generated.graph, it->first, it->second);
    }
  }
  state.SetItemsProcessed(state.iterations() * std::max<Vertex>(moved, 1));
}
BENCHMARK(BM_PassOverhead_DeltaApply)->Arg(1)->Arg(10)->Arg(100)->Arg(300);

void BM_PassOverhead_ShardedRebuild(benchmark::State& state) {
  auto f = Fixture(2000, 16, 20000);  // private copy: rebuild mutates it
  const auto assignment = f.blockmodel.copy_assignment();
  for (auto _ : state) {
    f.blockmodel.rebuild(f.generated.graph, assignment);
    benchmark::DoNotOptimize(
        hsbp::blockmodel::mdl(f.blockmodel, f.generated.graph.num_vertices(),
                              f.generated.graph.num_edges()));
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_PassOverhead_ShardedRebuild);

void BM_PassOverhead_SerialMergeRebuild(benchmark::State& state) {
  auto& f = fixture();
  const auto& graph = f.generated.graph;
  const auto assignment = f.blockmodel.copy_assignment();
  const Vertex v_count = graph.num_vertices();
  const auto threads = static_cast<std::size_t>(omp_get_max_threads());
  using hsbp::blockmodel::Count;
  for (auto _ : state) {
    // Previous build_from: per-thread (row<<32 | col) hash maps merged
    // serially into the shared matrix, then serial degree sums.
    std::vector<std::unordered_map<std::uint64_t, Count>> locals(threads);
#pragma omp parallel
    {
      auto& local = locals[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(static)
      for (Vertex v = 0; v < v_count; ++v) {
        const auto src = static_cast<std::uint64_t>(static_cast<std::uint32_t>(
            assignment[static_cast<std::size_t>(v)]));
        for (const Vertex target : graph.out_neighbors(v)) {
          const auto dst = static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(
                  assignment[static_cast<std::size_t>(target)]));
          ++local[(src << 32) | dst];
        }
      }
    }
    hsbp::blockmodel::DictTransposeMatrix m(16);
    for (const auto& local : locals) {
      for (const auto& [key, count] : local) {
        m.add(static_cast<BlockId>(key >> 32),
              static_cast<BlockId>(key & 0xffffffffULL), count);
      }
    }
    std::vector<Count> d_out(16, 0);
    std::vector<Count> d_in(16, 0);
    for (BlockId r = 0; r < 16; ++r) {
      for (const auto& [col, count] : m.row(r)) {
        (void)col;
        d_out[static_cast<std::size_t>(r)] += count;
      }
      for (const auto& [row, count] : m.col(r)) {
        (void)row;
        d_in[static_cast<std::size_t>(r)] += count;
      }
    }
    // Previous MDL: O(nnz) floating-point rescan of the whole matrix.
    double cell_term = 0.0;
    double degree_term = 0.0;
    for (BlockId r = 0; r < 16; ++r) {
      for (const auto& [col, count] : m.row(r)) {
        (void)col;
        cell_term += hsbp::blockmodel::xlogx_count(count);
      }
      degree_term +=
          hsbp::blockmodel::xlogx_count(d_out[static_cast<std::size_t>(r)]);
      degree_term +=
          hsbp::blockmodel::xlogx_count(d_in[static_cast<std::size_t>(r)]);
    }
    benchmark::DoNotOptimize(cell_term - degree_term);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_PassOverhead_SerialMergeRebuild);

// ---- end-to-end MCMC phase: passes include the per-pass maintenance,
// so this is where the delta-apply change shows up at the granularity
// the paper's figure 2 measures. threshold = 0 disables convergence so
// the Arg is exactly the number of passes run.

void BM_AsyncGibbsPhase(benchmark::State& state) {
  auto& f = fixture();
  hsbp::util::RngPool rngs(13, 8);
  hsbp::sbp::McmcSettings settings;
  settings.beta = 3.0;
  settings.threshold = 0.0;
  settings.max_iterations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Blockmodel b = f.blockmodel;  // each iteration restarts the chain
    const auto outcome =
        hsbp::sbp::async_gibbs_phase(f.generated.graph, b, settings, rngs);
    benchmark::DoNotOptimize(outcome.stats.accepted);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2000);
}
BENCHMARK(BM_AsyncGibbsPhase)->Arg(2)->Arg(8);

// ---- sparse matrix fill: 20000 unit add()s into the row+column
// (transpose) storage at three block counts.

void BM_SparseMatrixFill(benchmark::State& state) {
  const auto blocks = static_cast<BlockId>(state.range(0));
  hsbp::util::Rng rng(7);
  std::vector<std::pair<BlockId, BlockId>> cells(20000);
  for (auto& [r, c] : cells) {
    r = static_cast<BlockId>(rng.uniform_int(static_cast<std::uint64_t>(blocks)));
    c = static_cast<BlockId>(rng.uniform_int(static_cast<std::uint64_t>(blocks)));
  }
  for (auto _ : state) {
    hsbp::blockmodel::DictTransposeMatrix m(blocks);
    for (const auto& [r, c] : cells) m.add(r, c, 1);
    benchmark::DoNotOptimize(m.total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_SparseMatrixFill)->Arg(16)->Arg(128)->Arg(1024);

}  // namespace

#include "ooc/ooc.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>

#include "dist/partition.hpp"
#include "sample/sample_sbp.hpp"
#include "sbp/labels.hpp"
#include "sbp/mcmc_phases.hpp"
#include "sbp/streaming.hpp"
#include "util/omp_region.hpp"
#include "util/timer.hpp"

namespace hsbp::ooc {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using graph::EdgeCount;
using graph::GraphView;
using graph::Vertex;

namespace {

void release(const OocConfig& config) {
  if (config.release_cache) config.release_cache();
}

/// Stage 3, one piece: warm-refit the induced subgraph from its current
/// global labels and stitch the result back. The piece fit gets a
/// compacted label space (run_warm requires dense labels); each result
/// block then maps to the plurality of the global labels its vertices
/// held before the refit, so piece moves re-express themselves in the
/// skeleton's label space and cross-piece agreement survives.
void refit_piece(const OocConfig& config, const GraphView& graph,
                 const std::vector<Vertex>& members, int piece_index,
                 std::vector<std::int32_t>& assignment, BlockId num_blocks) {
  sample::SampledGraph piece = sample::induced_subgraph(graph, members);
  release(config);
  const auto piece_vertices = piece.subgraph.num_vertices();
  if (piece_vertices < 2 || piece.subgraph.num_edges() == 0) return;

  // This piece's global labels, compacted to a dense local space.
  std::vector<std::int32_t> local_labels;
  for (const Vertex v : piece.to_full) {
    local_labels.push_back(assignment[static_cast<std::size_t>(v)]);
  }
  const BlockId local_blocks = sbp::compact_labels(local_labels, num_blocks);

  sbp::SbpConfig piece_config = config.base;
  piece_config.seed =
      config.base.seed + static_cast<std::uint64_t>(piece_index) + 1;
  const sbp::SbpResult refit = sbp::run_warm(piece.subgraph, piece_config,
                                             local_labels, local_blocks);

  // Stitch: result block → plurality of pre-refit global labels.
  std::vector<std::vector<std::int64_t>> ballot(
      static_cast<std::size_t>(refit.num_blocks),
      std::vector<std::int64_t>(static_cast<std::size_t>(num_blocks), 0));
  for (Vertex s = 0; s < piece_vertices; ++s) {
    const std::int32_t global = assignment[static_cast<std::size_t>(
        piece.to_full[static_cast<std::size_t>(s)])];
    ++ballot[static_cast<std::size_t>(
        refit.assignment[static_cast<std::size_t>(s)])]
            [static_cast<std::size_t>(global)];
  }
  std::vector<std::int32_t> global_of_result(
      static_cast<std::size_t>(refit.num_blocks));
  for (BlockId r = 0; r < refit.num_blocks; ++r) {
    const auto& row = ballot[static_cast<std::size_t>(r)];
    global_of_result[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
  for (Vertex s = 0; s < piece_vertices; ++s) {
    assignment[static_cast<std::size_t>(
        piece.to_full[static_cast<std::size_t>(s)])] =
        global_of_result[static_cast<std::size_t>(
            refit.assignment[static_cast<std::size_t>(s)])];
  }
}

}  // namespace

std::int64_t estimated_csr_bytes(Vertex num_vertices,
                                 EdgeCount num_edges) noexcept {
  return 16 * (static_cast<std::int64_t>(num_vertices) + 1) + 8 * num_edges;
}

int plan_pieces(Vertex num_vertices, EdgeCount num_edges,
                std::int64_t memory_budget_mb, int requested) noexcept {
  const auto cap = static_cast<std::int64_t>(std::max<Vertex>(num_vertices, 1));
  if (requested > 0) {
    return static_cast<int>(
        std::min<std::int64_t>(requested, cap));
  }
  if (memory_budget_mb <= 0) return 1;
  const std::int64_t budget = memory_budget_mb * 1024 * 1024;
  const std::int64_t bytes = estimated_csr_bytes(num_vertices, num_edges);
  const std::int64_t pieces = (bytes + budget - 1) / budget;
  return static_cast<int>(std::clamp<std::int64_t>(pieces, 1, cap));
}

std::int64_t peak_rss_kb() noexcept {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
  return static_cast<std::int64_t>(usage.ru_maxrss);
}

OocResult fit(const GraphView& graph, const OocConfig& config) {
  if (graph.num_vertices() <= 0) {
    throw std::invalid_argument("ooc::fit: graph has no vertices");
  }
  if (graph.num_edges() <= 0) {
    throw std::invalid_argument("ooc::fit: graph has no edges");
  }
  if (!(config.skeleton_fraction > 0.0) || config.skeleton_fraction > 1.0) {
    throw std::invalid_argument("ooc::fit: skeleton_fraction outside (0, 1]");
  }
  if (config.finetune_max_iterations < 0) {
    throw std::invalid_argument(
        "ooc::fit: finetune_max_iterations must be >= 0");
  }
  if (config.chunk_vertices <= 0) {
    throw std::invalid_argument("ooc::fit: chunk_vertices must be positive");
  }
  const util::ScopedThreads threads(config.base.num_threads);

  OocResult out;
  out.estimated_csr_bytes =
      estimated_csr_bytes(graph.num_vertices(), graph.num_edges());
  util::Timer total;
  util::Timer stage;

  // Stage 1: skeleton sample + fit. The sampler walks the full view
  // (degree reads / frontier growth), so drop pages before the heavy
  // subgraph fit starts.
  const sample::SampledGraph skeleton = sample::sample_graph(
      graph, config.sampler, config.skeleton_fraction, config.base.seed);
  release(config);
  out.skeleton_vertices = skeleton.subgraph.num_vertices();
  out.skeleton_edges = skeleton.subgraph.num_edges();
  const sbp::SbpResult skeleton_fit =
      sample::partition_sample(skeleton.subgraph, config.base);
  out.timings.skeleton_seconds = stage.elapsed();

  // Stage 2: chunked BFS-plurality extrapolation to the full view.
  stage.reset();
  sample::ExtrapolationResult extrapolated = sample::extrapolate(
      graph, skeleton, skeleton_fit.assignment, skeleton_fit.num_blocks,
      config.release_cache, config.chunk_vertices);
  std::vector<std::int32_t>& assignment = extrapolated.assignment;
  BlockId num_blocks = extrapolated.num_blocks;
  release(config);
  out.timings.extrapolate_seconds = stage.elapsed();

  // Stage 3: per-piece warm refits, one induced subgraph in memory at a
  // time.
  stage.reset();
  out.pieces_planned = plan_pieces(graph.num_vertices(), graph.num_edges(),
                                   config.memory_budget_mb, config.pieces);
  if (out.pieces_planned > 1) {
    // Range: each piece's CSR reads stay contiguous in the mapped file.
    const dist::VertexPartition partition = dist::partition_vertices(
        graph, out.pieces_planned, dist::PartitionStrategy::Range);
    release(config);
    for (int rank = 0; rank < partition.ranks; ++rank) {
      if (partition.members[static_cast<std::size_t>(rank)].empty()) continue;
      refit_piece(config, graph,
                  partition.members[static_cast<std::size_t>(rank)], rank,
                  assignment, num_blocks);
      ++out.pieces_refit;
      release(config);
    }
    // Pieces can abandon a skeleton block entirely.
    num_blocks = sbp::compact_labels(assignment, num_blocks);
  }
  out.timings.pieces_seconds = stage.elapsed();

  // Stage 4: chunked global model build + serial fine-tune passes.
  stage.reset();
  Blockmodel model = Blockmodel::from_assignment_chunked(
      graph, assignment, num_blocks, config.chunk_vertices,
      [&config] { release(config); });
  util::Rng rng(config.base.seed ^ 0x00c0ffee00c0ffeeULL);
  sbp::McmcSettings settings;
  settings.threshold = sample::kFinetuneThreshold;
  settings.max_iterations = config.finetune_max_iterations;
  sbp::McmcPhaseStats stats;
  sbp::SweepTally tally;
  // One serial sweep per `chunk_vertices` ids, releasing the mapped
  // pages between chunks.
  const Vertex v_count = graph.num_vertices();
  std::vector<Vertex> ids(static_cast<std::size_t>(
      std::min(config.chunk_vertices, v_count)));
  sbp::run_passes(graph, model, settings, stats, [&] {
    for (Vertex begin = 0; begin < v_count;) {
      const Vertex size = std::min(config.chunk_vertices, v_count - begin);
      const std::span<Vertex> chunk(ids.data(),
                                    static_cast<std::size_t>(size));
      std::iota(chunk.begin(), chunk.end(), begin);
      sbp::serial_sweep(graph, model, chunk, config.base.beta, rng, tally);
      release(config);
      begin += size;
    }
  });
  out.finetune_moves = tally.accepted;
  out.assignment = model.copy_assignment();
  out.num_blocks = num_blocks;
  out.mdl = stats.final_mdl;
  out.timings.finetune_seconds = stage.elapsed();
  out.timings.total_seconds = total.elapsed();
  return out;
}

}  // namespace hsbp::ooc

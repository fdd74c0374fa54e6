#include "dist/dist_sbp.hpp"

#include <numeric>
#include <stdexcept>
#include <vector>

#include "sbp/mcmc_common.hpp"
#include "util/omp_region.hpp"
#include "util/rng.hpp"

namespace hsbp::dist {

using blockmodel::BlockId;
using blockmodel::Blockmodel;
using graph::Graph;
using graph::Vertex;

namespace {

/// One distributed A-SBP pass: every rank sweeps its own vertices,
/// reading them from `next` (its own in-pass moves) and every other
/// vertex from `stale` (the pass-start view). A rank writes `next` only
/// at its own vertices, and its tallies only at slot `rank`.
void rank_sweep(const Graph& graph, const Blockmodel& b,
                const std::vector<std::int32_t>& stale,
                std::vector<std::int32_t>& next,
                const VertexPartition& partition, double beta,
                util::RngPool& rngs, std::vector<std::int64_t>& proposals,
                std::vector<std::int64_t>& moves) {
  util::omp_region([&] {
#pragma omp for schedule(dynamic, 1)
    for (int rank = 0; rank < partition.ranks; ++rank) {
      const auto slot = static_cast<std::size_t>(rank);
      // Local view of block sizes: stale counts plus this rank's
      // deltas.
      std::vector<std::int32_t> sizes(
          static_cast<std::size_t>(b.num_blocks()));
      for (BlockId r = 0; r < b.num_blocks(); ++r) {
        sizes[static_cast<std::size_t>(r)] = b.block_size(r);
      }

      const auto view = [&](Vertex u) {
        const auto i = static_cast<std::size_t>(u);
        return partition.rank_of[i] == rank ? next[i] : stale[i];
      };

      util::Rng& rng = rngs.stream(slot);
      for (const Vertex v : partition.members[slot]) {
        const BlockId from = view(v);
        const auto outcome = sbp::evaluate_vertex(
            graph, b, view, v, sizes[static_cast<std::size_t>(from)], beta,
            rng, blockmodel::thread_move_scratch());
        ++proposals[slot];
        if (!outcome.moved) continue;
        next[static_cast<std::size_t>(v)] = outcome.to;
        --sizes[static_cast<std::size_t>(from)];
        ++sizes[static_cast<std::size_t>(outcome.to)];
        ++moves[slot];
      }
    }
  });
}

/// Compacts away empty blocks (possible when two ranks concurrently
/// drain the same block — the coordination real distribution also
/// lacks), relabelling the survivors in ascending order.
void compact_empty_blocks(std::vector<std::int32_t>& assignment,
                          BlockId& num_blocks) {
  std::vector<std::int32_t> counts(static_cast<std::size_t>(num_blocks), 0);
  for (const std::int32_t label : assignment) {
    ++counts[static_cast<std::size_t>(label)];
  }
  std::vector<std::int32_t> remap(static_cast<std::size_t>(num_blocks), -1);
  BlockId next = 0;
  for (BlockId r = 0; r < num_blocks; ++r) {
    if (counts[static_cast<std::size_t>(r)] > 0) {
      remap[static_cast<std::size_t>(r)] = next++;
    }
  }
  if (next == num_blocks) return;
  for (auto& label : assignment) {
    label = remap[static_cast<std::size_t>(label)];
  }
  num_blocks = next;
}

}  // namespace

DistributedResult run_distributed(const Graph& graph,
                                  const DistributedConfig& config) {
  if (config.ranks < 1) {
    throw std::invalid_argument("run_distributed: ranks >= 1");
  }
  const VertexPartition partition =
      partition_vertices(graph, config.ranks, config.strategy);
  const auto ranks = static_cast<std::size_t>(config.ranks);

  DistributedResult out;
  out.partition_imbalance = partition.imbalance();
  out.rank_accepted.assign(ranks, 0);

  const auto phase = [&](Blockmodel& b, const sbp::McmcSettings& settings,
                         util::RngPool& rngs) {
    // The centralized merge phase ends in a membership broadcast.
    out.comm.record(
        CollectiveKind::AssignmentBcast,
        static_cast<std::int64_t>(graph.num_vertices()) * kLabelBytes * 2,
        config.ranks);
    sbp::PhaseOutcome outcome;
    sbp::McmcPhaseStats& stats = outcome.stats;
    sbp::run_passes(graph, b, settings, stats, [&] {
      const std::vector<std::int32_t> stale = b.assignment();
      std::vector<std::int32_t> next = stale;
      std::vector<std::int64_t> proposals(ranks, 0);
      std::vector<std::int64_t> moves(ranks, 0);
      rank_sweep(graph, b, stale, next, partition, settings.beta, rngs,
                 proposals, moves);
      stats.proposals += std::accumulate(proposals.begin(), proposals.end(),
                                         std::int64_t{0});
      const std::int64_t moved =
          std::accumulate(moves.begin(), moves.end(), std::int64_t{0});
      stats.accepted += moved;
      for (std::size_t rank = 0; rank < ranks; ++rank) {
        out.rank_accepted[rank] += moves[rank];
      }
      out.comm.record(CollectiveKind::AllGatherUpdates, moved * kUpdateBytes,
                      config.ranks);

      BlockId num_blocks = b.num_blocks();
      compact_empty_blocks(next, num_blocks);
      b = Blockmodel::from_assignment(graph, next, num_blocks);
      out.comm.record(
          CollectiveKind::RebuildAllReduce,
          static_cast<std::int64_t>(b.matrix().nonzeros()) * kCellBytes,
          config.ranks);
    });
    outcome.parallel_updates = stats.iterations * graph.num_vertices();
    return outcome;
  };
  // Rank r draws from stream r of the pool the merge phase uses.
  out.result = sbp::run(graph, config.base, phase, ranks);
  return out;
}

}  // namespace hsbp::dist

/// \file streaming.hpp
/// \brief Streaming stochastic block partitioning.
///
/// SBP originates from the IEEE HPEC *Streaming* Graph Challenge
/// (Kao et al. 2017 — the paper's ref [9]), where the graph arrives in
/// parts and the partition must be maintained as edges accumulate.
/// This module implements that workload on top of the paper's
/// algorithms: each cumulative snapshot is fitted by warm-starting from
/// the previous partition instead of from the identity partition, which
/// is where streaming saves its time.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sbp/sbp.hpp"

namespace hsbp::sbp {

/// Runs the configured variant on `graph` starting from an arbitrary
/// evaluated partition instead of the identity partition (the warm-start
/// entry point streaming builds on; run() is the cold-start special
/// case). \pre assignment labels dense in [0, num_blocks).
SbpResult run_warm(const graph::Graph& graph, const SbpConfig& config,
                   std::span<const std::int32_t> assignment,
                   blockmodel::BlockId num_blocks);

/// The one warm refit (run_streaming, the daemon's refits): extend
/// `previous` to `graph`, refine it by `refine_factor` seeded with
/// `refine_seed`, and run_warm. Merges only coarsen, so a previous
/// partition of <= 2 blocks would pin the search: that re-fits cold.
SbpResult warm_refit(const graph::Graph& graph, const SbpConfig& config,
                     const std::vector<std::int32_t>& previous,
                     blockmodel::BlockId previous_blocks, int refine_factor,
                     std::uint64_t refine_seed);

struct StreamingResult {
  /// Result after each cumulative snapshot (last = final answer).
  std::vector<SbpResult> snapshots;
  double total_seconds = 0.0;
};

/// Fits each cumulative snapshot in order, each after the first by
/// warm_refit from the previous snapshot's partition. Snapshots must
/// be cumulative: each graph contains at least the vertices of its
/// predecessor (typically produced by generator::streaming_snapshots).
/// \throws std::invalid_argument on an empty snapshot list, a shrinking
/// vertex count, or refine_factor < 1.
StreamingResult run_streaming(const std::vector<graph::Graph>& snapshots,
                              const SbpConfig& config,
                              int refine_factor = 3);

}  // namespace hsbp::sbp

#include "sbp/streaming.hpp"

#include <stdexcept>
#include <vector>

#include "sbp/labels.hpp"
#include "util/timer.hpp"

namespace hsbp::sbp {

using blockmodel::BlockId;
using graph::Graph;

// Apart from labels.cpp and sbp.cpp: ld --wrap traces only cross-object
// calls, and perfbench's warm_start and search layers wrap the callees.
SbpResult warm_refit(const Graph& graph, const SbpConfig& config,
                     const std::vector<std::int32_t>& previous,
                     BlockId previous_blocks, int refine_factor,
                     std::uint64_t refine_seed) {
  if (previous_blocks <= 2) return run(graph, config);
  BlockId num_blocks = previous_blocks;
  const auto extended = extend_assignment(graph, previous, num_blocks);
  const auto warm =
      refine_assignment(extended, num_blocks, refine_factor, refine_seed);
  return run_warm(graph, config, warm, num_blocks);
}

StreamingResult run_streaming(const std::vector<Graph>& snapshots,
                              const SbpConfig& config, int refine_factor) {
  if (snapshots.empty()) {
    throw std::invalid_argument("run_streaming: no snapshots");
  }
  if (refine_factor < 1) {
    throw std::invalid_argument("run_streaming: refine_factor >= 1");
  }
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    if (snapshots[i].num_vertices() < snapshots[i - 1].num_vertices()) {
      throw std::invalid_argument(
          "run_streaming: snapshots must be cumulative (vertex count "
          "shrank)");
    }
  }

  util::Timer total;
  StreamingResult result;
  result.snapshots.reserve(snapshots.size());

  for (std::size_t part = 0; part < snapshots.size(); ++part) {
    const Graph& graph = snapshots[part];
    if (graph.num_edges() == 0) {
      // Degenerate early snapshot (no edges yet): the only defensible
      // partition is one structure-less block.
      SbpResult trivial;
      trivial.assignment.assign(
          static_cast<std::size_t>(graph.num_vertices()), 0);
      trivial.num_blocks = graph.num_vertices() > 0 ? 1 : 0;
      result.snapshots.push_back(std::move(trivial));
      continue;
    }
    result.snapshots.push_back(
        part == 0
            ? run(graph, config)
            : warm_refit(graph, config, result.snapshots.back().assignment,
                         result.snapshots.back().num_blocks, refine_factor,
                         config.seed + part));
  }

  result.total_seconds = total.elapsed();
  return result;
}

}  // namespace hsbp::sbp

#include "sample/extrapolate.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "sbp/labels.hpp"

namespace hsbp::sample {

using blockmodel::BlockId;
using graph::GraphView;
using graph::Vertex;

ExtrapolationResult extrapolate(
    const GraphView& graph, const SampledGraph& sampled,
    std::span<const std::int32_t> sample_assignment, BlockId num_blocks,
    const std::function<void()>& release, Vertex release_period) {
  if (sample_assignment.size() != sampled.to_full.size()) {
    throw std::invalid_argument(
        "extrapolate: sample assignment size != sample size");
  }
  if (sampled.to_sample.size() !=
      static_cast<std::size_t>(graph.num_vertices())) {
    throw std::invalid_argument(
        "extrapolate: id map does not cover the full graph");
  }
  if (num_blocks <= 0) {
    throw std::invalid_argument("extrapolate: num_blocks must be positive");
  }
  if (release && release_period <= 0) {
    throw std::invalid_argument("extrapolate: release_period must be >= 1");
  }

  ExtrapolationResult out;
  out.num_blocks = num_blocks;
  out.assignment.assign(static_cast<std::size_t>(graph.num_vertices()), -1);
  for (std::size_t s = 0; s < sampled.to_full.size(); ++s) {
    const std::int32_t block = sample_assignment[s];
    if (block < 0 || block >= num_blocks) {
      throw std::invalid_argument("extrapolate: label outside [0, C)");
    }
    out.assignment[static_cast<std::size_t>(sampled.to_full[s])] = block;
  }

  // Multi-source BFS from the sampled core (ascending id order keeps the
  // stage deterministic). A vertex is labeled the moment it is first
  // reached, so chains of unsampled vertices propagate memberships.
  std::deque<Vertex> queue(sampled.to_full.begin(), sampled.to_full.end());
  std::vector<std::int64_t> votes(static_cast<std::size_t>(num_blocks), 0);
  std::vector<BlockId> touched;
  const auto visit = [&](Vertex u) {
    if (out.assignment[static_cast<std::size_t>(u)] >= 0) return;
    const BlockId block =
        sbp::plurality_block(graph, out.assignment, votes, touched, u);
    if (block < 0) return;  // all neighbors still unlabeled; revisit later
    out.assignment[static_cast<std::size_t>(u)] = block;
    ++out.frontier_assigned;
    queue.push_back(u);
  };
  Vertex dequeued = 0;
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop_front();
    for (const Vertex u : graph.out_neighbors(v)) visit(u);
    for (const Vertex u : graph.in_neighbors(v)) visit(u);
    if (release && ++dequeued % release_period == 0) release();
  }

  // Vertices with no path to the sampled core: the globally best block
  // is the one holding the most vertices so far (smallest id on ties).
  BlockId fallback = 0;
  {
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(num_blocks), 0);
    for (const std::int32_t block : out.assignment) {
      if (block >= 0) ++sizes[static_cast<std::size_t>(block)];
    }
    fallback = static_cast<BlockId>(
        std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  }
  for (std::size_t v = 0; v < out.assignment.size(); ++v) {
    if (out.assignment[v] < 0) {
      out.assignment[v] = fallback;
      ++out.isolated_assigned;
    }
  }
  return out;
}

}  // namespace hsbp::sample

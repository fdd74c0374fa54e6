#include "sbp/labels.hpp"

#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace hsbp::sbp {

using blockmodel::BlockId;
using graph::Graph;
using graph::GraphView;
using graph::Vertex;

BlockId plurality_block(const GraphView& graph,
                        std::span<const std::int32_t> assignment,
                        std::vector<std::int64_t>& votes,
                        std::vector<BlockId>& touched, Vertex v) {
  touched.clear();
  const auto tally = [&](Vertex u) {
    const std::int32_t block = assignment[static_cast<std::size_t>(u)];
    if (block < 0) return;
    if (votes[static_cast<std::size_t>(block)] == 0) touched.push_back(block);
    ++votes[static_cast<std::size_t>(block)];
  };
  for (const Vertex u : graph.out_neighbors(v)) tally(u);
  for (const Vertex u : graph.in_neighbors(v)) tally(u);

  BlockId best = -1;
  std::int64_t best_votes = 0;
  for (const BlockId block : touched) {
    const std::int64_t count = votes[static_cast<std::size_t>(block)];
    votes[static_cast<std::size_t>(block)] = 0;
    if (count > best_votes || (count == best_votes && block < best)) {
      best = block;
      best_votes = count;
    }
  }
  return best;
}

BlockId compact_labels(std::span<std::int32_t> labels, BlockId num_blocks) {
  std::vector<std::int32_t> dense(static_cast<std::size_t>(num_blocks), -1);
  BlockId next = 0;
  for (auto& label : labels) {
    auto& d = dense[static_cast<std::size_t>(label)];
    if (d < 0) d = next++;
    label = d;
  }
  return next;
}

std::vector<std::int32_t> extend_assignment(
    const Graph& graph, const std::vector<std::int32_t>& assignment,
    BlockId& num_blocks) {
  const auto v_count = static_cast<std::size_t>(graph.num_vertices());
  if (assignment.size() > v_count) {
    throw std::invalid_argument(
        "extend_assignment: snapshot has fewer vertices than the previous "
        "partition");
  }
  std::vector<std::int32_t> extended(v_count, -1);
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    if (assignment[v] < 0 || assignment[v] >= num_blocks) {
      throw std::invalid_argument(
          "extend_assignment: label outside [0, num_blocks)");
    }
    extended[v] = assignment[v];
  }
  // Each new vertex may open a block, so C + new labels bound the votes.
  // A vertex is unlabelled while it votes: its self-loops cast nothing.
  std::vector<std::int64_t> votes(
      static_cast<std::size_t>(num_blocks) + v_count - assignment.size(), 0);
  std::vector<BlockId> touched;
  for (std::size_t v = assignment.size(); v < v_count; ++v) {
    const BlockId block = plurality_block(graph, extended, votes, touched,
                                          static_cast<Vertex>(v));
    extended[v] = block >= 0 ? block : num_blocks++;
  }
  return extended;
}

std::vector<std::int32_t> refine_assignment(
    std::span<const std::int32_t> assignment, BlockId& num_blocks,
    int factor, std::uint64_t seed) {
  // Refined labels, and the compaction array, span num_blocks × factor.
  if (factor < 1 || std::int64_t{num_blocks} * factor >
                        std::numeric_limits<BlockId>::max()) {
    throw std::invalid_argument(
        "refine_assignment: factor >= 1 and num_blocks * factor must fit a "
        "block id");
  }
  util::Rng rng(seed);
  std::vector<std::int32_t> refined(assignment.size());
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    if (assignment[v] < 0 || assignment[v] >= num_blocks) {
      throw std::invalid_argument(
          "refine_assignment: label outside [0, num_blocks)");
    }
    const auto sub = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(factor)));
    refined[v] = assignment[v] * factor + sub;
  }
  num_blocks = compact_labels(refined, num_blocks * factor);
  return refined;
}

}  // namespace hsbp::sbp

/// \file extrapolate.hpp
/// \brief Membership propagation from a partitioned sample to the full
/// graph — SamBaS's "extrapolate" stage (arXiv:2108.06651 §III-C).
///
/// Sampled vertices keep the block the subgraph fit gave them. The
/// unsampled remainder is labeled over a multi-source BFS frontier
/// rooted at the sampled core: when a vertex is first reached, it joins
/// the plurality block among its already-labeled neighbors (edge
/// multiplicity counts; ties break toward the smaller block id, so the
/// stage is deterministic). This is the greedy argmax of the ΔMDL a
/// single-vertex attachment can change — the likelihood term only moves
/// through the vertex's edge counts into each block. Unsampled vertices
/// in components with no sampled vertex have no signal at all and join
/// the globally best (largest) block; the fine-tune stage is what moves
/// them somewhere sensible.
/// The vote is sbp::plurality_block. The stage builds no blockmodel:
/// sample::run builds one in memory, ooc::fit a chunked one.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "graph/view.hpp"
#include "sample/samplers.hpp"

namespace hsbp::sample {

struct ExtrapolationResult {
  /// Full-graph membership: every vertex in [0, num_blocks).
  std::vector<std::int32_t> assignment;
  blockmodel::BlockId num_blocks = 0;
  /// Unsampled vertices labeled via the BFS frontier…
  std::int64_t frontier_assigned = 0;
  /// …and via the isolated-vertex fallback (no path to the core).
  std::int64_t isolated_assigned = 0;
};

/// Propagates `sample_assignment` (a partition of `sampled.subgraph`
/// into [0, num_blocks)) onto every vertex of `graph`, calling a
/// non-empty `release` after every `release_period` dequeued vertices.
/// \throws std::invalid_argument if sizes, labels or the period are
/// inconsistent.
ExtrapolationResult extrapolate(const graph::GraphView& graph,
                                const SampledGraph& sampled,
                                std::span<const std::int32_t> sample_assignment,
                                blockmodel::BlockId num_blocks,
                                const std::function<void()>& release = {},
                                graph::Vertex release_period = 0);

}  // namespace hsbp::sample

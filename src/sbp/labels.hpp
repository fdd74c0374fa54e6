/// \file labels.hpp
/// \brief The label rules every warm start shares: SamBaS extrapolation,
/// the out-of-core fit, streaming and the daemon's refits spread labels
/// by one neighbour vote and compact them by one rule. extend_assignment
/// and refine_assignment live apart from warm_refit (streaming.cpp) so
/// that `ld --wrap` sees the calls: it traces only cross-object calls.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "graph/graph.hpp"
#include "graph/view.hpp"

namespace hsbp::sbp {

/// Plurality block among v's labelled neighbours (label >= 0; edge
/// multiplicity counts in both directions; ties toward the smaller
/// block id), or −1 if none is labelled yet. `votes` is indexed by
/// label and zero on entry and exit; `touched` is scratch.
blockmodel::BlockId plurality_block(const graph::GraphView& graph,
                                    std::span<const std::int32_t> assignment,
                                    std::vector<std::int64_t>& votes,
                                    std::vector<blockmodel::BlockId>& touched,
                                    graph::Vertex v);

/// Relabels `labels` in place to [0, C') in order of first appearance
/// and returns C'. \pre every label in [0, num_blocks).
blockmodel::BlockId compact_labels(std::span<std::int32_t> labels,
                                   blockmodel::BlockId num_blocks);

/// Extends a partition of a smaller vertex set to `graph`'s vertex set:
/// new vertices, in id order, join their plurality_block; one with no
/// labelled neighbour opens a fresh singleton block (the merge phase
/// folds it wherever it belongs), and `num_blocks` counts it.
/// `assignment` may be empty. \throws std::invalid_argument if it
/// covers more vertices than `graph` or holds a label outside
/// [0, num_blocks).
std::vector<std::int32_t> extend_assignment(
    const graph::Graph& graph, const std::vector<std::int32_t>& assignment,
    blockmodel::BlockId& num_blocks);

/// Randomly splits every block into up to `factor` sub-blocks and
/// compacts the labels. Warm starts need this because the golden
/// search only merges downward: new edges may reveal that a previous
/// block must *split*, and the refined partition puts the optimum back
/// below the starting block count while keeping most of the learned
/// structure (coherent sub-blocks re-merge in one cheap merge phase).
/// Deterministic in `seed`. \throws std::invalid_argument if factor < 1,
/// num_blocks × factor overflows a block id, or a label lies outside
/// [0, num_blocks).
std::vector<std::int32_t> refine_assignment(
    std::span<const std::int32_t> assignment, blockmodel::BlockId& num_blocks,
    int factor, std::uint64_t seed);

}  // namespace hsbp::sbp

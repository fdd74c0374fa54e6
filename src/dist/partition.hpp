/// \file partition.hpp
/// \brief Vertex partitioners for the simulated distributed runtime.
///
/// Distributing SBP (the paper's final future-work item) starts with
/// assigning vertices to ranks. Three strategies with different balance
/// properties:
///   Range         — contiguous id ranges (cheapest, locality-friendly,
///                   degree-imbalanced on sorted inputs);
///   RoundRobin    — v mod R (cheap, decorrelates ids);
///   DegreeBalanced— greedy longest-processing-time packing by vertex
///                   degree, the balance the paper's §5.5 load-balancing
///                   remark asks for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/view.hpp"

namespace hsbp::dist {

enum class PartitionStrategy { Range, RoundRobin, DegreeBalanced };

/// The `--partition` name: "range", "roundrobin", "balanced".
const char* strategy_name(PartitionStrategy strategy) noexcept;

/// Inverse of strategy_name. \throws std::invalid_argument on an
/// unrecognised name.
PartitionStrategy parse_strategy(const std::string& name);

struct VertexPartition {
  int ranks = 0;
  std::vector<std::int32_t> rank_of;                ///< size V
  std::vector<std::vector<graph::Vertex>> members;  ///< per rank
  std::vector<graph::EdgeCount> degree_load;        ///< Σ degree per rank

  /// max load / mean load — 1.0 is perfect balance.
  double imbalance() const noexcept;
};

/// Partitions the graph's vertices over `ranks`. \pre ranks >= 1.
VertexPartition partition_vertices(const graph::GraphView& graph, int ranks,
                                   PartitionStrategy strategy);

}  // namespace hsbp::dist

/// \file components.hpp
/// \brief Weakly-connected components. SBP treats each component's
/// community structure independently; datasets with many tiny
/// components (common in SuiteSparse crawls) inflate the block count,
/// so the tooling reports component structure before fitting.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/view.hpp"

namespace hsbp::graph {

struct ComponentInfo {
  /// component id of each vertex, dense labels [0, count), ordered by
  /// first-seen vertex id.
  std::vector<std::int32_t> component_of;
  std::int32_t count = 0;                 ///< number of components
  std::vector<std::int32_t> sizes;        ///< vertex count per component
  std::int32_t largest = 0;               ///< id of the largest component
};

/// Weakly-connected components (edge direction ignored), iterative BFS.
ComponentInfo weakly_connected_components(const GraphView& graph);

}  // namespace hsbp::graph

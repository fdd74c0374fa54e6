#include "graph/components.hpp"

#include <algorithm>
#include <deque>

namespace hsbp::graph {

ComponentInfo weakly_connected_components(const GraphView& graph) {
  ComponentInfo info;
  const auto v_count = static_cast<std::size_t>(graph.num_vertices());
  info.component_of.assign(v_count, -1);

  std::deque<Vertex> frontier;
  for (Vertex start = 0; start < graph.num_vertices(); ++start) {
    if (info.component_of[static_cast<std::size_t>(start)] >= 0) continue;
    const std::int32_t id = info.count++;
    info.sizes.push_back(0);
    frontier.push_back(start);
    info.component_of[static_cast<std::size_t>(start)] = id;
    while (!frontier.empty()) {
      const Vertex v = frontier.front();
      frontier.pop_front();
      ++info.sizes[static_cast<std::size_t>(id)];
      const auto visit = [&](Vertex u) {
        auto& mark = info.component_of[static_cast<std::size_t>(u)];
        if (mark < 0) {
          mark = id;
          frontier.push_back(u);
        }
      };
      for (const Vertex u : graph.out_neighbors(v)) visit(u);
      for (const Vertex u : graph.in_neighbors(v)) visit(u);
    }
  }

  if (info.count > 0) {
    info.largest = static_cast<std::int32_t>(
        std::max_element(info.sizes.begin(), info.sizes.end()) -
        info.sizes.begin());
  }
  return info;
}

}  // namespace hsbp::graph

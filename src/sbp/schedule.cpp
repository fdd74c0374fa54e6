#include "sbp/schedule.hpp"

#include <algorithm>

namespace hsbp::sbp {

const char* schedule_name(PassSchedule schedule) noexcept {
  switch (schedule) {
    case PassSchedule::Static:
      return "static";
    case PassSchedule::DegreeSorted:
      return "degree-sorted";
  }
  return "static";
}

std::optional<PassSchedule> parse_schedule(std::string_view name) noexcept {
  if (name == "static") return PassSchedule::Static;
  if (name == "degree-sorted" || name == "degree_sorted") {
    return PassSchedule::DegreeSorted;
  }
  return std::nullopt;
}

void degree_sorted_order(const graph::GraphView& graph,
                         std::span<const graph::Vertex> vertices,
                         std::vector<graph::Vertex>& out) {
  out.assign(vertices.begin(), vertices.end());
  std::stable_sort(out.begin(), out.end(),
                   [&graph](graph::Vertex a, graph::Vertex b) {
                     return graph.degree(a) > graph.degree(b);
                   });
}

}  // namespace hsbp::sbp

#include "dist/partition.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/degree.hpp"

namespace hsbp::dist {

using graph::EdgeCount;
using graph::GraphView;
using graph::Vertex;

const char* strategy_name(PartitionStrategy strategy) noexcept {
  switch (strategy) {
    case PartitionStrategy::Range: return "range";
    case PartitionStrategy::RoundRobin: return "roundrobin";
    case PartitionStrategy::DegreeBalanced: return "balanced";
  }
  return "?";
}

PartitionStrategy parse_strategy(const std::string& name) {
  for (const PartitionStrategy strategy :
       {PartitionStrategy::Range, PartitionStrategy::RoundRobin,
        PartitionStrategy::DegreeBalanced}) {
    if (name == strategy_name(strategy)) return strategy;
  }
  throw std::invalid_argument("unknown partition '" + name +
                              "' (range|roundrobin|balanced)");
}

double VertexPartition::imbalance() const noexcept {
  if (ranks == 0) return 0.0;
  EdgeCount total = 0;
  EdgeCount max_load = 0;
  for (const EdgeCount load : degree_load) {
    total += load;
    max_load = std::max(max_load, load);
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(ranks);
  return static_cast<double>(max_load) / mean;
}

VertexPartition partition_vertices(const GraphView& graph, int ranks,
                                   PartitionStrategy strategy) {
  if (ranks < 1) throw std::invalid_argument("partition: ranks >= 1");

  VertexPartition partition;
  partition.ranks = ranks;
  const auto v_count = static_cast<std::size_t>(graph.num_vertices());
  partition.rank_of.assign(v_count, 0);
  partition.members.resize(static_cast<std::size_t>(ranks));
  partition.degree_load.assign(static_cast<std::size_t>(ranks), 0);

  const auto assign = [&](Vertex v, int rank) {
    partition.rank_of[static_cast<std::size_t>(v)] = rank;
    partition.members[static_cast<std::size_t>(rank)].push_back(v);
    partition.degree_load[static_cast<std::size_t>(rank)] += graph.degree(v);
  };

  switch (strategy) {
    case PartitionStrategy::Range: {
      for (Vertex v = 0; v < graph.num_vertices(); ++v) {
        const auto rank = static_cast<int>(
            static_cast<std::size_t>(v) * static_cast<std::size_t>(ranks) /
            std::max<std::size_t>(v_count, 1));
        assign(v, std::min(rank, ranks - 1));
      }
      break;
    }
    case PartitionStrategy::RoundRobin: {
      for (Vertex v = 0; v < graph.num_vertices(); ++v) {
        assign(v, static_cast<int>(v % ranks));
      }
      break;
    }
    case PartitionStrategy::DegreeBalanced: {
      // Longest-processing-time: heaviest vertices first, each to the
      // currently lightest rank.
      const auto order = graph::vertices_by_degree_desc(graph);
      for (const Vertex v : order) {
        const auto lightest = static_cast<int>(
            std::min_element(partition.degree_load.begin(),
                             partition.degree_load.end()) -
            partition.degree_load.begin());
        assign(v, lightest);
      }
      break;
    }
  }
  return partition;
}

}  // namespace hsbp::dist

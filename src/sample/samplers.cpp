#include "sample/samplers.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "graph/builder.hpp"
#include "graph/degree.hpp"

namespace hsbp::sample {

using graph::EdgeCount;
using graph::GraphView;
using graph::Vertex;

const char* sampler_name(SamplerKind kind) noexcept {
  switch (kind) {
    case SamplerKind::UniformRandom: return "uniform";
    case SamplerKind::DegreeWeighted: return "degree";
    case SamplerKind::RandomEdge: return "edge";
    case SamplerKind::ExpansionSnowball: return "snowball";
  }
  return "?";
}

SamplerKind parse_sampler(const std::string& name) {
  for (const SamplerKind kind : all_sampler_kinds()) {
    if (name == sampler_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown sampler '" + name +
                              "' (uniform|degree|edge|snowball)");
}

const std::vector<SamplerKind>& all_sampler_kinds() {
  static const std::vector<SamplerKind> kinds = {
      SamplerKind::UniformRandom, SamplerKind::DegreeWeighted,
      SamplerKind::RandomEdge, SamplerKind::ExpansionSnowball};
  return kinds;
}

Vertex sample_size(Vertex num_vertices, double fraction) {
  if (num_vertices <= 0) {
    throw std::invalid_argument("sample_size: empty graph");
  }
  if (!(fraction > 0.0) || fraction > 1.0) {
    throw std::invalid_argument("sample_size: fraction in (0, 1]");
  }
  const auto target = static_cast<Vertex>(
      std::ceil(fraction * static_cast<double>(num_vertices)));
  return std::clamp(target, Vertex{1}, num_vertices);
}

namespace {

/// Fills `out` up to `target` with uniformly random vertices not yet in
/// the sample — the uniform sampler itself, and the shared fallback for
/// strategies whose own rule can run dry (edge sampling cannot reach
/// isolated vertices, snowball can exhaust every component).
/// Deterministic: partial Fisher-Yates over the not-yet-sampled ids in
/// ascending order.
void fill_uniform_remainder(const GraphView& graph, Vertex target,
                            std::vector<char>& in_sample,
                            std::vector<Vertex>& out, util::Rng& rng) {
  if (static_cast<Vertex>(out.size()) >= target) return;
  std::vector<Vertex> pool;
  pool.reserve(static_cast<std::size_t>(graph.num_vertices()) - out.size());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    if (!in_sample[static_cast<std::size_t>(v)]) pool.push_back(v);
  }
  const auto need = static_cast<std::size_t>(target) - out.size();
  for (std::size_t i = 0; i < need; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_int(pool.size() - i));
    std::swap(pool[i], pool[j]);
    in_sample[static_cast<std::size_t>(pool[i])] = 1;
    out.push_back(pool[i]);
  }
}

std::vector<Vertex> select_uniform(const GraphView& graph, Vertex target,
                                   util::Rng& rng) {
  std::vector<char> in_sample(static_cast<std::size_t>(graph.num_vertices()),
                              0);
  std::vector<Vertex> out;
  fill_uniform_remainder(graph, target, in_sample, out, rng);
  return out;
}

/// Weighted sampling without replacement via Efraimidis–Spirakis
/// reservoir keys: each vertex draws key = u^(1/w) with
/// w = degree(v)+1 (the +1 keeps isolated vertices reachable); the
/// `target` largest keys win. One pass, no rejection loop, exactly
/// `target` distinct vertices for any fraction.
std::vector<Vertex> select_degree_weighted(const GraphView& graph,
                                           Vertex target, util::Rng& rng) {
  const Vertex n = graph.num_vertices();
  std::vector<std::pair<double, Vertex>> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    const double weight = static_cast<double>(graph.degree(v)) + 1.0;
    // log(u)/w is a monotone transform of u^(1/w); cheaper and immune
    // to double underflow on huge hub degrees.
    const double key = std::log(std::max(rng.uniform(), 1e-300)) / weight;
    keys.emplace_back(key, v);
  }
  std::nth_element(keys.begin(),
                   keys.begin() + static_cast<std::ptrdiff_t>(target) - 1,
                   keys.end(), [](const auto& a, const auto& b) {
                     return a.first > b.first ||
                            (a.first == b.first && a.second < b.second);
                   });
  std::vector<Vertex> out;
  out.reserve(static_cast<std::size_t>(target));
  for (std::size_t i = 0; i < static_cast<std::size_t>(target); ++i) {
    out.push_back(keys[i].second);
  }
  return out;
}

std::vector<Vertex> select_random_edge(const GraphView& graph, Vertex target,
                                       util::Rng& rng) {
  const auto edges = graph.edges();
  std::vector<char> in_sample(static_cast<std::size_t>(graph.num_vertices()),
                              0);
  std::vector<Vertex> out;
  out.reserve(static_cast<std::size_t>(target));
  const auto take = [&](Vertex v) {
    if (static_cast<Vertex>(out.size()) >= target) return;
    if (in_sample[static_cast<std::size_t>(v)]) return;
    in_sample[static_cast<std::size_t>(v)] = 1;
    out.push_back(v);
  };
  // Each draw adds at most 2 new vertices; cap the number of fruitless
  // draws so graphs whose edges never reach `target` distinct
  // endpoints (isolated vertices) terminate.
  const std::uint64_t max_draws =
      edges.empty() ? 0 : 16 * static_cast<std::uint64_t>(target) + 64;
  for (std::uint64_t draw = 0;
       draw < max_draws && static_cast<Vertex>(out.size()) < target; ++draw) {
    const auto& edge =
        edges[static_cast<std::size_t>(rng.uniform_int(edges.size()))];
    take(edge.first);
    take(edge.second);
  }
  fill_uniform_remainder(graph, target, in_sample, out, rng);
  return out;
}

std::vector<Vertex> select_snowball(const GraphView& graph, Vertex target,
                                    util::Rng& rng) {
  const Vertex n = graph.num_vertices();
  std::vector<char> in_sample(static_cast<std::size_t>(n), 0);
  std::vector<char> in_frontier(static_cast<std::size_t>(n), 0);
  std::vector<Vertex> frontier;
  std::vector<Vertex> out;
  out.reserve(static_cast<std::size_t>(target));

  // Seed order for reseeding after a component is exhausted: a random
  // permutation consumed left to right (deterministic, no rejection).
  std::vector<Vertex> seeds(static_cast<std::size_t>(n));
  std::iota(seeds.begin(), seeds.end(), Vertex{0});
  {
    std::vector<std::int32_t> tmp(seeds.begin(), seeds.end());
    rng.shuffle(tmp);
    std::copy(tmp.begin(), tmp.end(), seeds.begin());
  }
  std::size_t next_seed = 0;

  const auto absorb = [&](Vertex v) {
    in_sample[static_cast<std::size_t>(v)] = 1;
    out.push_back(v);
    const auto push = [&](Vertex u) {
      if (in_sample[static_cast<std::size_t>(u)] ||
          in_frontier[static_cast<std::size_t>(u)]) {
        return;
      }
      in_frontier[static_cast<std::size_t>(u)] = 1;
      frontier.push_back(u);
    };
    for (const Vertex u : graph.out_neighbors(v)) push(u);
    for (const Vertex u : graph.in_neighbors(v)) push(u);
  };

  while (static_cast<Vertex>(out.size()) < target) {
    if (frontier.empty()) {
      while (in_sample[static_cast<std::size_t>(seeds[next_seed])]) {
        ++next_seed;
      }
      absorb(seeds[next_seed]);
      continue;
    }
    const std::size_t i =
        static_cast<std::size_t>(rng.uniform_int(frontier.size()));
    const Vertex v = frontier[i];
    frontier[i] = frontier.back();
    frontier.pop_back();
    in_frontier[static_cast<std::size_t>(v)] = 0;
    absorb(v);
  }
  return out;
}

}  // namespace

std::vector<Vertex> select_vertices(const GraphView& graph, SamplerKind kind,
                                    Vertex target, util::Rng& rng) {
  switch (kind) {
    case SamplerKind::UniformRandom:
      return select_uniform(graph, target, rng);
    case SamplerKind::DegreeWeighted:
      return select_degree_weighted(graph, target, rng);
    case SamplerKind::RandomEdge:
      return select_random_edge(graph, target, rng);
    case SamplerKind::ExpansionSnowball:
      return select_snowball(graph, target, rng);
  }
  throw std::invalid_argument("select_vertices: unknown kind");
}

SampledGraph induced_subgraph(const GraphView& graph,
                              std::vector<Vertex> vertices) {
  std::sort(vertices.begin(), vertices.end());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    if (vertices[i] < 0 || vertices[i] >= graph.num_vertices()) {
      throw std::invalid_argument("induced_subgraph: vertex out of range");
    }
    if (i > 0 && vertices[i] == vertices[i - 1]) {
      throw std::invalid_argument("induced_subgraph: duplicate vertex id");
    }
  }

  SampledGraph sampled;
  sampled.to_full = std::move(vertices);
  sampled.to_sample.assign(static_cast<std::size_t>(graph.num_vertices()),
                           Vertex{-1});
  for (std::size_t s = 0; s < sampled.to_full.size(); ++s) {
    sampled.to_sample[static_cast<std::size_t>(sampled.to_full[s])] =
        static_cast<Vertex>(s);
  }

  graph::GraphBuilder builder(static_cast<Vertex>(sampled.to_full.size()));
  for (std::size_t s = 0; s < sampled.to_full.size(); ++s) {
    const Vertex v = sampled.to_full[s];
    for (const Vertex u : graph.out_neighbors(v)) {
      const Vertex t = sampled.to_sample[static_cast<std::size_t>(u)];
      if (t >= 0) builder.add_edge(static_cast<Vertex>(s), t);
    }
  }
  sampled.subgraph = builder.build();
  return sampled;
}

SampledGraph sample_graph(const GraphView& graph, SamplerKind kind,
                          double fraction, std::uint64_t seed) {
  const Vertex target = sample_size(graph.num_vertices(), fraction);
  util::Rng rng(seed);
  return induced_subgraph(graph, select_vertices(graph, kind, target, rng));
}

}  // namespace hsbp::sample

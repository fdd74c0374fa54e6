/// \file samplers.hpp
/// \brief Vertex samplers for the SamBaS pipeline (Wanye et al.,
/// arXiv:2108.06651): each strategy selects a fixed-size vertex subset
/// and induces the subgraph SBP will actually partition.
///
/// All four strategies sit behind one select_vertices switch and draw
/// from util::Rng, so a (kind, fraction, seed) triple is fully
/// deterministic:
///
///   UniformRandom     — every vertex equally likely; unbiased but tends
///                       to shatter sparse graphs into fragments;
///   DegreeWeighted    — P(v) ∝ degree(v)+1; keeps hubs (the vertices
///                       H-SBP handles serially) and most of the edge
///                       mass at small fractions;
///   RandomEdge        — endpoints of uniformly random edges; the
///                       induced-subgraph reading of edge sampling,
///                       biased toward dense regions;
///   ExpansionSnowball — forest-fire flavour: grow from a random seed by
///                       repeatedly absorbing a random frontier vertex,
///                       reseeding when the frontier empties; maximizes
///                       sample connectivity.
///
/// Sampled ids are relabeled to [0, n) in ascending full-id order; the
/// SampledGraph carries both directions of the id map so extrapolation
/// can push memberships back onto the full graph.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/view.hpp"
#include "util/rng.hpp"

namespace hsbp::sample {

enum class SamplerKind {
  UniformRandom,
  DegreeWeighted,
  RandomEdge,
  ExpansionSnowball,
};

/// Short CLI-friendly name: "uniform", "degree", "edge", "snowball".
const char* sampler_name(SamplerKind kind) noexcept;

/// Inverse of sampler_name. \throws std::invalid_argument on an
/// unrecognised name.
SamplerKind parse_sampler(const std::string& name);

/// All kinds, in declaration order (bench/test sweeps).
const std::vector<SamplerKind>& all_sampler_kinds();

/// Number of vertices a fraction maps to: ceil(fraction·V) clamped to
/// [1, V]. \pre 0 < fraction <= 1, num_vertices > 0.
graph::Vertex sample_size(graph::Vertex num_vertices, double fraction);

/// An induced subgraph plus the sample↔full vertex id maps.
struct SampledGraph {
  graph::Graph subgraph;                 ///< induced on the sampled set
  std::vector<graph::Vertex> to_full;    ///< sample id → full id (ascending)
  std::vector<graph::Vertex> to_sample;  ///< full id → sample id, −1 if out
};

/// Selects exactly `target` distinct vertex ids (unordered) of `graph`
/// by `kind`'s rule, deterministically in the rng state.
/// \pre 1 <= target <= graph.num_vertices().
std::vector<graph::Vertex> select_vertices(const graph::GraphView& graph,
                                           SamplerKind kind,
                                           graph::Vertex target,
                                           util::Rng& rng);

/// Builds the induced subgraph over `vertices` (relabeled ascending;
/// duplicates rejected). Every full-graph edge whose endpoints are both
/// sampled appears with its multiplicity.
/// \throws std::invalid_argument on out-of-range or duplicate ids.
SampledGraph induced_subgraph(const graph::GraphView& graph,
                              std::vector<graph::Vertex> vertices);

/// Convenience driver: select ceil(fraction·V) vertices with the given
/// strategy and induce the subgraph. Deterministic in `seed`.
/// \throws std::invalid_argument if fraction outside (0, 1].
SampledGraph sample_graph(const graph::GraphView& graph, SamplerKind kind,
                          double fraction, std::uint64_t seed);

}  // namespace hsbp::sample

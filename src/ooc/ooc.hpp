/// \file ooc.hpp
/// \brief Divide-and-conquer out-of-core fit: community detection on
/// graphs whose CSR does not fit in RAM.
///
/// The driver runs against a GraphView — in practice an MmapGraph over
/// a binary CSR file (mmap_graph.hpp) — and never materializes the full
/// graph on the heap. Four stages, each bounded by the memory budget:
///
///   1. skeleton   — SamBaS-sample a fraction of the vertices
///                   (samplers.hpp) and fit the induced subgraph with
///                   the configured sbp::Variant (sample::
///                   partition_sample). Only the skeleton subgraph
///                   lives on the heap.
///   2. extrapolate— sample::extrapolate of the skeleton's blocks to
///                   every vertex, chunked: every `chunk_vertices`
///                   dequeues the release_cache hook drops the mapped
///                   CSR pages the frontier just crossed.
///   3. pieces     — partition the vertex set into K contiguous id
///                   ranges (dist::partition_vertices; K from the budget
///                   vs. the in-memory CSR estimate), induce each piece's
///                   subgraph one at a time, and warm-refit it from the
///                   extrapolated labels (sbp::run_warm). Piece-local
///                   results are stitched back by plurality over the
///                   labels their vertices held before the refit, so
///                   the global label space survives.
///   4. fine-tune  — rebuild the global blockmodel with the chunked
///                   builder (Blockmodel::from_assignment_chunked) and
///                   polish with serial Metropolis-Hastings passes over
///                   the full view, releasing pages after every chunk.
///
/// Budget semantics: memory_budget_mb bounds the *designed* working set
/// — the largest piece subgraph plus O(V) bookkeeping (assignment,
/// degree cursors, blockmodel). The driver enforces it by choosing
/// K = ceil(csr_bytes / budget) pieces and by calling release_cache at
/// every chunk boundary; it does not police the allocator, so callers
/// measuring peak RSS should allow a small safety factor for the O(V)
/// state and the resident chunk.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/view.hpp"
#include "sample/samplers.hpp"
#include "sbp/sbp.hpp"

namespace hsbp::ooc {

struct OocConfig {
  /// Variant, seed, threads, β used for the skeleton and piece fits;
  /// the seed also drives the sampler and the fine-tune chain.
  sbp::SbpConfig base;

  sample::SamplerKind sampler = sample::SamplerKind::DegreeWeighted;

  /// Fraction of vertices in the skeleton sample, in (0, 1].
  double skeleton_fraction = 0.1;

  /// Working-set bound in MiB; 0 disables the bound (single piece).
  std::int64_t memory_budget_mb = 0;

  /// Explicit piece count; 0 derives it from the budget.
  int pieces = 0;

  /// Full-view fine-tune passes (0 disables stage 4's MCMC polish).
  int finetune_max_iterations = 10;

  /// Vertices scanned between release_cache calls in the chunked
  /// stages (extrapolate, model build, fine-tune).
  graph::Vertex chunk_vertices = 1 << 16;

  /// Called at every chunk boundary and between stages; wire it to
  /// MmapGraph::evict to cap the mapped CSR's residency. May be empty.
  std::function<void()> release_cache;
};

struct OocStageTimings {
  double skeleton_seconds = 0.0;
  double extrapolate_seconds = 0.0;
  double pieces_seconds = 0.0;
  double finetune_seconds = 0.0;
  double total_seconds = 0.0;
};

struct OocResult {
  /// Full-graph membership: every vertex in [0, num_blocks).
  std::vector<std::int32_t> assignment;
  blockmodel::BlockId num_blocks = 0;
  double mdl = 0.0;  ///< full-graph MDL of `assignment`

  OocStageTimings timings;

  graph::Vertex skeleton_vertices = 0;  ///< induced skeleton size
  graph::EdgeCount skeleton_edges = 0;
  int pieces_planned = 0;               ///< K chosen for stage 3
  int pieces_refit = 0;                 ///< pieces large enough to refit
  std::int64_t finetune_moves = 0;      ///< stage-4 accepted moves
  std::int64_t estimated_csr_bytes = 0; ///< in-memory CSR footprint estimate
};

/// Bytes an in-memory CSR of (V, E) occupies: two offset arrays of
/// (V+1)×u64 and two edge arrays of E×i32.
std::int64_t estimated_csr_bytes(graph::Vertex num_vertices,
                                 graph::EdgeCount num_edges) noexcept;

/// Piece count for stage 3: `requested` when positive, else
/// ceil(csr_bytes / budget) clamped to [1, V]; 1 when no budget is set.
int plan_pieces(graph::Vertex num_vertices, graph::EdgeCount num_edges,
                std::int64_t memory_budget_mb, int requested) noexcept;

/// Process-wide peak resident set size in KiB (getrusage ru_maxrss).
/// A high-water mark: meaningful for a fit only when measured in a
/// process that never held the full graph (see bench/ext_outofcore).
std::int64_t peak_rss_kb() noexcept;

/// Runs the four-stage pipeline. Deterministic in config.base.seed.
/// \throws std::invalid_argument on a graph without vertices or edges,
/// or bad config values.
OocResult fit(const graph::GraphView& graph, const OocConfig& config);

}  // namespace hsbp::ooc

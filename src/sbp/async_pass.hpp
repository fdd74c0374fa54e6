/// \file async_pass.hpp
/// \brief Internal: one asynchronous-Gibbs pass over a vertex set plus
/// the pass-to-pass blockmodel maintenance around it: the asynchronous
/// slices of the pass loop (mcmc_phases.cpp) behind A-SBP, the parallel
/// half of H-SBP, and B-SBP.
///
/// The pass reads/writes a shared membership vector with relaxed
/// atomics: every vertex is owned by exactly one loop index (so its own
/// cell has a single writer), while neighbor reads may observe a mix of
/// pre-pass and in-pass values — precisely the staleness asynchronous
/// Gibbs tolerates. Block sizes are tracked with a guarded atomic
/// transfer so no block is ever emptied by a vertex move.
///
/// Pass-to-pass maintenance (DESIGN §11): instead of paying O(E) per
/// pass to rebuild the blockmodel from a snapshot, each thread logs its
/// accepted moves. Because each vertex has a single writer and is
/// evaluated at most once per pass, the union of the per-thread logs is
/// exactly the pass diff — so finish_pass() replays the logged moves
/// through move_vertex (O(degree) each) and lands on the same state a
/// full build of the pass's memberships would, cell for cell.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "sbp/mcmc_common.hpp"
#include "util/omp_region.hpp"
#include "util/rng.hpp"

// The hot pass body reads the shared memberships through a plain-load
// FlatMembershipView: for lock-free std::atomic<int32> a relaxed load
// and a plain load are the same instruction, and the hogwild pass
// tolerates any torn interleaving by design (it only needs *some*
// recently-valid label). Under ThreadSanitizer the genuine atomic view
// is kept so the race checker sees the accesses as the relaxed atomics
// they semantically are.
#if defined(__SANITIZE_THREAD__)
#define HSBP_ASYNC_ATOMIC_VIEW 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HSBP_ASYNC_ATOMIC_VIEW 1
#endif
#endif
#ifndef HSBP_ASYNC_ATOMIC_VIEW
#define HSBP_ASYNC_ATOMIC_VIEW 0
#endif

namespace hsbp::sbp::detail {

struct AsyncPassCounters {
  std::int64_t proposals = 0;
  std::int64_t accepted = 0;
};

using AtomicAssignment = std::vector<std::atomic<std::int32_t>>;
using AtomicSizes = std::vector<std::atomic<std::int32_t>>;

/// One accepted move: vertex v ended the pass in block `to`.
struct MoveRecord {
  graph::Vertex v;
  std::int32_t to;
};

/// Per-phase workspace for the asynchronous passes: the shared atomic
/// membership vector, the atomic block sizes and the per-thread
/// accepted-move logs. Allocated once per phase (reset()) and reused
/// across passes — the pass/apply cycle keeps `shared`/`sizes` equal to
/// the blockmodel's state, so no copy-in is needed between passes.
///
/// Invariant between passes (established by reset(), preserved by
/// async_pass() + finish_pass(), and by sync_move() for serial
/// interleavings): shared[v] == b.assignment()[v] for every v, and
/// sizes[r] == b.block_size(r) for every r.
struct PassWorkspace {
  AtomicAssignment shared;
  AtomicSizes sizes;
  std::vector<std::vector<MoveRecord>> logs;
  /// Per-thread proposal/acceptance tallies, summed serially after the
  /// pass (an OpenMP reduction would merge through libgomp internals
  /// ThreadSanitizer cannot see; explicit slots keep the handoff on the
  /// bridged fork/join path and the buffers reusable across passes).
  std::vector<std::int64_t> thread_proposals;
  std::vector<std::int64_t> thread_accepted;

  /// (Re)sizes the buffers and copies in the blockmodel's state. Call
  /// once at phase start (vectors of atomics cannot resize in place, so
  /// per-pass construction would reallocate; this reuses them).
  void reset(const blockmodel::Blockmodel& b) {
    const std::size_t v_count = b.assignment().size();
    if (shared.size() != v_count) shared = AtomicAssignment(v_count);
    const auto blocks = static_cast<std::size_t>(b.num_blocks());
    if (sizes.size() != blocks) sizes = AtomicSizes(blocks);
    logs.resize(static_cast<std::size_t>(omp_get_max_threads()));

    const auto& assignment = b.assignment();
    const auto count = static_cast<std::int64_t>(v_count);
    util::omp_region([&] {
#pragma omp for schedule(static)
      for (std::int64_t i = 0; i < count; ++i) {
        shared[static_cast<std::size_t>(i)].store(
            assignment[static_cast<std::size_t>(i)],
            std::memory_order_relaxed);
      }
    });
    for (blockmodel::BlockId r = 0; r < b.num_blocks(); ++r) {
      sizes[static_cast<std::size_t>(r)].store(b.block_size(r),
                                               std::memory_order_relaxed);
    }
  }

  /// Mirrors a serially applied b.move_vertex(v, from → to) into the
  /// workspace, keeping the between-pass invariant when a serial sweep
  /// (serial_sweep; H-SBP's high-degree half) interleaves with async
  /// passes.
  void sync_move(graph::Vertex v, blockmodel::BlockId from,
                 blockmodel::BlockId to) {
    shared[static_cast<std::size_t>(v)].store(to, std::memory_order_relaxed);
    sizes[static_cast<std::size_t>(from)].fetch_sub(1,
                                                    std::memory_order_relaxed);
    sizes[static_cast<std::size_t>(to)].fetch_add(1,
                                                  std::memory_order_relaxed);
  }
};

/// Runs one parallel pass over `vertices`. `b` supplies the (stale)
/// blockmodel for proposal weights and ΔMDL; `ws.shared`/`ws.sizes`
/// carry the evolving memberships, and every accepted move is logged in
/// the executing thread's `ws.logs` entry (cleared here at pass start).
/// Each thread takes one contiguous range of `vertices`
/// (`schedule(static)`, DESIGN §13).
inline AsyncPassCounters async_pass(const graph::GraphView& graph,
                                    const blockmodel::Blockmodel& b,
                                    PassWorkspace& ws,
                                    std::span<const graph::Vertex> vertices,
                                    double beta, util::RngPool& rngs) {
  AsyncPassCounters counters;
  const auto count = static_cast<std::int64_t>(vertices.size());

  const auto threads = static_cast<std::size_t>(omp_get_max_threads());
  if (ws.logs.size() < threads) ws.logs.resize(threads);
  for (auto& log : ws.logs) log.clear();
  if (ws.thread_proposals.size() < threads) {
    ws.thread_proposals.resize(threads);
    ws.thread_accepted.resize(threads);
  }
  // Zero every slot up front: a smaller-than-max team would otherwise
  // leave stale tallies from an earlier pass in the unclaimed slots.
  std::fill(ws.thread_proposals.begin(), ws.thread_proposals.end(), 0);
  std::fill(ws.thread_accepted.begin(), ws.thread_accepted.end(), 0);
  auto& shared = ws.shared;
  auto& sizes = ws.sizes;

  // The loop body takes the tally counters as parameters: inside the
  // parallel region the names bind to region-local (hence per-thread)
  // accumulators, written out once per thread at pass end. Each thread
  // evaluates through its own MoveScratch arena, so steady-state
  // passes allocate nothing.
#if HSBP_ASYNC_ATOMIC_VIEW
  const auto view = [&shared](graph::Vertex u) {
    return shared[static_cast<std::size_t>(u)].load(std::memory_order_relaxed);
  };
#else
  static_assert(sizeof(std::atomic<std::int32_t>) == sizeof(std::int32_t) &&
                    std::atomic<std::int32_t>::is_always_lock_free,
                "flat view over the shared assignment requires plain-layout "
                "lock-free atomics");
  const blockmodel::FlatMembershipView view{
      reinterpret_cast<const std::int32_t*>(shared.data())};
#endif
  const auto body = [&](std::int64_t i, std::int64_t& proposals_local,
                        std::int64_t& accepted_local) {
    const graph::Vertex v = vertices[static_cast<std::size_t>(i)];
    const std::int32_t from = view(v);
    const std::int32_t source_size =
        sizes[static_cast<std::size_t>(from)].load(std::memory_order_relaxed);
    const VertexOutcome outcome =
        evaluate_vertex(graph, b, view, v, source_size, beta, rngs.local(),
                        blockmodel::thread_move_scratch());
    ++proposals_local;
    if (!outcome.moved) return;
    // Guarded size transfer: never empty a block, even under races.
    auto& from_size = sizes[static_cast<std::size_t>(from)];
    if (from_size.fetch_sub(1, std::memory_order_relaxed) <= 1) {
      from_size.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    sizes[static_cast<std::size_t>(outcome.to)].fetch_add(
        1, std::memory_order_relaxed);
    shared[static_cast<std::size_t>(v)].store(outcome.to,
                                              std::memory_order_relaxed);
    // Single writer per vertex + one evaluation per pass: at most one
    // record per vertex, so the log union is exactly the pass diff.
    ws.logs[static_cast<std::size_t>(omp_get_thread_num())].push_back(
        {v, outcome.to});
    ++accepted_local;
  };

  util::omp_region([&] {
    std::int64_t proposals_local = 0;
    std::int64_t accepted_local = 0;
#pragma omp for schedule(static) nowait
    for (std::int64_t i = 0; i < count; ++i) {
      body(i, proposals_local, accepted_local);
    }
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    ws.thread_proposals[tid] = proposals_local;
    ws.thread_accepted[tid] = accepted_local;
  });

  for (std::size_t t = 0; t < threads; ++t) {
    counters.proposals += ws.thread_proposals[t];
    counters.accepted += ws.thread_accepted[t];
  }
  return counters;
}

/// Applies the pass recorded in `ws.logs` to `b` by replaying each
/// logged move through move_vertex, in O(moved degree). b then equals
/// from_assignment of `ws.shared` in every cell, degree, size and MDL
/// bit: move_vertex preserves "state == f(assignment)" exactly at every
/// step, the log union is the pass diff, and log_likelihood() sums
/// order-independent fixed point. Only slice entry order can differ
/// from a fresh build's. Requires the PassWorkspace invariant (shared
/// == b.assignment on entry to the preceding async_pass).
inline void finish_pass(const graph::GraphView& graph,
                        blockmodel::Blockmodel& b, const PassWorkspace& ws) {
  for (const auto& log : ws.logs) {
    for (const MoveRecord& rec : log) {
      b.move_vertex(graph, rec.v, rec.to);
    }
  }
}

}  // namespace hsbp::sbp::detail

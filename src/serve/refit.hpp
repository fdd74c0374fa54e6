/// \file refit.hpp
/// \brief Streaming re-fit scheduler of the serving daemon.
///
/// INGEST batches queue inside each GraphStore; one background thread
/// drains them, grows the graph, and re-fits *warm* with sbp::warm_refit
/// (src/sbp/streaming.*): extend_assignment labels the new vertices by
/// neighbor majority, refine_assignment splits blocks so the merge-only
/// golden search can move both ways, run_warm continues from the
/// learned structure instead of the identity partition. The
/// result is published as a fresh immutable Snapshot (queries never
/// wait on a refit) and, when a checkpoint directory is configured,
/// persisted through ckpt::save_serve_checkpoint before the epoch is
/// visible to EPOCH pollers — a crash after publish therefore resumes
/// at (or after) any epoch a client ever observed.
///
/// Graceful shutdown composes with the engine's own handling: a
/// SIGTERM mid-refit makes run_warm return its best-so-far partition
/// at the next phase boundary (ckpt::shutdown_requested), which the
/// scheduler still publishes and persists — the daemon never dies with
/// an unpublished fit or a torn checkpoint.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "ckpt/checkpoint.hpp"
#include "sbp/sbp.hpp"
#include "serve/registry.hpp"

namespace hsbp::serve {

struct RefitConfig {
  sbp::SbpConfig base;       ///< variant/seed/threads for every fit
  int refine_factor = 3;     ///< see sbp::refine_assignment
  std::string checkpoint_dir;  ///< empty = snapshots are not persisted
  ckpt::FaultInjector* fault = nullptr;  ///< test hook (PR 3 harness)
};

// ------------------------------------------------- snapshot lifecycle

/// Cold-fits `graph` and wraps the result as epoch-1 snapshot.
std::shared_ptr<const Snapshot> fit_initial(
    std::shared_ptr<const graph::Graph> graph, const sbp::SbpConfig& config);

/// Rebuilds the served snapshot from a loaded checkpoint (the --resume
/// path). Bit-exact: graph CSR, assignment, MDL, and epoch are the
/// stored ones; only modularity is recomputed (it is derived state).
std::shared_ptr<const Snapshot> snapshot_from_checkpoint(
    const ckpt::ServeCheckpoint& loaded);

/// Serializes a snapshot for persistence.
ckpt::ServeCheckpoint to_checkpoint(const Snapshot& snapshot);

/// `<dir>/<name>.serve.ckpt` — one file per served graph.
std::string checkpoint_path(const std::string& dir, const std::string& name);

/// Persists `snapshot` atomically (no-op when `dir` is empty).
/// \throws util::IoError on write failure.
void persist_snapshot(const std::string& dir, const std::string& name,
                      const Snapshot& snapshot, ckpt::FaultInjector* fault);

// ------------------------------------------------------- the scheduler

class RefitScheduler {
 public:
  /// \throws std::invalid_argument if config.refine_factor < 1 (every
  /// refit would throw and drop its batch).
  RefitScheduler(Registry& registry, RefitConfig config)
      : registry_(registry), config_(std::move(config)) {
    if (config_.refine_factor < 1) {
      throw std::invalid_argument("serve: refine_factor >= 1");
    }
  }
  ~RefitScheduler() { stop_and_join(); }

  RefitScheduler(const RefitScheduler&) = delete;
  RefitScheduler& operator=(const RefitScheduler&) = delete;

  /// Spawns the background thread (idempotent).
  void start();

  /// Wakes the thread (call after GraphStore::enqueue).
  void notify();

  /// Finishes the in-flight refit (early-exiting if a shutdown signal
  /// is pending), drains nothing further, joins. Idempotent.
  void stop_and_join();

  /// Refits completed since start (published epochs minus initial).
  std::uint64_t refits_completed() const;

  /// Synchronously drains one store's pending batches and publishes
  /// (the scheduler thread's unit of work, exposed for deterministic
  /// tests). Returns false when nothing was pending.
  bool refit_store(GraphStore& store);

 private:
  void thread_main();

  Registry& registry_;
  const RefitConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  std::uint64_t refits_ = 0;
  std::thread thread_;
};

}  // namespace hsbp::serve

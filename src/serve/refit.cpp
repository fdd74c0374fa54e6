#include "serve/refit.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "ckpt/shutdown.hpp"
#include "sbp/streaming.hpp"
#include "util/logger.hpp"

namespace hsbp::serve {

using graph::Edge;
using graph::Graph;
using graph::Vertex;

std::shared_ptr<const Snapshot> fit_initial(
    std::shared_ptr<const Graph> graph, const sbp::SbpConfig& config) {
  const sbp::SbpResult fit = sbp::run(*graph, config);
  return make_snapshot(std::move(graph), fit.assignment, fit.num_blocks,
                       fit.mdl, /*epoch=*/1);
}

std::shared_ptr<const Snapshot> snapshot_from_checkpoint(
    const ckpt::ServeCheckpoint& loaded) {
  auto graph = std::make_shared<const Graph>(
      Graph::from_edges(loaded.num_vertices, loaded.edges));
  return make_snapshot(std::move(graph), loaded.assignment,
                       loaded.num_blocks, loaded.mdl, loaded.epoch);
}

ckpt::ServeCheckpoint to_checkpoint(const Snapshot& snapshot) {
  ckpt::ServeCheckpoint out;
  out.graph = ckpt::fingerprint(*snapshot.graph);
  out.epoch = snapshot.epoch;
  out.num_vertices = snapshot.graph->num_vertices();
  out.edges = snapshot.graph->edges();
  out.assignment = snapshot.assignment;
  out.num_blocks = snapshot.num_blocks;
  out.mdl = snapshot.mdl;
  return out;
}

std::string checkpoint_path(const std::string& dir,
                            const std::string& name) {
  return dir + "/" + name + ".serve.ckpt";
}

void persist_snapshot(const std::string& dir, const std::string& name,
                      const Snapshot& snapshot,
                      ckpt::FaultInjector* fault) {
  if (dir.empty()) return;
  ckpt::save_serve_checkpoint(checkpoint_path(dir, name),
                              to_checkpoint(snapshot), fault);
}

// -------------------------------------------------------- the scheduler

void RefitScheduler::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this] { thread_main(); });
}

void RefitScheduler::notify() { cv_.notify_all(); }

void RefitScheduler::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  started_ = false;
}

std::uint64_t RefitScheduler::refits_completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return refits_;
}

bool RefitScheduler::refit_store(GraphStore& store) {
  const auto batches = store.drain();
  if (batches.empty()) return false;
  const std::shared_ptr<const Snapshot> previous = store.acquire();

  // Grow the vertex set to cover every ingested endpoint, then rebuild
  // the CSR once over old + new edges (Graph is immutable by design;
  // the rebuild is O(E) — the savings live in the warm re-fit, which
  // is where the paper's streaming workload spends its time).
  std::vector<Edge> edges = previous->graph->edges();
  Vertex num_vertices = previous->graph->num_vertices();
  for (const auto& batch : batches) {
    for (const auto& [u, v] : batch) {
      num_vertices = std::max(num_vertices, static_cast<Vertex>(
                                                std::max(u, v) + 1));
      edges.emplace_back(u, v);
    }
  }
  auto grown =
      std::make_shared<const Graph>(Graph::from_edges(num_vertices, edges));

  // Warm start from the served partition, as run_streaming does.
  const sbp::SbpResult fit = sbp::warm_refit(
      *grown, config_.base, previous->assignment, previous->num_blocks,
      config_.refine_factor, config_.base.seed + previous->epoch);

  auto next = make_snapshot(std::move(grown), fit.assignment,
                            fit.num_blocks, fit.mdl, previous->epoch + 1);
  // Persist before publish: once a client can observe the epoch, a
  // crashed-and-resumed daemon must be able to serve it again.
  persist_snapshot(config_.checkpoint_dir, store.name(), *next,
                   config_.fault);
  store.publish(std::move(next));

  HSBP_LOG_DEBUG("serve: refit '%s' epoch %llu blocks %d mdl %.2f%s",
                 store.name().c_str(),
                 static_cast<unsigned long long>(previous->epoch + 1),
                 fit.num_blocks, fit.mdl,
                 fit.interrupted ? " (interrupted)" : "");
  return true;
}

void RefitScheduler::thread_main() {
  const auto first_pending = [this]() -> GraphStore* {
    for (GraphStore* store : registry_.stores()) {
      if (store->pending_batches() > 0) return store;
    }
    return nullptr;
  };
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // The 50 ms timeout backstops a real SIGTERM, which cannot call
      // notify() from the signal handler.
      cv_.wait_for(lock, std::chrono::milliseconds(50), [&] {
        return stop_ || ckpt::shutdown_requested() ||
               first_pending() != nullptr;
      });
    }
    // Drain-before-exit: a stop request still fits batches that arrived
    // just before it (run_warm early-exits if a real signal is pending),
    // so a drained daemon never discards acknowledged INGESTs.
    GraphStore* pending = first_pending();
    if (pending != nullptr) {
      bool refitted = false;
      try {
        refitted = refit_store(*pending);
      } catch (const std::exception& e) {
        // A failed persist (disk full) must not take the daemon down:
        // the store keeps serving its current snapshot — which is still
        // the one on disk, preserving persist-before-publish — and the
        // drained batches of this refit are dropped with a loud log.
        HSBP_LOG_ERROR("serve: refit '%s' failed: %s",
                       pending->name().c_str(), e.what());
      }
      if (refitted) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++refits_;
        continue;  // look for more work before considering sleep/stop
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || ckpt::shutdown_requested()) return;
  }
}

}  // namespace hsbp::serve

/// \file registry.hpp
/// \brief Snapshot-isolated state of the serving daemon.
///
/// Every served graph is one GraphStore holding an immutable,
/// reference-counted Snapshot — the CSR graph, its partition, and the
/// derived figures queries ask for. Queries `acquire()` the current
/// snapshot (a shared_ptr copy under a mutex whose critical section is
/// two pointer writes) and then compute against it lock-free; the refit
/// scheduler builds the successor off to the side and `publish()`es it
/// with one pointer swap. A query therefore always observes one fully
/// constructed snapshot — never a half-updated partition, no matter how
/// long the refit ran — and the last reader of a superseded snapshot
/// frees it via shared_ptr.
///
/// Pending INGEST batches queue inside the store (cheap, mutex-guarded
/// appends); the refit scheduler drains the queue, fits, and publishes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "blockmodel/dict_transpose_matrix.hpp"
#include "graph/graph.hpp"

namespace hsbp::serve {

/// One immutable published state of a served graph. Construction
/// computes the derived figures once so queries are pure reads.
struct Snapshot {
  std::shared_ptr<const graph::Graph> graph;
  std::vector<std::int32_t> assignment;
  blockmodel::BlockId num_blocks = 0;
  double mdl = 0.0;
  double modularity = 0.0;
  /// Publish counter: 1 for the initial fit, +1 per refit. A client
  /// that polls EPOCH sees exactly the publishes, in order.
  std::uint64_t epoch = 0;
};

/// Builds a snapshot from a fitted partition (computes modularity; the
/// caller supplies MDL from the fit).
std::shared_ptr<const Snapshot> make_snapshot(
    std::shared_ptr<const graph::Graph> graph,
    std::vector<std::int32_t> assignment, blockmodel::BlockId num_blocks,
    double mdl, std::uint64_t epoch);

/// One served graph: current snapshot + pending edge batches.
class GraphStore {
 public:
  explicit GraphStore(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  /// Current snapshot (never null once the initial fit published).
  std::shared_ptr<const Snapshot> acquire() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return snapshot_;
  }

  /// Swaps in a successor snapshot. Readers holding the old one keep
  /// it alive until they drop it.
  void publish(std::shared_ptr<const Snapshot> next) {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot_ = std::move(next);
  }

  /// Queues an edge batch for the refit scheduler, refusing it when
  /// `max_pending` batches are already queued (so 0 refuses everything
  /// — a read-only mode). Returns the pending count after the append,
  /// or nullopt when the batch was refused. The check-and-append is one
  /// critical section — two racing INGESTs cannot both slip past the
  /// bound.
  std::optional<std::size_t> try_enqueue(std::vector<graph::Edge> batch,
                                         std::size_t max_pending) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.size() >= max_pending) return std::nullopt;
    pending_.push_back(std::move(batch));
    return pending_.size();
  }

  /// Drains every pending batch (refit scheduler only).
  std::vector<std::vector<graph::Edge>> drain() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(pending_);
  }

  std::size_t pending_batches() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
  }

 private:
  const std::string name_;
  mutable std::mutex mutex_;
  std::shared_ptr<const Snapshot> snapshot_;
  std::vector<std::vector<graph::Edge>> pending_;
};

/// The daemon's graph table. Stores are registered before the server
/// starts and never removed, so lookups after start are read-only.
class Registry {
 public:
  /// Registers a store. \throws std::invalid_argument on a duplicate
  /// name.
  GraphStore& add(std::string name);

  /// Store by name, or nullptr.
  GraphStore* find(std::string_view name) noexcept;

  /// Registration-ordered names (LIST).
  std::vector<std::string> names() const;

  std::vector<GraphStore*> stores() noexcept;
  std::vector<const GraphStore*> stores() const noexcept;

 private:
  std::vector<std::unique_ptr<GraphStore>> stores_;
};

}  // namespace hsbp::serve

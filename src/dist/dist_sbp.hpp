/// \file dist_sbp.hpp
/// \brief Simulated distributed SBP (D-SBP) — the paper's closing
/// future-work item ("how best to distribute A-SBP and H-SBP ... enable
/// processing of graphs that are too large to fit in memory").
///
/// Execution model (one process, faithful protocol):
///   - vertices are partitioned over R ranks (dist/partition.hpp);
///   - each MCMC pass, every rank sweeps its own vertices with
///     asynchronous Gibbs against the stale global blockmodel; a rank
///     sees its *own* in-pass moves but only pass-start values for
///     remote vertices (strictly weaker visibility than shared-memory
///     A-SBP — the extra staleness real distribution would add);
///   - at pass end the accepted moves are exchanged (allgather), the
///     blockmodel is rebuilt, and the next pass begins;
///   - block-merge phases run centrally with a membership broadcast.
///
/// The outer loop and the stop rule are sbp::run's own (golden search,
/// merge phase, sbp::run_passes): D-SBP supplies only its MCMC phase.
///
/// Every exchange is recorded in a CommLedger with a documented
/// bytes-on-the-wire model, so benches can report communication volume
/// and its scaling with rank count — the quantity a real MPI port would
/// be sized by.
#pragma once

#include "dist/comm.hpp"
#include "dist/partition.hpp"
#include "graph/graph.hpp"
#include "sbp/sbp.hpp"

namespace hsbp::dist {

struct DistributedConfig {
  /// Base SBP knobs (thresholds, β, threads), validated as sbp::run
  /// validates them. The `variant`, hybrid and batch fields are
  /// ignored: the distributed MCMC phase is A-SBP by construction.
  sbp::SbpConfig base;
  int ranks = 4;
  PartitionStrategy strategy = PartitionStrategy::DegreeBalanced;
};

struct DistributedResult {
  sbp::SbpResult result;
  CommLedger comm;
  /// Accepted moves per rank over the whole run — the load-balance view.
  std::vector<std::int64_t> rank_accepted;
  double partition_imbalance = 0.0;  ///< degree-load imbalance (1 = even)
};

/// Runs simulated distributed SBP to completion.
/// \throws std::invalid_argument on invalid config (ranks < 1, or any
/// sbp::run precondition).
DistributedResult run_distributed(const graph::Graph& graph,
                                  const DistributedConfig& config);

}  // namespace hsbp::dist

/// \file experiment.hpp
/// \brief One row of a paper figure: run an algorithm on a (generated)
/// graph best-of-N and collect every quality/timing metric at once.
#pragma once

#include <string>
#include <vector>

#include "eval/runner.hpp"
#include "generator/dcsbm.hpp"
#include "sbp/sbp.hpp"

namespace hsbp::eval {

struct ExperimentRow {
  std::string graph_id;
  std::string algorithm;  ///< "SBP" / "A-SBP" / "H-SBP"
  graph::Vertex num_vertices = 0;
  graph::EdgeCount num_edges = 0;

  // Quality of the best (lowest-MDL) run.
  double mdl = 0.0;
  double mdl_norm = 0.0;
  double modularity = 0.0;
  double nmi = -1.0;  ///< vs. ground truth; −1 if no ground truth
  blockmodel::BlockId num_blocks = 0;

  // Timing/iteration totals over all runs (paper convention).
  double mcmc_seconds = 0.0;
  double merge_seconds = 0.0;
  double total_seconds = 0.0;
  std::int64_t mcmc_iterations = 0;

  // Amdahl accounting (see DESIGN.md §5): share of vertex updates that
  // executed inside OpenMP-parallel loops, over all runs.
  double parallel_update_fraction = 0.0;
  int threads = 1;  ///< OpenMP threads the runs used
};

/// Runs `variant` on the generated graph best-of-`runs` and fills a row.
/// NMI is computed against `generated.ground_truth` when non-empty.
ExperimentRow run_experiment(const generator::GeneratedGraph& generated,
                             sbp::Variant variant,
                             const sbp::SbpConfig& base_config, int runs);

}  // namespace hsbp::eval

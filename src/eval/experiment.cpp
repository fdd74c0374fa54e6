#include "eval/experiment.hpp"

#include <omp.h>

#include "metrics/metrics.hpp"

namespace hsbp::eval {

ExperimentRow run_experiment(const generator::GeneratedGraph& generated,
                             sbp::Variant variant,
                             const sbp::SbpConfig& base_config, int runs) {
  sbp::SbpConfig config = base_config;
  config.variant = variant;

  const BestOfResult outcome = best_of(generated.graph, config, runs);

  ExperimentRow row;
  row.graph_id = generated.name;
  row.algorithm = sbp::variant_name(variant);
  row.num_vertices = generated.graph.num_vertices();
  row.num_edges = generated.graph.num_edges();

  row.mdl = outcome.best.mdl;
  row.mdl_norm = metrics::normalized_mdl(
      outcome.best.mdl, generated.graph.num_vertices(),
      generated.graph.num_edges());
  row.modularity =
      metrics::modularity(generated.graph, outcome.best.assignment);
  if (!generated.ground_truth.empty()) {
    row.nmi = metrics::nmi(generated.ground_truth, outcome.best.assignment);
  }
  row.num_blocks = outcome.best.num_blocks;

  row.mcmc_seconds = outcome.total_mcmc_seconds;
  row.merge_seconds = outcome.total_merge_seconds;
  row.total_seconds = outcome.total_seconds;
  row.mcmc_iterations = outcome.total_mcmc_iterations;

  std::int64_t parallel = 0;
  std::int64_t serial = 0;
  for (const auto& stats : outcome.per_run_stats) {
    parallel += stats.parallel_updates;
    serial += stats.serial_updates;
  }
  const std::int64_t updates = parallel + serial;
  row.parallel_update_fraction =
      updates > 0 ? static_cast<double>(parallel) /
                        static_cast<double>(updates)
                  : 0.0;
  row.threads =
      config.num_threads > 0 ? config.num_threads : omp_get_max_threads();
  return row;
}

}  // namespace hsbp::eval

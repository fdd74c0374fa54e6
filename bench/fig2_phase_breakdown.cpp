/// \file fig2_phase_breakdown.cpp
/// \brief Paper Fig. 2: the share of SBP execution time spent in the
/// MCMC phase vs. the block-merge phase + rest, per synthetic graph.
/// The paper reports the MCMC phase at up to 98% of total runtime — the
/// observation motivating the whole work.
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

/// `--algorithm` names match the CLI's: sbp, asbp, hsbp, bsbp.
hsbp::sbp::Variant parse_variant(const std::string& name) {
  if (name == "sbp") return hsbp::sbp::Variant::Metropolis;
  if (name == "asbp") return hsbp::sbp::Variant::AsyncGibbs;
  if (name == "hsbp") return hsbp::sbp::Variant::Hybrid;
  if (name == "bsbp") return hsbp::sbp::Variant::BatchedGibbs;
  throw std::invalid_argument("unknown algorithm '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = hsbp::bench::parse_options(argc, argv, 0.003, 1,
                                                  {"algorithm"});
  const auto variant = parse_variant(
      hsbp::util::Args(argc, argv).get_string("algorithm", "sbp"));
  hsbp::eval::print_banner(
      "Fig. 2: SBP execution-time breakdown on synthetic graphs",
      options.scale, options.runs, std::cout);

  const auto entries =
      hsbp::generator::synthetic_suite(options.scale, options.seed);
  const auto rows = hsbp::bench::run_suite(entries, {variant}, options);

  hsbp::util::Table table(
      {"ID", "mcmc_s", "merge+other_s", "mcmc_pct", "merge+other_pct"});
  double max_pct = 0.0;
  for (const auto& row : rows) {
    const double rest = row.total_seconds - row.mcmc_seconds;
    const double pct =
        row.total_seconds > 0 ? 100.0 * row.mcmc_seconds / row.total_seconds
                              : 0.0;
    max_pct = std::max(max_pct, pct);
    table.row()
        .cell(row.graph_id)
        .cell(row.mcmc_seconds, 3)
        .cell(rest, 3)
        .cell(pct, 1)
        .cell(100.0 - pct, 1);
  }
  table.print(std::cout);
  std::cout << "max MCMC share: " << hsbp::util::format_double(max_pct, 1)
            << "% (paper: up to 98%)\n";
  hsbp::bench::maybe_write_csv(options, rows);
  return 0;
}

/// \file bench_common.hpp
/// \brief Shared scaffolding for the figure/table reproduction benches.
///
/// Every bench accepts the same knobs:
///   --scale F    dataset scale relative to the paper (default per bench;
///                scale=1.0 reproduces the paper's sizes — hours of work)
///   --runs K     best-of-K runs per (graph, algorithm); the paper uses 5
///   --seed S     master seed
///   --threads T  OpenMP threads (0 = runtime default)
///   --only ID    restrict to one suite entry (e.g. --only S7)
///   --csv FILE   machine-readable rows
/// plus the extra flags a bench names when it calls parse_options. Any
/// other `--flag` exits 64 before any work, so a stale script's flag
/// fails instead of running on a default.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/report.hpp"
#include "generator/suites.hpp"
#include "sbp/sbp.hpp"
#include "util/args.hpp"

namespace hsbp::bench {

struct BenchOptions {
  double scale = 0.003;
  int runs = 2;
  std::uint64_t seed = 1;
  int threads = 0;
  std::string only;
  std::string csv;  ///< optional path for machine-readable results
};

/// Exits 64 (usage) naming every `--flag` of `args` outside the
/// `known` groups.
inline void reject_unknown_flags(
    const util::Args& args,
    std::initializer_list<std::span<const std::string_view>> known) {
  const std::string unknown =
      args.unknown_flags({known.begin(), known.size()});
  if (unknown.empty()) return;
  std::fprintf(stderr, "error: %s does not take %s\n", args.program().c_str(),
               unknown.c_str());
  std::exit(64);
}

/// The common options, plus the bench's own `extra_flags`, which it
/// reads itself.
inline BenchOptions parse_options(
    int argc, char** argv, double default_scale, int default_runs,
    std::initializer_list<std::string_view> extra_flags = {}) {
  static constexpr std::string_view kFlags[] = {"scale",   "runs", "seed",
                                                "threads", "only", "csv"};
  const util::Args args(argc, argv);
  reject_unknown_flags(args,
                       {kFlags, {extra_flags.begin(), extra_flags.size()}});
  BenchOptions options;
  options.scale = args.get_double("scale", default_scale);
  options.runs = static_cast<int>(args.get_int("runs", default_runs));
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.threads = static_cast<int>(args.get_int("threads", 0));
  options.only = args.get_string("only", "");
  options.csv = args.get_string("csv", "");
  return options;
}

/// Writes rows to options.csv when requested (each figure bench calls
/// this after its run so results are pipeable into plotting tools).
inline void maybe_write_csv(const BenchOptions& options,
                            const std::vector<eval::ExperimentRow>& rows) {
  if (options.csv.empty()) return;
  eval::write_rows_csv_file(rows, options.csv);
  std::fprintf(stderr, "rows written to %s\n", options.csv.c_str());
}

inline sbp::SbpConfig base_config(const BenchOptions& options) {
  sbp::SbpConfig config;
  config.seed = options.seed;
  config.num_threads = options.threads;
  return config;
}

/// Runs the given variants over the suite and returns one row per
/// (graph, variant), with progress on stderr so long benches stay
/// observable.
inline std::vector<eval::ExperimentRow> run_suite(
    const std::vector<generator::SuiteEntry>& entries,
    const std::vector<sbp::Variant>& variants, const BenchOptions& options) {
  const sbp::SbpConfig config = base_config(options);
  std::vector<eval::ExperimentRow> rows;
  for (const auto& entry : entries) {
    if (!options.only.empty() && entry.id != options.only) continue;
    const auto generated = generator::generate(entry);
    for (const auto variant : variants) {
      rows.push_back(
          eval::run_experiment(generated, variant, config, options.runs));
      std::fprintf(stderr, "  %-18s %-6s done (%.2fs)\n", entry.id.c_str(),
                   rows.back().algorithm.c_str(), rows.back().total_seconds);
    }
  }
  return rows;
}

inline const std::vector<sbp::Variant>& all_variants() {
  static const std::vector<sbp::Variant> variants = {
      sbp::Variant::Metropolis, sbp::Variant::Hybrid,
      sbp::Variant::AsyncGibbs};
  return variants;
}

}  // namespace hsbp::bench

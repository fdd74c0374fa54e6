/// \file ext_sampling.cpp
/// \brief Extension bench: the SamBaS sampling pipeline swept over
/// sample fraction × sampler × algorithm against the full-graph fit.
///
/// For each algorithm the full-graph run is the baseline; every
/// pipeline configuration reports NMI, full-graph MDL, speedup over
/// that baseline, and the per-stage timing breakdown (the sampling
/// counterpart of Fig. 2). Results are emitted as a JSON array on
/// stdout (and to --json FILE when given) so they pipe straight into
/// plotting tools.
///
/// Flags: the common --scale/--runs/--seed/--threads/--only set
/// (bench_common.hpp; --only picks the synthetic suite entry, default
/// S2) plus --json FILE.
#include <cstdio>
#include <sstream>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "metrics/metrics.hpp"
#include "sample/sample_sbp.hpp"

namespace {

std::string json_row(const std::string& graph_id,
                                 const char* algorithm, const char* sampler,
                                 double fraction, double nmi, double mdl,
                                 double mdl_norm, double speedup,
                                 const hsbp::sample::StageTimings& t) {
  std::ostringstream row;
  row.precision(6);
  row << "  {\"graph\": \"" << graph_id << "\", \"algorithm\": \""
      << algorithm << "\", \"sampler\": \"" << sampler
      << "\", \"fraction\": " << fraction << ", \"nmi\": " << nmi
      << ", \"mdl\": " << mdl << ", \"mdl_norm\": " << mdl_norm
      << ", \"speedup\": " << speedup
      << ", \"sample_seconds\": " << t.sample_seconds
      << ", \"partition_seconds\": " << t.partition_seconds
      << ", \"extrapolate_seconds\": " << t.extrapolate_seconds
      << ", \"finetune_seconds\": " << t.finetune_seconds
      << ", \"total_seconds\": " << t.total_seconds << "}";
  return row.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hsbp;

  bench::BenchOptions options =
      bench::parse_options(argc, argv, 0.003, 1, {"json"});
  if (options.only.empty()) options.only = "S2";
  const util::Args args(argc, argv);
  const std::string json_path = args.get_string("json", "");

  const auto entries =
      generator::synthetic_suite(options.scale, options.seed);
  const generator::SuiteEntry* entry = nullptr;
  for (const auto& candidate : entries) {
    if (candidate.id == options.only) entry = &candidate;
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "no synthetic suite entry named %s\n",
                 options.only.c_str());
    return 2;
  }
  const auto generated = generator::generate(*entry);
  std::fprintf(stderr, "%s: V=%d E=%lld\n", generated.name.c_str(),
               generated.graph.num_vertices(),
               static_cast<long long>(generated.graph.num_edges()));

  const std::vector<sbp::Variant> algorithms = {sbp::Variant::Hybrid,
                                                sbp::Variant::AsyncGibbs};
  const std::vector<double> fractions = {0.1, 0.25, 0.5, 0.75};

  std::vector<std::string> rows;
  for (const sbp::Variant variant : algorithms) {
    sbp::SbpConfig base = bench::base_config(options);
    base.variant = variant;

    const auto full = sbp::run(generated.graph, base);
    const double full_nmi =
        metrics::nmi(generated.ground_truth, full.assignment);
    sample::StageTimings full_timings;
    full_timings.partition_seconds = full.stats.total_seconds;
    full_timings.total_seconds = full.stats.total_seconds;
    rows.push_back(json_row(
        generated.name, sbp::variant_name(variant), "none", 1.0, full_nmi,
        full.mdl,
        metrics::normalized_mdl(full.mdl, generated.graph.num_vertices(),
                                generated.graph.num_edges()),
        1.0, full_timings));
    std::fprintf(stderr, "  %-6s full      NMI %.3f (%.2fs)\n",
                 sbp::variant_name(variant), full_nmi,
                 full.stats.total_seconds);

    for (const double fraction : fractions) {
      for (const sample::SamplerKind kind : sample::all_sampler_kinds()) {
        sample::SampleConfig config;
        config.base = base;
        config.sampler = kind;
        config.fraction = fraction;
        const auto result = sample::run(generated.graph, config);
        const double nmi =
            metrics::nmi(generated.ground_truth, result.assignment);
        const double speedup =
            result.timings.total_seconds > 0.0
                ? full.stats.total_seconds / result.timings.total_seconds
                : 0.0;
        rows.push_back(json_row(
            generated.name, sbp::variant_name(variant),
            sample::sampler_name(kind), fraction, nmi, result.mdl,
            metrics::normalized_mdl(result.mdl,
                                    generated.graph.num_vertices(),
                                    generated.graph.num_edges()),
            speedup, result.timings));
        std::fprintf(stderr,
                     "  %-6s %-8s f=%.2f NMI %.3f speedup %.2fx\n",
                     sbp::variant_name(variant), sample::sampler_name(kind),
                     fraction, nmi, speedup);
      }
    }
  }

  std::ostringstream json;
  json << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << rows[i] << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json << "]\n";
  std::fputs(json.str().c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::fprintf(stderr, "rows written to %s\n", json_path.c_str());
  }
  return 0;
}

/// \file ext_outofcore.cpp
/// \brief Extension bench: the out-of-core divide-and-conquer fit
/// against the in-memory baseline — peak RSS, per-stage wall time, and
/// quality (NMI vs ground truth and vs the baseline's partition).
///
/// ru_maxrss is a process-wide high-water mark, so a fit measured in
/// the process that generated the graph would inherit the generator's
/// footprint. The bench therefore re-execs itself (/proc/self/exe)
/// twice: one child materializes the full Graph on the heap and runs
/// the configured sbp variant, the other mmaps the binary CSR and runs
/// ooc::fit with the page-eviction hook wired up. Each child's
/// ru_maxrss is then an honest measurement of that path alone. The
/// parent generates the graph, converts it once, scores both
/// assignments, and emits a JSON object on stdout (and to --json FILE).
///
/// Flags: the common --scale/--seed/--threads/--only set
/// (bench_common.hpp; --only picks the synthetic suite entry, default
/// S13) plus --budget-mb N (0 = quarter of the CSR estimate),
/// --pieces K, --skeleton-frac F, --finetune-iters N, --json FILE.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/partition_io.hpp"
#include "graph/binary_csr.hpp"
#include "graph/mmap_graph.hpp"
#include "metrics/metrics.hpp"
#include "ooc/ooc.hpp"
#include "sample/samplers.hpp"
#include "util/timer.hpp"

namespace {

using namespace hsbp;

/// Re-execs this binary with the given arguments and waits; returns
/// the child's exit code (or -1 when spawn/wait itself failed).
int run_child(const std::vector<std::string>& arguments) {
  std::vector<char*> argv;
  argv.reserve(arguments.size() + 1);
  for (const auto& argument : arguments) {
    argv.push_back(const_cast<char*>(argument.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::execv("/proc/self/exe", argv.data());
    std::perror("execv /proc/self/exe");
    _exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Child → parent metrics: one "key value" line per entry.
void write_result_file(const std::string& path,
                       const std::map<std::string, double>& values) {
  std::ofstream out(path);
  out.precision(10);
  for (const auto& [key, value] : values) out << key << " " << value << "\n";
}

std::map<std::string, double> read_result_file(const std::string& path) {
  std::ifstream in(path);
  std::map<std::string, double> values;
  std::string key;
  double value = 0.0;
  while (in >> key >> value) values[key] = value;
  return values;
}

sbp::SbpConfig child_base_config(const util::Args& args) {
  sbp::SbpConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.num_threads = static_cast<int>(args.get_int("threads", 0));
  return config;
}

/// Child A: the in-memory baseline. Loads the CSR, materializes the
/// full Graph on the heap (edge list + CSR build — what any in-memory
/// run pays), and fits it.
int child_inmem(const util::Args& args) {
  const std::string csr = args.get_string("csr", "");
  graph::Graph materialized = [&csr] {
    const graph::MmapGraph mapped(csr);
    const graph::GraphView view = mapped.view();
    std::vector<graph::Edge> edges;
    edges.reserve(static_cast<std::size_t>(view.num_edges()));
    for (graph::Vertex v = 0; v < view.num_vertices(); ++v) {
      for (const graph::Vertex u : view.out_neighbors(v)) {
        edges.emplace_back(v, u);
      }
    }
    return graph::Graph::from_edges(view.num_vertices(), edges);
  }();

  util::Timer timer;
  const sbp::SbpResult result =
      sbp::run(materialized, child_base_config(args));
  const double seconds = timer.elapsed();

  eval::save_assignment_file(result.assignment,
                             args.get_string("assignment-out", ""));
  write_result_file(args.get_string("result-out", ""),
                    {{"peak_rss_kb", static_cast<double>(ooc::peak_rss_kb())},
                     {"total_seconds", seconds},
                     {"mdl", result.mdl},
                     {"blocks", static_cast<double>(result.num_blocks)}});
  return 0;
}

/// Child B: the out-of-core path. Never holds the full graph on the
/// heap — the mapped CSR is the only full-graph state, and the fit's
/// release hook keeps its residency down.
int child_ooc(const util::Args& args) {
  const graph::MmapGraph mapped(args.get_string("csr", ""));

  ooc::OocConfig config;
  config.base = child_base_config(args);
  config.sampler = sample::SamplerKind::DegreeWeighted;
  config.skeleton_fraction = args.get_double("skeleton-frac", 0.3);
  config.memory_budget_mb = args.get_int("budget-mb", 0);
  config.pieces = static_cast<int>(args.get_int("pieces", 0));
  config.finetune_max_iterations =
      static_cast<int>(args.get_int("finetune-iters", 10));
  config.release_cache = [&mapped] { mapped.evict(); };

  const ooc::OocResult result = ooc::fit(mapped.view(), config);

  eval::save_assignment_file(result.assignment,
                             args.get_string("assignment-out", ""));
  write_result_file(
      args.get_string("result-out", ""),
      {{"peak_rss_kb", static_cast<double>(ooc::peak_rss_kb())},
       {"total_seconds", result.timings.total_seconds},
       {"skeleton_seconds", result.timings.skeleton_seconds},
       {"extrapolate_seconds", result.timings.extrapolate_seconds},
       {"pieces_seconds", result.timings.pieces_seconds},
       {"finetune_seconds", result.timings.finetune_seconds},
       {"mdl", result.mdl},
       {"blocks", static_cast<double>(result.num_blocks)},
       {"pieces_planned", static_cast<double>(result.pieces_planned)},
       {"pieces_refit", static_cast<double>(result.pieces_refit)}});
  return 0;
}

std::string temp_name(const char* stem, std::uint64_t seed) {
  std::ostringstream path;
  path << "/tmp/ext_outofcore_" << ::getpid() << "_" << seed << "_" << stem;
  return path.str();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string child = args.get_string("child", "");
  if (child == "inmem") return child_inmem(args);
  if (child == "ooc") return child_ooc(args);
  if (!child.empty()) {
    std::fprintf(stderr, "unknown --child mode '%s'\n", child.c_str());
    return 2;
  }

  bench::BenchOptions options = bench::parse_options(
      argc, argv, 0.01, 1,
      {"json", "budget-mb", "pieces", "skeleton-frac", "finetune-iters"});
  if (options.only.empty()) options.only = "S13";
  const std::string json_path = args.get_string("json", "");

  const auto entries = generator::synthetic_suite(options.scale, options.seed);
  const generator::SuiteEntry* entry = nullptr;
  for (const auto& candidate : entries) {
    if (candidate.id == options.only) entry = &candidate;
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "no synthetic suite entry named %s\n",
                 options.only.c_str());
    return 2;
  }

  const std::string csr = temp_name("graph.csr", options.seed);
  std::vector<std::int32_t> ground_truth;
  graph::Vertex num_vertices = 0;
  graph::EdgeCount num_edges = 0;
  {
    const auto generated = generator::generate(*entry);
    ground_truth = generated.ground_truth;
    num_vertices = generated.graph.num_vertices();
    num_edges = generated.graph.num_edges();
    graph::write_binary_csr(generated.graph, csr);
  }
  const std::int64_t csr_bytes = ooc::estimated_csr_bytes(num_vertices,
                                                          num_edges);
  std::int64_t budget_mb = args.get_int("budget-mb", 0);
  if (budget_mb <= 0) {
    budget_mb = std::max<std::int64_t>(1, csr_bytes / 4 / (1024 * 1024));
  }
  std::fprintf(stderr, "%s: V=%d E=%lld csr=%lld bytes budget=%lld MiB\n",
               entry->id.c_str(), num_vertices,
               static_cast<long long>(num_edges),
               static_cast<long long>(csr_bytes),
               static_cast<long long>(budget_mb));

  const std::string inmem_assignment = temp_name("inmem.part", options.seed);
  const std::string inmem_result = temp_name("inmem.result", options.seed);
  const std::string ooc_assignment = temp_name("ooc.part", options.seed);
  const std::string ooc_result = temp_name("ooc.result", options.seed);
  const std::string seed_flag = std::to_string(options.seed);
  const std::string threads_flag = std::to_string(options.threads);

  int rc = run_child({argv[0], "--child", "inmem", "--csr", csr, "--seed",
                      seed_flag, "--threads", threads_flag,
                      "--assignment-out", inmem_assignment, "--result-out",
                      inmem_result});
  if (rc != 0) {
    std::fprintf(stderr, "in-memory child failed (exit %d)\n", rc);
    return 1;
  }
  rc = run_child({argv[0], "--child", "ooc", "--csr", csr, "--seed",
                  seed_flag, "--threads", threads_flag, "--budget-mb",
                  std::to_string(budget_mb), "--pieces",
                  std::to_string(args.get_int("pieces", 0)),
                  "--skeleton-frac",
                  std::to_string(args.get_double("skeleton-frac", 0.3)),
                  "--finetune-iters",
                  std::to_string(args.get_int("finetune-iters", 10)),
                  "--assignment-out", ooc_assignment, "--result-out",
                  ooc_result});
  if (rc != 0) {
    std::fprintf(stderr, "out-of-core child failed (exit %d)\n", rc);
    return 1;
  }

  const auto inmem = read_result_file(inmem_result);
  const auto ooc_metrics = read_result_file(ooc_result);
  const auto inmem_labels = eval::load_assignment_file(inmem_assignment);
  const auto ooc_labels = eval::load_assignment_file(ooc_assignment);
  const double nmi_inmem = metrics::nmi(ground_truth, inmem_labels);
  const double nmi_ooc = metrics::nmi(ground_truth, ooc_labels);
  const double nmi_agreement = metrics::nmi(inmem_labels, ooc_labels);
  const double rss_ratio =
      inmem.at("peak_rss_kb") > 0.0
          ? ooc_metrics.at("peak_rss_kb") / inmem.at("peak_rss_kb")
          : 0.0;

  std::ostringstream json;
  json.precision(6);
  json << "{\n"
       << "  \"graph\": \"" << entry->id << "\", \"vertices\": "
       << num_vertices << ", \"edges\": " << num_edges
       << ", \"csr_bytes\": " << csr_bytes
       << ", \"budget_mb\": " << budget_mb << ",\n"
       << "  \"inmem\": {\"peak_rss_kb\": " << inmem.at("peak_rss_kb")
       << ", \"total_seconds\": " << inmem.at("total_seconds")
       << ", \"mdl\": " << inmem.at("mdl")
       << ", \"blocks\": " << inmem.at("blocks")
       << ", \"nmi\": " << nmi_inmem << "},\n"
       << "  \"ooc\": {\"peak_rss_kb\": " << ooc_metrics.at("peak_rss_kb")
       << ", \"total_seconds\": " << ooc_metrics.at("total_seconds")
       << ", \"skeleton_seconds\": " << ooc_metrics.at("skeleton_seconds")
       << ", \"extrapolate_seconds\": "
       << ooc_metrics.at("extrapolate_seconds")
       << ", \"pieces_seconds\": " << ooc_metrics.at("pieces_seconds")
       << ", \"finetune_seconds\": " << ooc_metrics.at("finetune_seconds")
       << ", \"mdl\": " << ooc_metrics.at("mdl")
       << ", \"blocks\": " << ooc_metrics.at("blocks")
       << ", \"pieces_planned\": " << ooc_metrics.at("pieces_planned")
       << ", \"pieces_refit\": " << ooc_metrics.at("pieces_refit")
       << ", \"nmi\": " << nmi_ooc << "},\n"
       << "  \"nmi_ooc_vs_inmem\": " << nmi_agreement
       << ", \"rss_ratio\": " << rss_ratio << "\n"
       << "}\n";
  std::fputs(json.str().c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::fprintf(stderr, "result written to %s\n", json_path.c_str());
  }

  std::fprintf(stderr,
               "peak RSS: inmem %.0f KiB, ooc %.0f KiB (%.2fx); "
               "NMI vs truth: inmem %.3f, ooc %.3f; agreement %.3f\n",
               inmem.at("peak_rss_kb"), ooc_metrics.at("peak_rss_kb"),
               rss_ratio, nmi_inmem, nmi_ooc, nmi_agreement);

  std::remove(csr.c_str());
  std::remove(inmem_assignment.c_str());
  std::remove(inmem_result.c_str());
  std::remove(ooc_assignment.c_str());
  std::remove(ooc_result.c_str());
  return 0;
}

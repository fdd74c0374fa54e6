/// \file hsbp_cli.cpp
/// \brief The `hsbp` command-line tool: one entry point for the
/// library's workflows.
///
///   hsbp generate  --suite synthetic|realworld|both --scale F --outdir D
///   hsbp detect    <graph-file> [--algorithm sbp|asbp|hsbp|bsbp]
///                  [--weighted] [--runs K] [--out FILE]
///                  [--checkpoint FILE] [--checkpoint-every N]
///                  [--resume FILE]
///   hsbp compare   [<graph-file>] [--runs K] [generator flags]
///   hsbp sample    [<graph-file>] [--sample-frac F]
///                  [--sampler uniform|degree|edge|snowball]
///                  [--finetune-iters N] [--algorithm ...] [--baseline]
///                  [--suite synthetic|realworld --scale F --only ID]
///                  [--checkpoint FILE] [--checkpoint-every N]
///                  [--resume FILE]
///   hsbp stream    [generator flags] [--parts K] [--order edge|snowball]
///   hsbp dist      [generator flags] [--ranks R]
///                  [--partition range|roundrobin|balanced]
///   hsbp score     <truth.tsv> <predicted.tsv>
///   hsbp convert   <graph-file> <out.csr> [--weighted]
///   hsbp fit       <graph-file|file.csr> [--mmap] [--memory-budget-mb N]
///                  [--pieces K] [--skeleton-frac F]
///                  [--sampler uniform|degree|edge|snowball]
///                  [--finetune-iters N] [--algorithm sbp|asbp|hsbp|bsbp]
///                  [--seed S] [--threads T] [--weighted] [--out FILE]
///                  [--json]
///   hsbp serve     <graph-file> [more graphs] (--socket PATH | --port N)
///                  [--algorithm ...] [--weighted] [--seed S] [--threads T]
///                  [--checkpoint DIR] [--resume] [--refine K]
///                  [--max-sessions N] [--idle-timeout-ms MS]
///                  [--frame-timeout-ms MS] [--max-pending N]
///                  [--retry-after-ms MS]
///   hsbp query     (--socket PATH | --port N) [--timeout MS]
///                  [--retries N] [--retry-backoff-ms MS] <verb> [args...]
///   hsbp version
///
/// Every command that fits also takes --seed S, --threads T,
/// --fraction F (H-SBP's serial share) and --batches K (B-SBP). A flag
/// the command does not take is a usage error (exit 64), and a flag
/// that takes no value (`--weighted`, `--json`, `--mmap`, `--baseline`,
/// `serve --resume`) never takes the token after it as one.
///
/// Checkpointing (`detect`, `sample`): `--checkpoint FILE` snapshots
/// the run to FILE (atomically) every `--checkpoint-every N` outer
/// phases and on SIGINT/SIGTERM, which finish the in-flight phase,
/// checkpoint, and exit with the best-so-far partition. `--resume FILE`
/// continues a saved run; the graph (for `sample`, the sampled
/// subgraph, whose fit is what the file holds), algorithm, seed, and
/// `--threads` must match the checkpoint exactly (else exit 65), and a
/// resumed `--threads 1` run reproduces the uninterrupted one
/// bit-for-bit.
///
/// Exit codes (sysexits.h conventions, all diagnostics on stderr):
///    0  success (for `serve`: includes SIGINT/SIGTERM graceful drain)
///   64  usage error (bad flags, unknown command, bad flag value)
///   65  malformed input data (graph/assignment/checkpoint rejected,
///       or a `query` answered with an ERR reply)
///   69  service unavailable (`serve` cannot bind its socket/port)
///   70  internal error (unexpected exception)
///   74  I/O failure (cannot open/write a file, daemon hung up mid-query)
///   75  run interrupted by SIGINT/SIGTERM but state checkpointed —
///       rerun with --resume to continue
///
/// Malformed *client requests* to a running daemon are protocol-level
/// errors: the daemon replies `ERR ...` on the same connection and
/// keeps serving — they never terminate the `serve` process.
///
/// Each subcommand is a thin shell over the same public API the
/// examples demonstrate; `hsbp <cmd> --help` lists the flags.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ckpt/config.hpp"
#include "ckpt/fault_injector.hpp"
#include "ckpt/shutdown.hpp"
#include "dist/dist_sbp.hpp"
#include "eval/experiment.hpp"
#include "eval/partition_io.hpp"
#include "eval/report.hpp"
#include "generator/suites.hpp"
#include "graph/binary_csr.hpp"
#include "graph/components.hpp"
#include "graph/io.hpp"
#include "graph/mmap_graph.hpp"
#include "ooc/ooc.hpp"
#include "metrics/metrics.hpp"
#include "metrics/pairwise.hpp"
#include "sample/sample_sbp.hpp"
#include "sbp/streaming.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"
#include "util/errors.hpp"
#include "util/table.hpp"

namespace {

using hsbp::util::Args;

constexpr const char* kVersion = "1.0.0";

// Exit codes, following sysexits.h (see the file docblock).
constexpr int kExitUsage = 64;
constexpr int kExitData = 65;
constexpr int kExitUnavailable = 69;
constexpr int kExitInternal = 70;
constexpr int kExitIo = 74;
constexpr int kExitInterrupted = 75;

[[noreturn]] void usage(int code) {
  std::fprintf(
      stderr,
      "usage: hsbp <generate|detect|compare|sample|stream|dist|score|"
      "convert|fit|serve|query|version> "
      "[flags]\n"
      "run `hsbp <command> --help` for the command's flags\n");
  std::exit(code);
}

// The flags each helper below reads; a command lists the groups it
// calls plus its own flags (parse_flags).
constexpr std::string_view kConfigFlags[] = {"seed", "threads", "fraction",
                                             "batches"};  // base_config
constexpr std::string_view kGeneratorFlags[] = {
    "vertices", "communities", "edges", "ratio", "seed"};  // generated_workload
constexpr std::string_view kCheckpointFlags[] = {
    "checkpoint", "checkpoint-every", "resume"};  // checkpoint_config

/// A command's own arguments: argv from the command name on.
struct CommandLine {
  int argc;
  const char* const* argv;
};

/// Parses a command's arguments, then fails with a usage error (exit
/// 64) naming every `--flag` the command does not read, so a typo fails
/// before any work instead of running on a default. `--help` is always
/// accepted. `--help` and the flags in `bare` take no value: the token
/// after them stays a positional (`--weighted g.mtx`), while
/// `--weighted=false` still sets one.
Args parse_flags(CommandLine line,
                 std::initializer_list<std::span<const std::string_view>> known,
                 std::initializer_list<std::string_view> bare = {}) {
  static constexpr std::string_view kHelp[] = {"help"};
  std::vector<std::string_view> bare_flags(bare);
  bare_flags.push_back("help");
  const Args args(line.argc, line.argv, bare_flags);
  std::vector<std::span<const std::string_view>> groups(known);
  groups.push_back(kHelp);
  if (const std::string unknown = args.unknown_flags(groups);
      !unknown.empty()) {
    throw std::invalid_argument("hsbp " + args.program() +
                                " does not take " + unknown);
  }
  return args;
}

hsbp::sbp::Variant parse_variant(const std::string& name) {
  if (name == "sbp") return hsbp::sbp::Variant::Metropolis;
  if (name == "asbp") return hsbp::sbp::Variant::AsyncGibbs;
  if (name == "hsbp") return hsbp::sbp::Variant::Hybrid;
  if (name == "bsbp") return hsbp::sbp::Variant::BatchedGibbs;
  throw std::invalid_argument("unknown algorithm '" + name + "'");
}

hsbp::graph::Graph load_graph(const std::string& path, bool weighted) {
  const auto weights = weighted
                           ? hsbp::graph::WeightHandling::Multiplicity
                           : hsbp::graph::WeightHandling::Ignore;
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".mtx") {
    return hsbp::graph::read_matrix_market_file(path, weights);
  }
  return hsbp::graph::read_edge_list_file(path, weights);
}

hsbp::generator::GeneratedGraph generated_workload(const Args& args) {
  hsbp::generator::DcsbmParams params;
  params.num_vertices =
      static_cast<hsbp::graph::Vertex>(args.get_int("vertices", 600));
  params.num_communities =
      static_cast<std::int32_t>(args.get_int("communities", 8));
  params.num_edges = args.get_int("edges", 6000);
  params.ratio_within_between = args.get_double("ratio", 4.0);
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  auto generated = hsbp::generator::generate_dcsbm(params);
  generated.name = "generated";
  return generated;
}

hsbp::sbp::SbpConfig base_config(const Args& args) {
  hsbp::sbp::SbpConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.num_threads = static_cast<int>(args.get_int("threads", 0));
  config.hybrid_fraction = args.get_double("fraction", 0.15);
  config.batch_count = static_cast<int>(args.get_int("batches", 4));
  return config;
}

/// Builds the checkpoint config from `--checkpoint`, `--checkpoint-every`,
/// and `--resume`; `--resume` alone keeps checkpointing to the same file
/// so a chain of interruptions stays resumable. Installs the SIGINT/
/// SIGTERM handlers whenever checkpointing is on.
hsbp::ckpt::CheckpointConfig checkpoint_config(const Args& args) {
  hsbp::ckpt::CheckpointConfig ck;
  ck.save_path = args.get_string("checkpoint", "");
  ck.resume_path = args.get_string("resume", "");
  if (ck.save_path.empty()) ck.save_path = ck.resume_path;
  ck.every_phases = static_cast<int>(args.get_int("checkpoint-every", 1));
  if (ck.every_phases < 1) {
    throw std::invalid_argument("--checkpoint-every must be >= 1");
  }
  if (ck.enabled()) hsbp::ckpt::install_shutdown_handlers();
  return ck;
}

/// Reports an interrupted-but-checkpointed run and yields exit code 75.
int report_interrupted(const std::string& save_path) {
  std::fprintf(stderr,
               "interrupted: state saved to '%s'; rerun with --resume %s "
               "to continue\n",
               save_path.c_str(), save_path.c_str());
  return kExitInterrupted;
}

int cmd_generate(CommandLine line) {
  static constexpr std::string_view kFlags[] = {"suite", "scale", "seed",
                                                "outdir", "only"};
  const Args args = parse_flags(line, {kFlags});
  if (args.has("help")) {
    std::printf(
        "hsbp generate --suite synthetic|realworld|both --scale F "
        "--seed S --outdir DIR [--only ID]\n");
    return 0;
  }
  const std::string suite = args.get_string("suite", "synthetic");
  const double scale = args.get_double("scale", 0.01);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string outdir = args.get_string("outdir", "generated_graphs");
  const std::string only = args.get_string("only", "");

  std::vector<hsbp::generator::SuiteEntry> entries;
  if (suite == "synthetic" || suite == "both") {
    const auto s = hsbp::generator::synthetic_suite(scale, seed);
    entries.insert(entries.end(), s.begin(), s.end());
  }
  if (suite == "realworld" || suite == "both") {
    const auto s = hsbp::generator::realworld_surrogate_suite(scale, seed);
    entries.insert(entries.end(), s.begin(), s.end());
  }
  if (entries.empty()) {
    throw std::invalid_argument("--suite must be synthetic|realworld|both");
  }

  std::filesystem::create_directories(outdir);
  int written = 0;
  for (const auto& entry : entries) {
    if (!only.empty() && entry.id != only) continue;
    const auto generated = hsbp::generator::generate(entry);
    hsbp::graph::write_matrix_market_file(generated.graph,
                                          outdir + "/" + entry.id + ".mtx");
    std::printf("%s: V=%d E=%lld -> %s/%s.mtx\n", entry.id.c_str(),
                generated.graph.num_vertices(),
                static_cast<long long>(generated.graph.num_edges()),
                outdir.c_str(), entry.id.c_str());
    ++written;
  }
  if (written == 0) throw std::invalid_argument("no suite entry matched");
  return 0;
}

int cmd_detect(CommandLine line) {
  static constexpr std::string_view kFlags[] = {"algorithm", "weighted",
                                                "runs", "out"};
  const Args args = parse_flags(
      line, {kFlags, kConfigFlags, kCheckpointFlags}, {"weighted"});
  if (args.has("help") || args.positionals().empty()) {
    std::printf(
        "hsbp detect <graph-file> [--algorithm sbp|asbp|hsbp|bsbp] "
        "[--weighted] [--runs K] [--seed S] [--threads T] [--out FILE]\n"
        "            [--fraction F] [--batches K]\n"
        "            [--checkpoint FILE] [--checkpoint-every N] "
        "[--resume FILE]\n");
    return args.has("help") ? 0 : kExitUsage;
  }
  const auto graph = load_graph(args.positionals().front(),
                                args.get_bool("weighted", false));
  const auto components = hsbp::graph::weakly_connected_components(graph);
  std::printf("V=%d E=%lld components=%d\n", graph.num_vertices(),
              static_cast<long long>(graph.num_edges()), components.count);

  hsbp::sbp::SbpConfig config = base_config(args);
  config.variant = parse_variant(args.get_string("algorithm", "hsbp"));
  const auto ck = checkpoint_config(args);

  hsbp::sbp::SbpResult best;
  int runs = static_cast<int>(args.get_int("runs", 5));
  if (ck.enabled()) {
    // A checkpoint captures exactly one chain, so checkpointed runs are
    // single-run; say so if the user asked for more.
    if (runs > 1) {
      std::fprintf(stderr,
                   "note: --checkpoint/--resume forces --runs 1 (a "
                   "checkpoint holds one chain)\n");
    }
    runs = 1;
    best = hsbp::sbp::run(graph, config, ck);
  } else {
    best = hsbp::eval::best_of(graph, config, runs).best;
  }

  std::printf("%s best-of-%d: %d communities, MDL %.2f (norm %.4f), "
              "modularity %.4f\n",
              hsbp::sbp::variant_name(config.variant), runs,
              best.num_blocks, best.mdl,
              hsbp::metrics::normalized_mdl(best.mdl, graph.num_vertices(),
                                            graph.num_edges()),
              hsbp::metrics::modularity(graph, best.assignment));

  if (args.has("out")) {
    const std::string path = args.get_string("out", "");
    hsbp::eval::save_assignment_file(best.assignment, path);
    std::printf("assignment -> %s\n", path.c_str());
  }
  if (best.interrupted) return report_interrupted(ck.save_path);
  return 0;
}

int cmd_compare(CommandLine line) {
  static constexpr std::string_view kFlags[] = {"weighted", "runs", "csv"};
  const Args args = parse_flags(
      line, {kFlags, kGeneratorFlags, kConfigFlags}, {"weighted"});
  if (args.has("help")) {
    std::printf(
        "hsbp compare [<graph-file>] [--runs K] [--vertices N] "
        "[--communities C] [--edges E] [--ratio R] [--seed S]\n");
    return 0;
  }
  hsbp::generator::GeneratedGraph workload;
  if (!args.positionals().empty()) {
    workload.graph = load_graph(args.positionals().front(),
                                args.get_bool("weighted", false));
    workload.name = args.positionals().front();
  } else {
    workload = generated_workload(args);
  }

  const int runs = static_cast<int>(args.get_int("runs", 3));
  std::vector<hsbp::eval::ExperimentRow> rows;
  for (const auto variant :
       {hsbp::sbp::Variant::Metropolis, hsbp::sbp::Variant::Hybrid,
        hsbp::sbp::Variant::AsyncGibbs, hsbp::sbp::Variant::BatchedGibbs}) {
    rows.push_back(hsbp::eval::run_experiment(workload, variant,
                                              base_config(args), runs));
  }
  hsbp::eval::print_quality_table(rows, std::cout);
  hsbp::eval::print_speedup_table(rows, std::cout);
  if (args.has("csv")) {
    hsbp::eval::write_rows_csv_file(rows, args.get_string("csv", ""));
  }
  return 0;
}

int cmd_sample(CommandLine line) {
  static constexpr std::string_view kFlags[] = {
      "weighted", "suite",       "scale",          "only",     "algorithm",
      "sampler",  "sample-frac", "finetune-iters", "baseline", "out"};
  const Args args = parse_flags(
      line, {kFlags, kGeneratorFlags, kConfigFlags, kCheckpointFlags},
      {"weighted", "baseline"});
  if (args.has("help")) {
    std::printf(
        "hsbp sample [<graph-file>] [--sample-frac F] "
        "[--sampler uniform|degree|edge|snowball] [--finetune-iters N] "
        "[--algorithm sbp|asbp|hsbp|bsbp] [--baseline] [--out FILE]\n"
        "            [--suite synthetic|realworld --scale F --only ID | "
        "generator flags]\n"
        "            [--checkpoint FILE] [--checkpoint-every N] "
        "[--resume FILE]\n");
    return 0;
  }

  hsbp::generator::GeneratedGraph workload;
  if (!args.positionals().empty()) {
    workload.graph = load_graph(args.positionals().front(),
                                args.get_bool("weighted", false));
    workload.name = args.positionals().front();
  } else if (args.has("suite")) {
    const std::string suite = args.get_string("suite", "synthetic");
    const double scale = args.get_double("scale", 0.01);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const auto entries =
        suite == "realworld"
            ? hsbp::generator::realworld_surrogate_suite(scale, seed)
            : hsbp::generator::synthetic_suite(scale, seed);
    const std::string only = args.get_string("only", entries.front().id);
    bool found = false;
    for (const auto& entry : entries) {
      if (entry.id != only) continue;
      workload = hsbp::generator::generate(entry);
      found = true;
      break;
    }
    if (!found) {
      throw std::invalid_argument("no suite entry named '" + only + "'");
    }
  } else {
    workload = generated_workload(args);
  }

  hsbp::sample::SampleConfig config;
  config.base = base_config(args);
  config.base.variant = parse_variant(args.get_string("algorithm", "hsbp"));
  config.sampler =
      hsbp::sample::parse_sampler(args.get_string("sampler", "degree"));
  config.fraction = args.get_double("sample-frac", 0.5);
  config.finetune_max_iterations =
      static_cast<int>(args.get_int("finetune-iters", 20));

  std::printf("%s: V=%d E=%lld — %s pipeline, %s sampler, frac %.2f\n",
              workload.name.c_str(), workload.graph.num_vertices(),
              static_cast<long long>(workload.graph.num_edges()),
              hsbp::sbp::variant_name(config.base.variant),
              hsbp::sample::sampler_name(config.sampler), config.fraction);

  const auto ck = checkpoint_config(args);
  const auto result = hsbp::sample::run(workload.graph, config, ck);

  hsbp::util::Table table({"stage", "seconds", "%"});
  const auto& t = result.timings;
  const double total = t.total_seconds > 0.0 ? t.total_seconds : 1.0;
  const auto stage_row = [&](const char* name, double seconds) {
    table.row().cell(std::string(name)).cell(seconds, 3).cell(
        100.0 * seconds / total, 1);
  };
  stage_row("sample", t.sample_seconds);
  stage_row("partition", t.partition_seconds);
  stage_row("extrapolate", t.extrapolate_seconds);
  stage_row("finetune", t.finetune_seconds);
  stage_row("total", t.total_seconds);
  table.print(std::cout);

  std::size_t covered = 0;
  for (const std::int32_t block : result.assignment) {
    if (block >= 0 && block < result.num_blocks) ++covered;
  }
  std::printf("coverage: %zu/%d vertices assigned "
              "(%lld frontier, %lld isolated-fallback)\n",
              covered, workload.graph.num_vertices(),
              static_cast<long long>(result.frontier_assigned),
              static_cast<long long>(result.isolated_assigned));
  std::printf("sample: %d vertices, %lld edges; fine-tune: %lld passes, "
              "%lld/%lld moves accepted\n",
              result.sample_vertices,
              static_cast<long long>(result.sample_edges),
              static_cast<long long>(result.finetune.iterations),
              static_cast<long long>(result.finetune.accepted),
              static_cast<long long>(result.finetune.proposals));
  std::printf("%d communities, MDL %.2f (norm %.4f), modularity %.4f",
              result.num_blocks, result.mdl,
              hsbp::metrics::normalized_mdl(result.mdl,
                                            workload.graph.num_vertices(),
                                            workload.graph.num_edges()),
              hsbp::metrics::modularity(workload.graph, result.assignment));
  if (!workload.ground_truth.empty()) {
    std::printf(", NMI %.4f",
                hsbp::metrics::nmi(workload.ground_truth,
                                   result.assignment));
  }
  std::printf("\n");

  if (args.get_bool("baseline", false)) {
    const auto full = hsbp::sbp::run(workload.graph, config.base);
    std::printf("baseline %s (full graph): MDL %.2f in %.3fs — pipeline "
                "speedup %.2fx",
                hsbp::sbp::variant_name(config.base.variant), full.mdl,
                full.stats.total_seconds,
                full.stats.total_seconds / total);
    if (!workload.ground_truth.empty()) {
      std::printf(", NMI %.4f",
                  hsbp::metrics::nmi(workload.ground_truth,
                                     full.assignment));
    }
    std::printf("\n");
  }

  if (args.has("out")) {
    const std::string path = args.get_string("out", "");
    hsbp::eval::save_assignment_file(result.assignment, path);
    std::printf("assignment -> %s\n", path.c_str());
  }
  if (result.interrupted) return report_interrupted(ck.save_path);
  return 0;
}

int cmd_stream(CommandLine line) {
  static constexpr std::string_view kFlags[] = {"parts", "order",
                                                "algorithm"};
  const Args args =
      parse_flags(line, {kFlags, kGeneratorFlags, kConfigFlags});
  if (args.has("help")) {
    std::printf(
        "hsbp stream [--parts K] [--order edge|snowball] [generator "
        "flags] [--algorithm ...]\n");
    return 0;
  }
  const auto generated = generated_workload(args);
  const int parts = static_cast<int>(args.get_int("parts", 4));
  const std::string order_name = args.get_string("order", "edge");
  if (order_name != "edge" && order_name != "snowball") {
    throw std::invalid_argument("--order must be edge|snowball, got '" +
                                order_name + "'");
  }
  const auto order = order_name == "snowball"
                         ? hsbp::generator::StreamingOrder::Snowball
                         : hsbp::generator::StreamingOrder::EdgeSampling;
  const auto stream = hsbp::generator::streaming_snapshots(
      generated, parts, order,
      static_cast<std::uint64_t>(args.get_int("seed", 1)) + 1);

  hsbp::sbp::SbpConfig config = base_config(args);
  config.variant = parse_variant(args.get_string("algorithm", "hsbp"));
  const auto result = hsbp::sbp::run_streaming(stream.snapshots, config);

  hsbp::util::Table table({"part", "V", "E", "blocks", "NMI"});
  for (std::size_t i = 0; i < result.snapshots.size(); ++i) {
    const auto arrived =
        static_cast<std::size_t>(stream.snapshots[i].num_vertices());
    const std::vector<std::int32_t> truth(
        stream.ground_truth.begin(),
        stream.ground_truth.begin() + static_cast<std::ptrdiff_t>(arrived));
    table.row()
        .cell(static_cast<std::int64_t>(i + 1))
        .cell(static_cast<std::int64_t>(stream.snapshots[i].num_vertices()))
        .cell(stream.snapshots[i].num_edges())
        .cell(static_cast<std::int64_t>(result.snapshots[i].num_blocks))
        .cell(hsbp::metrics::nmi(truth, result.snapshots[i].assignment), 3);
  }
  table.print(std::cout);
  std::printf("total: %.2fs\n", result.total_seconds);
  return 0;
}

int cmd_score(CommandLine line) {
  const Args args = parse_flags(line, {});
  if (args.has("help") || args.positionals().size() != 2) {
    std::printf(
        "hsbp score <truth.tsv> <predicted.tsv> — NMI/ARI/pairwise-F1 "
        "between two assignment files\n");
    return args.has("help") ? 0 : kExitUsage;
  }
  const auto truth =
      hsbp::eval::load_assignment_file(args.positionals()[0]);
  const auto predicted =
      hsbp::eval::load_assignment_file(args.positionals()[1]);
  if (truth.size() != predicted.size()) {
    throw std::invalid_argument("assignments cover different vertex sets (" +
                                std::to_string(truth.size()) + " vs " +
                                std::to_string(predicted.size()) + ")");
  }
  const auto pairwise = hsbp::metrics::pairwise_scores(truth, predicted);
  std::printf("NMI        %.4f\n", hsbp::metrics::nmi(truth, predicted));
  std::printf("ARI        %.4f\n",
              hsbp::metrics::adjusted_rand_index(truth, predicted));
  std::printf("pair-P/R/F %.4f / %.4f / %.4f\n", pairwise.precision,
              pairwise.recall, pairwise.f1);
  return 0;
}

int cmd_dist(CommandLine line) {
  static constexpr std::string_view kFlags[] = {"ranks", "partition"};
  const Args args =
      parse_flags(line, {kFlags, kGeneratorFlags, kConfigFlags});
  if (args.has("help")) {
    std::printf(
        "hsbp dist [--ranks R] [--partition range|roundrobin|balanced] "
        "[generator flags]\n");
    return 0;
  }
  hsbp::dist::DistributedConfig config;
  config.base = base_config(args);
  config.ranks = static_cast<int>(args.get_int("ranks", 4));
  config.strategy =
      hsbp::dist::parse_strategy(args.get_string("partition", "balanced"));

  const auto generated = generated_workload(args);
  const auto out = hsbp::dist::run_distributed(generated.graph, config);
  std::printf(
      "D-SBP on %d ranks (%s, imbalance %.2f): %d communities, NMI %.3f\n",
      config.ranks, hsbp::dist::strategy_name(config.strategy),
      out.partition_imbalance, out.result.num_blocks,
      hsbp::metrics::nmi(generated.ground_truth, out.result.assignment));
  std::printf("communication: %.3f MB total (%zu collectives)\n",
              static_cast<double>(out.comm.total_bytes()) / (1024.0 * 1024.0),
              out.comm.collective_count());
  return 0;
}

int cmd_serve(CommandLine line) {
  static constexpr std::string_view kFlags[] = {
      "socket",          "port",           "algorithm",   "weighted",
      "checkpoint",      "resume",         "refine",      "max-sessions",
      "idle-timeout-ms", "frame-timeout-ms", "max-pending", "retry-after-ms"};
  const Args args =
      parse_flags(line, {kFlags, kConfigFlags}, {"weighted", "resume"});
  if (args.has("help") || args.positionals().empty()) {
    std::printf(
        "hsbp serve <graph-file> [more graphs] (--socket PATH | --port N)\n"
        "           [--algorithm sbp|asbp|hsbp|bsbp] [--weighted] "
        "[--seed S] [--threads T]\n"
        "           [--checkpoint DIR] [--resume] [--refine K]\n"
        "           [--max-sessions N] [--idle-timeout-ms MS] "
        "[--frame-timeout-ms MS]\n"
        "           [--max-pending N] [--retry-after-ms MS]\n"
        "Serves partitions over a Unix socket or loopback TCP port "
        "(--port 0 picks an\n"
        "ephemeral port, printed on startup). Each graph is served under "
        "its file stem.\n"
        "SIGINT/SIGTERM drain gracefully: in-flight queries finish, the "
        "running refit\n"
        "publishes, final checkpoints are written, exit 0.\n"
        "Overload limits (see README): connections past --max-sessions "
        "and INGESTs\n"
        "past --max-pending are shed with 'ERR busy retry-after <ms>'; "
        "sessions idle\n"
        "past --idle-timeout-ms or stalled mid-frame past "
        "--frame-timeout-ms are cut.\n");
    return args.has("help") ? 0 : kExitUsage;
  }
  hsbp::serve::ServeOptions options;
  options.socket_path = args.get_string("socket", "");
  options.tcp_port = static_cast<int>(args.get_int("port", -1));
  if (options.socket_path.empty() == (options.tcp_port < 0)) {
    throw std::invalid_argument(
        "serve needs exactly one of --socket PATH or --port N");
  }
  options.refit.base = base_config(args);
  options.refit.base.variant =
      parse_variant(args.get_string("algorithm", "hsbp"));
  options.refit.refine_factor =
      static_cast<int>(args.get_int("refine", 3));
  options.refit.checkpoint_dir = args.get_string("checkpoint", "");
  options.resume = args.get_bool("resume", false);
  if (options.resume && options.refit.checkpoint_dir.empty()) {
    throw std::invalid_argument("--resume requires --checkpoint DIR");
  }
  if (!options.refit.checkpoint_dir.empty()) {
    std::filesystem::create_directories(options.refit.checkpoint_dir);
  }
  options.max_sessions =
      static_cast<int>(args.get_int("max-sessions", options.max_sessions));
  options.idle_timeout_ms = static_cast<int>(
      args.get_int("idle-timeout-ms", options.idle_timeout_ms));
  options.frame_timeout_ms = static_cast<int>(
      args.get_int("frame-timeout-ms", options.frame_timeout_ms));
  options.retry_after_ms = static_cast<int>(
      args.get_int("retry-after-ms", options.retry_after_ms));
  const auto max_pending = args.get_int(
      "max-pending", static_cast<std::int64_t>(options.max_pending_batches));
  if (max_pending < 0) {
    throw std::invalid_argument("--max-pending must be >= 0");
  }
  options.max_pending_batches = static_cast<std::size_t>(max_pending);

  // Testing-only network fault seam: HSBP_SERVE_NET_FAULT arms the
  // frame-I/O injector from the environment so the sh-level tests can
  // drive transient disconnects through the real binary. Directives
  // (comma-separated): drop_read=N, drop_write=N, tear_write=N:BYTES,
  // delay_read=N:MS, chunk_writes=BYTES. Counters are process-wide and
  // 1-based, like the checkpoint injector's.
  static hsbp::ckpt::FaultInjector net_fault;
  if (const char* spec = std::getenv("HSBP_SERVE_NET_FAULT");
      spec != nullptr && *spec != '\0') {
    std::string directives(spec);
    std::size_t start = 0;
    while (start <= directives.size()) {
      std::size_t end = directives.find(',', start);
      if (end == std::string::npos) end = directives.size();
      const std::string directive = directives.substr(start, end - start);
      const auto eq = directive.find('=');
      if (eq != std::string::npos) {
        const std::string key = directive.substr(0, eq);
        const std::string value = directive.substr(eq + 1);
        const auto colon = value.find(':');
        const long first = std::strtol(value.c_str(), nullptr, 10);
        const long second =
            colon == std::string::npos
                ? 0
                : std::strtol(value.c_str() + colon + 1, nullptr, 10);
        if (key == "drop_read") {
          net_fault.net_drop_read(static_cast<int>(first));
        } else if (key == "drop_write") {
          net_fault.net_drop_write(static_cast<int>(first));
        } else if (key == "tear_write") {
          net_fault.net_tear_write(static_cast<int>(first),
                                   static_cast<std::size_t>(second));
        } else if (key == "delay_read") {
          net_fault.net_delay_read(static_cast<int>(first),
                                   static_cast<int>(second));
        } else if (key == "chunk_writes") {
          net_fault.net_chunk_writes(static_cast<std::size_t>(first));
        } else {
          throw std::invalid_argument("HSBP_SERVE_NET_FAULT: unknown '" +
                                      key + "'");
        }
      }
      start = end + 1;
    }
    options.net_fault = &net_fault;
    std::fprintf(stderr, "hsbpd: NETWORK FAULT INJECTION ARMED (%s)\n",
                 spec);
  }

  hsbp::serve::Server server(options);
  const bool weighted = args.get_bool("weighted", false);
  for (const std::string& path : args.positionals()) {
    const std::string name = std::filesystem::path(path).stem().string();
    server.add_graph(name, load_graph(path, weighted));
  }

  // The daemon's graceful drain rides the same SIGINT/SIGTERM flag the
  // engine polls at phase boundaries: one signal stops the accept loop
  // AND early-exits a mid-flight refit at its next phase boundary.
  hsbp::ckpt::install_shutdown_handlers();
  server.start();
  if (!options.socket_path.empty()) {
    std::printf("hsbpd: serving on unix:%s\n", options.socket_path.c_str());
  } else {
    std::printf("hsbpd: serving on tcp:127.0.0.1:%d\n", server.port());
  }
  std::fflush(stdout);

  server.run();

  const auto stats = server.stats();
  std::printf("hsbpd: drained — %llu sessions, %llu queries (%llu errors), "
              "%llu ingests, %llu refits\n",
              static_cast<unsigned long long>(stats.sessions),
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.errors),
              static_cast<unsigned long long>(stats.ingests),
              static_cast<unsigned long long>(stats.refits));
  return 0;
}

int cmd_query(CommandLine line) {
  static constexpr std::string_view kFlags[] = {"socket", "port", "timeout",
                                                "retries", "retry-backoff-ms"};
  const Args args = parse_flags(line, {kFlags});
  if (args.has("help") || args.positionals().empty()) {
    std::printf(
        "hsbp query (--socket PATH | --port N) [--timeout MS] "
        "[--retries N]\n"
        "           [--retry-backoff-ms MS] <verb> [args...]\n"
        "One request against a running daemon; the reply goes to stdout.\n"
        "Exit 0 on an OK reply, %d on an ERR reply.\n"
        "--timeout bounds each attempt; --retries N re-dials and resends "
        "up to N extra\n"
        "times on a hangup, timeout, or 'ERR busy' shed (exponential "
        "backoff + jitter,\n"
        "honoring the server's retry-after hint). Retried INGESTs are "
        "at-least-once.\n"
        "examples:\n"
        "  hsbp query --socket /tmp/hsbpd.sock LIST\n"
        "  hsbp query --socket /tmp/hsbpd.sock MEMBER mygraph 17\n"
        "  hsbp query --port 7471 INGEST mygraph 2 0 5 5 9\n"
        "  hsbp query --socket /tmp/hsbpd.sock --timeout 2000 --retries 3 "
        "HEALTH\n",
        kExitData);
    return args.has("help") ? 0 : kExitUsage;
  }
  const std::string socket_path = args.get_string("socket", "");
  const int port = static_cast<int>(args.get_int("port", -1));
  if (socket_path.empty() == (port < 0)) {
    throw std::invalid_argument(
        "query needs exactly one of --socket PATH or --port N");
  }
  const int retries = static_cast<int>(args.get_int("retries", 0));
  if (retries < 0) throw std::invalid_argument("--retries must be >= 0");
  hsbp::serve::RetryPolicy policy;
  policy.attempts = retries + 1;
  policy.timeout_ms = static_cast<int>(args.get_int("timeout", -1));
  policy.backoff_ms =
      static_cast<int>(args.get_int("retry-backoff-ms", 50));
  std::string payload;
  for (const std::string& word : args.positionals()) {
    if (!payload.empty()) payload += ' ';
    payload += word;
  }
  auto client = socket_path.empty()
                    ? hsbp::serve::Client::connect_tcp(port)
                    : hsbp::serve::Client::connect_unix(socket_path);
  const auto reply = client.request_retry(payload, policy);
  if (!reply.has_value()) {
    throw hsbp::util::IoError(
        retries > 0 ? "daemon hung up before replying (all " +
                          std::to_string(policy.attempts) +
                          " attempts failed)"
                    : "daemon hung up before replying");
  }
  std::printf("%s\n", reply->c_str());
  return hsbp::serve::is_ok(*reply) ? 0 : kExitData;
}

int cmd_convert(CommandLine line) {
  static constexpr std::string_view kFlags[] = {"weighted"};
  const Args args = parse_flags(line, {kFlags}, {"weighted"});
  if (args.has("help") || args.positionals().size() != 2) {
    std::printf("hsbp convert <graph-file> <out.csr> [--weighted]\n");
    return args.has("help") ? 0 : kExitUsage;
  }
  const std::string& input = args.positionals()[0];
  const std::string& output = args.positionals()[1];
  const auto weights = args.get_bool("weighted", false)
                           ? hsbp::graph::WeightHandling::Multiplicity
                           : hsbp::graph::WeightHandling::Ignore;
  const auto stats = hsbp::graph::convert_text_to_csr(input, output, weights);
  std::printf("V=%d E=%lld self-loops=%lld -> %s (%lld bytes)\n",
              stats.num_vertices, static_cast<long long>(stats.num_edges),
              static_cast<long long>(stats.self_loops), output.c_str(),
              static_cast<long long>(stats.file_bytes));
  return 0;
}

int cmd_fit(CommandLine line) {
  static constexpr std::string_view kFlags[] = {
      "algorithm", "sampler",  "skeleton-frac",  "memory-budget-mb", "pieces",
      "mmap",      "weighted", "finetune-iters", "json",             "out"};
  const Args args = parse_flags(line, {kFlags, kConfigFlags},
                                {"mmap", "weighted", "json"});
  if (args.has("help") || args.positionals().empty()) {
    std::printf(
        "hsbp fit <graph-file|file.csr> [--mmap] [--memory-budget-mb N] "
        "[--pieces K] [--skeleton-frac F]\n"
        "         [--sampler uniform|degree|edge|snowball] "
        "[--finetune-iters N] [--algorithm sbp|asbp|hsbp|bsbp]\n"
        "         [--seed S] [--threads T] [--weighted] [--out FILE] "
        "[--json]\n");
    return args.has("help") ? 0 : kExitUsage;
  }
  const std::string& path = args.positionals().front();

  hsbp::ooc::OocConfig config;
  config.base = base_config(args);
  config.base.variant = parse_variant(args.get_string("algorithm", "hsbp"));
  config.sampler =
      hsbp::sample::parse_sampler(args.get_string("sampler", "degree"));
  config.skeleton_fraction = args.get_double("skeleton-frac", 0.1);
  config.memory_budget_mb = args.get_int("memory-budget-mb", 0);
  config.pieces = static_cast<int>(args.get_int("pieces", 0));
  config.finetune_max_iterations =
      static_cast<int>(args.get_int("finetune-iters", 10));

  const bool is_csr =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csr") == 0;
  const bool use_mmap = args.get_bool("mmap", false) || is_csr;

  hsbp::ooc::OocResult result;
  hsbp::graph::Vertex num_vertices = 0;
  hsbp::graph::EdgeCount num_edges = 0;
  if (use_mmap) {
    hsbp::graph::MmapGraph mapped(path);
    config.release_cache = [&mapped] { mapped.evict(); };
    num_vertices = mapped.num_vertices();
    num_edges = mapped.num_edges();
    result = hsbp::ooc::fit(mapped.view(), config);
  } else {
    const auto graph = load_graph(path, args.get_bool("weighted", false));
    num_vertices = graph.num_vertices();
    num_edges = graph.num_edges();
    result = hsbp::ooc::fit(graph, config);
  }

  const std::int64_t rss_kb = hsbp::ooc::peak_rss_kb();
  if (args.has("json")) {
    std::printf(
        "{\"vertices\":%d,\"edges\":%lld,\"blocks\":%d,\"mdl\":%.6f,"
        "\"pieces\":%d,\"pieces_refit\":%d,\"skeleton_vertices\":%d,"
        "\"estimated_csr_bytes\":%lld,\"peak_rss_kb\":%lld,"
        "\"timings\":{\"skeleton_s\":%.3f,\"extrapolate_s\":%.3f,"
        "\"pieces_s\":%.3f,\"finetune_s\":%.3f,\"total_s\":%.3f}}\n",
        num_vertices, static_cast<long long>(num_edges), result.num_blocks,
        result.mdl, result.pieces_planned, result.pieces_refit,
        result.skeleton_vertices,
        static_cast<long long>(result.estimated_csr_bytes),
        static_cast<long long>(rss_kb), result.timings.skeleton_seconds,
        result.timings.extrapolate_seconds, result.timings.pieces_seconds,
        result.timings.finetune_seconds, result.timings.total_seconds);
  } else {
    std::printf(
        "%s fit (%s): V=%d E=%lld -> %d communities, MDL %.2f\n"
        "pieces=%d/%d skeleton=%d vertices, peak RSS %lld KiB "
        "(CSR estimate %lld KiB)\n"
        "stages: skeleton %.2fs extrapolate %.2fs pieces %.2fs "
        "finetune %.2fs total %.2fs\n",
        hsbp::sbp::variant_name(config.base.variant),
        use_mmap ? "mmap" : "in-memory", num_vertices,
        static_cast<long long>(num_edges), result.num_blocks, result.mdl,
        result.pieces_refit, result.pieces_planned, result.skeleton_vertices,
        static_cast<long long>(rss_kb),
        static_cast<long long>(result.estimated_csr_bytes / 1024),
        result.timings.skeleton_seconds, result.timings.extrapolate_seconds,
        result.timings.pieces_seconds, result.timings.finetune_seconds,
        result.timings.total_seconds);
  }

  if (args.has("out")) {
    const std::string out_path = args.get_string("out", "");
    hsbp::eval::save_assignment_file(result.assignment, out_path);
    if (!args.has("json")) std::printf("assignment -> %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(kExitUsage);
  const std::string command = argv[1];
  const CommandLine line{argc - 1, argv + 1};
  try {
    if (command == "generate") return cmd_generate(line);
    if (command == "detect") return cmd_detect(line);
    if (command == "compare") return cmd_compare(line);
    if (command == "sample") return cmd_sample(line);
    if (command == "stream") return cmd_stream(line);
    if (command == "dist") return cmd_dist(line);
    if (command == "score") return cmd_score(line);
    if (command == "convert") return cmd_convert(line);
    if (command == "fit") return cmd_fit(line);
    if (command == "serve") return cmd_serve(line);
    if (command == "query") return cmd_query(line);
    if (command == "version") {
      parse_flags(line, {});
      std::printf("hsbp %s\n", kVersion);
      return 0;
    }
    if (command == "--help" || command == "help") usage(0);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    usage(kExitUsage);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  } catch (const hsbp::util::DataError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitData;
  } catch (const hsbp::serve::BindError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUnavailable;
  } catch (const hsbp::util::IoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitIo;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitInternal;
  }
}

/// \file layer_trace.cpp
/// \brief Layer spans for the `hsbp_traced` build of the hsbp CLI.
///
/// `hsbp_traced` is the unmodified CLI (tools/) linked against the
/// unmodified library, plus this file. Every library entry point listed
/// below is renamed at link time with `ld --wrap=<symbol>`: calls into it
/// from any other object land in `__wrap_<symbol>`, which opens a span,
/// calls `__real_<symbol>` (the original) and closes the span. The
/// program therefore runs exactly the code it runs untraced — same
/// chain, same assignment — with a clock read on each side of every
/// wrapped call. (Calls that stay inside one object file are not
/// redirected; they count toward the enclosing span.)
///
/// Accounting: each thread keeps a span stack. A span's self time is its
/// duration minus the time its child spans cover, and is added to its
/// layer. The self times of all spans in a thread therefore sum to the
/// time that thread spent inside any wrapped call; whatever the op's
/// wall clock holds beyond that is reported as unattributed by the
/// benchmark. Spans opened under `serve::fit_initial` (the daemon's
/// start-up fit, which the benchmark counts as set-up) go to a separate
/// `setup` bucket.
///
/// At exit the totals are written as JSON to the file named by the
/// HSBP_LAYER_TRACE environment variable (nothing is written when it is
/// unset). A wrapped symbol the library no longer defines resolves to a
/// null weak reference: the traced CLI still links, and the symbol is
/// listed under "missing" so the benchmark can flag the gap.
///
/// The `__wrap_`/`__real_` pairs are declared `extern "C"` with the
/// mangled C++ names; member functions take the object pointer as their
/// first parameter, which is how the Itanium C++ ABI passes `this`.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "blockmodel/blockmodel.hpp"
#include "dist/partition.hpp"
#include "graph/components.hpp"
#include "graph/io.hpp"
#include "ooc/ooc.hpp"
#include "sample/samplers.hpp"
#include "sbp/block_merge.hpp"
#include "sbp/golden_search.hpp"
#include "sbp/mcmc_phases.hpp"
#include "sbp/sbp.hpp"
#include "sbp/streaming.hpp"
#include "serve/registry.hpp"

namespace {

// Layer names as the benchmark reports them (perfbench/run.py).
enum Layer : int {
  kGraph,     // graph files read, CSR built or mapped, results written
  kSearch,    // golden-section search bookkeeping and the outer loop
  kBuild,     // blockmodel construction from an assignment
  kMerge,     // block-merge phase
  kPass,      // MCMC phase self time: neighbour gather, accept, loop
  kPropose,   // proposal of a destination block
  kDeltaMdl,  // ΔMDL of a vertex move
  kHastings,  // Hastings correction
  kApply,     // accepted moves applied to the blockmodel one by one
  kRebuild,   // blockmodel rebuilt from a pass's assignment
  kSample,    // sampling, induced subgraphs, vertex partitioning
  kOoc,       // out-of-core driver self time (extrapolate, stitch, polish)
  kWarmStart, // streaming warm start: extend labels, refine blocks
  kStartup,   // the daemon's start-up fit (set-up bucket only)
  kReport,    // components and modularity the CLI reports
  kLayers
};

constexpr const char* kLayerNames[kLayers] = {
    "graph", "search",  "build", "merge", "pass",  "propose", "delta_mdl",
    "hastings", "apply", "rebuild", "sample", "ooc", "warm_start", "startup", "report"};

constexpr int kBuckets = 2;  // 0 = measured, 1 = daemon start-up fit
constexpr int kMaxDepth = 64;

inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

struct Totals {
  std::uint64_t self[kBuckets][kLayers];
  std::uint64_t calls[kBuckets][kLayers];
};

// Never destroyed: thread exits and the exit-time dump both read it.
std::mutex g_totals_mutex;
Totals g_totals{};

void add_into(Totals& into, const Totals& from) {
  for (int b = 0; b < kBuckets; ++b) {
    for (int l = 0; l < kLayers; ++l) {
      into.self[b][l] += from.self[b][l];
      into.calls[b][l] += from.calls[b][l];
    }
  }
}

struct Frame {
  std::uint64_t start;
  std::uint64_t children;
};

/// Per-thread span stack and tallies, folded into g_totals when the
/// thread ends (the main thread's fold runs before static destructors).
struct ThreadTally {
  Totals totals{};
  Frame stack[kMaxDepth];
  int depth = 0;
  int setup_depth = 0;

  ~ThreadTally() {
    const std::lock_guard<std::mutex> lock(g_totals_mutex);
    add_into(g_totals, totals);
  }
};

thread_local ThreadTally t_tally;

class Span {
 public:
  explicit Span(Layer layer) noexcept : layer_(layer) {
    ThreadTally& t = t_tally;
    if (t.depth < kMaxDepth) t.stack[t.depth] = Frame{ticks(), 0};
    ++t.depth;
  }
  ~Span() {
    ThreadTally& t = t_tally;
    const std::uint64_t end = ticks();
    --t.depth;
    if (t.depth >= kMaxDepth) return;
    const Frame& frame = t.stack[t.depth];
    const std::uint64_t duration = end - frame.start;
    const int bucket = t.setup_depth > 0 ? 1 : 0;
    t.totals.self[bucket][layer_] += duration - frame.children;
    ++t.totals.calls[bucket][layer_];
    if (t.depth > 0) t.stack[t.depth - 1].children += duration;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
};

/// Leaves the bucket as it is.
struct MeasuredScope {};

/// Routes every span opened while it lives to the set-up bucket.
class SetupScope {
 public:
  SetupScope() noexcept { ++t_tally.setup_depth; }
  ~SetupScope() { --t_tally.setup_depth; }
  SetupScope(const SetupScope&) = delete;
  SetupScope& operator=(const SetupScope&) = delete;
};

struct WrappedSymbol {
  const char* name;
  bool present;
};

// Plain arrays, so they are still intact when the exit-time dump runs.
constexpr int kMaxSymbols = 64;
WrappedSymbol g_symbols[kMaxSymbols];
int g_symbol_count = 0;

bool register_symbol(const char* name, const void* real) {
  if (g_symbol_count < kMaxSymbols) {
    g_symbols[g_symbol_count++] = {name, real != nullptr};
  }
  return true;
}

/// Writes g_totals at exit, with the tick → nanosecond rate measured
/// over the process lifetime against steady_clock.
class Dumper {
 public:
  Dumper()
      : tick0_(ticks()), clock0_(std::chrono::steady_clock::now()) {}
  ~Dumper() {
    const char* path = std::getenv("HSBP_LAYER_TRACE");
    if (path == nullptr || *path == '\0') return;
    const std::uint64_t tick1 = ticks();
    const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                  std::chrono::steady_clock::now() - clock0_)
                                  .count();
    const double ns_per_tick =
        tick1 > tick0_ ? elapsed_ns / static_cast<double>(tick1 - tick0_)
                       : 1.0;
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) return;
    const std::lock_guard<std::mutex> lock(g_totals_mutex);
    std::fprintf(out, "{\"ns_per_tick\": %.9g, \"missing\": [", ns_per_tick);
    const char* sep = "";
    for (int i = 0; i < g_symbol_count; ++i) {
      const WrappedSymbol& symbol = g_symbols[i];
      if (symbol.present) continue;
      std::fprintf(out, "%s\"%s\"", sep, symbol.name);
      sep = ", ";
    }
    std::fprintf(out, "], \"buckets\": {");
    for (int b = 0; b < kBuckets; ++b) {
      std::fprintf(out, "%s\"%s\": {", b == 0 ? "" : ", ",
                   b == 0 ? "measured" : "setup");
      for (int l = 0; l < kLayers; ++l) {
        std::fprintf(out, "%s\"%s\": [%.0f, %llu]", l == 0 ? "" : ", ",
                     kLayerNames[l],
                     static_cast<double>(g_totals.self[b][l]) * ns_per_tick,
                     static_cast<unsigned long long>(g_totals.calls[b][l]));
      }
      std::fprintf(out, "}");
    }
    std::fprintf(out, "}}\n");
    std::fclose(out);
  }
  Dumper(const Dumper&) = delete;
  Dumper& operator=(const Dumper&) = delete;

 private:
  std::uint64_t tick0_;
  std::chrono::steady_clock::time_point clock0_;
};

// Constructed before main() runs, destroyed after it returns.
const Dumper g_dumper;

}  // namespace

using hsbp::blockmodel::BlockId;
using hsbp::blockmodel::Blockmodel;
using hsbp::graph::GraphView;

// One wrapper per line of the form
//   HSBP_TRACE_WRAP(<layer>, <mangled symbol>, <return type>, (<params>), (<args>))
// perfbench/CMakeLists.txt reads these lines to emit the --wrap options,
// so each invocation starts a line and names its symbol second.
// HSBP_TRACE_WRAP_SETUP also routes every span under the call to the
// set-up bucket.
#define HSBP_TRACE_WRAP_IMPL(scope, layer, symbol, ret, params, args)  \
  extern "C" __attribute__((weak)) ret __real_##symbol params;         \
  extern "C" ret __wrap_##symbol params {                              \
    [[maybe_unused]] const scope bucket_scope;                         \
    const Span span(layer);                                            \
    return __real_##symbol args;                                       \
  }                                                                    \
  [[maybe_unused]] const bool registered_##symbol =                    \
      register_symbol(#symbol, reinterpret_cast<const void*>(&__real_##symbol));
#define HSBP_TRACE_WRAP(...) HSBP_TRACE_WRAP_IMPL(MeasuredScope, __VA_ARGS__)
#define HSBP_TRACE_WRAP_SETUP(...) HSBP_TRACE_WRAP_IMPL(SetupScope, __VA_ARGS__)

// ---- graph: reading, CSR construction, mapping, result files
HSBP_TRACE_WRAP(kGraph, _ZN4hsbp5graph23read_matrix_market_fileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS0_14WeightHandlingE, hsbp::graph::Graph, (const std::string& path, hsbp::graph::WeightHandling weights), (path, weights))
HSBP_TRACE_WRAP(kGraph, _ZN4hsbp5graph19read_edge_list_fileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS0_14WeightHandlingE, hsbp::graph::Graph, (const std::string& path, hsbp::graph::WeightHandling weights), (path, weights))
HSBP_TRACE_WRAP(kGraph, _ZN4hsbp5graph5Graph10from_edgesEiSt4spanIKSt4pairIiiELm18446744073709551615EE, hsbp::graph::Graph, (hsbp::graph::Vertex n, std::span<const hsbp::graph::Edge> edges), (n, edges))
HSBP_TRACE_WRAP(kGraph, _ZN4hsbp5graph9MmapGraphC1ERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE, void, (void* self, const std::string& path), (self, path))
HSBP_TRACE_WRAP(kGraph, _ZN4hsbp4eval20save_assignment_fileESt4spanIKiLm18446744073709551615EERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE, void, (std::span<const std::int32_t> assignment, const std::string& path), (assignment, path))

// ---- search: the golden-section outer loop and its bookkeeping
HSBP_TRACE_WRAP(kSearch, _ZN4hsbp3sbp3runERKNS_5graph5GraphERKNS0_9SbpConfigE, hsbp::sbp::SbpResult, (const hsbp::graph::Graph& graph, const hsbp::sbp::SbpConfig& config), (graph, config))
HSBP_TRACE_WRAP(kSearch, _ZN4hsbp3sbp8run_warmERKNS_5graph5GraphERKNS0_9SbpConfigESt4spanIKiLm18446744073709551615EEi, hsbp::sbp::SbpResult, (const hsbp::graph::Graph& graph, const hsbp::sbp::SbpConfig& config, std::span<const std::int32_t> assignment, BlockId blocks), (graph, config, assignment, blocks))
HSBP_TRACE_WRAP(kSearch, _ZNK4hsbp3sbp12GoldenSearch10next_probeEv, hsbp::sbp::GoldenSearch::Probe, (const void* self), (self))
HSBP_TRACE_WRAP(kSearch, _ZN4hsbp3sbp12GoldenSearch6recordENS0_8SnapshotE, void, (void* self, hsbp::sbp::Snapshot snapshot), (self, std::move(snapshot)))

// ---- build: blockmodel construction
HSBP_TRACE_WRAP(kBuild, _ZN4hsbp10blockmodel10Blockmodel15from_assignmentERKNS_5graph9GraphViewESt4spanIKiLm18446744073709551615EEi, Blockmodel, (const GraphView& graph, std::span<const std::int32_t> assignment, BlockId blocks), (graph, assignment, blocks))
HSBP_TRACE_WRAP(kBuild, _ZN4hsbp10blockmodel10Blockmodel23from_assignment_chunkedERKNS_5graph9GraphViewESt4spanIKiLm18446744073709551615EEiiRKSt8functionIFvvEE, Blockmodel, (const GraphView& graph, std::span<const std::int32_t> assignment, BlockId blocks, hsbp::graph::Vertex chunk, const std::function<void()>& release), (graph, assignment, blocks, chunk, release))
HSBP_TRACE_WRAP(kBuild, _ZN4hsbp10blockmodel10Blockmodel8identityERKNS_5graph9GraphViewE, Blockmodel, (const GraphView& graph), (graph))

// ---- merge
HSBP_TRACE_WRAP(kMerge, _ZN4hsbp3sbp17block_merge_phaseERKNS_5graph9GraphViewERKNS_10blockmodel10BlockmodelEiiRNS_4util7RngPoolE, hsbp::sbp::MergeOutcome, (const GraphView& graph, const Blockmodel& b, BlockId target, int proposals, hsbp::util::RngPool& rngs), (graph, b, target, proposals, rngs))

// ---- pass: the MCMC phases (self time = gather, accept, loop)
HSBP_TRACE_WRAP(kPass, _ZN4hsbp3sbp25metropolis_hastings_phaseERKNS_5graph9GraphViewERNS_10blockmodel10BlockmodelERKNS0_12McmcSettingsERNS_4util7RngPoolE, hsbp::sbp::PhaseOutcome, (const GraphView& graph, Blockmodel& b, const hsbp::sbp::McmcSettings& settings, hsbp::util::RngPool& rngs), (graph, b, settings, rngs))
HSBP_TRACE_WRAP(kPass, _ZN4hsbp3sbp17async_gibbs_phaseERKNS_5graph9GraphViewERNS_10blockmodel10BlockmodelERKNS0_12McmcSettingsERNS_4util7RngPoolE, hsbp::sbp::PhaseOutcome, (const GraphView& graph, Blockmodel& b, const hsbp::sbp::McmcSettings& settings, hsbp::util::RngPool& rngs), (graph, b, settings, rngs))
HSBP_TRACE_WRAP(kPass, _ZN4hsbp3sbp12hybrid_phaseERKNS_5graph9GraphViewERNS_10blockmodel10BlockmodelERKNS0_12McmcSettingsERKNS1_11DegreeSplitERNS_4util7RngPoolE, hsbp::sbp::PhaseOutcome, (const GraphView& graph, Blockmodel& b, const hsbp::sbp::McmcSettings& settings, const hsbp::graph::DegreeSplit& split, hsbp::util::RngPool& rngs), (graph, b, settings, split, rngs))
HSBP_TRACE_WRAP(kPass, _ZN4hsbp3sbp19batched_gibbs_phaseERKNS_5graph9GraphViewERNS_10blockmodel10BlockmodelERKNS0_12McmcSettingsEiRNS_4util7RngPoolE, hsbp::sbp::PhaseOutcome, (const GraphView& graph, Blockmodel& b, const hsbp::sbp::McmcSettings& settings, int batches, hsbp::util::RngPool& rngs), (graph, b, settings, batches, rngs))

// ---- the per-vertex step: propose → ΔMDL → Hastings
HSBP_TRACE_WRAP(kPropose, _ZN4hsbp3sbp13propose_blockERKNS_10blockmodel10BlockmodelERKNS1_19NeighborBlockCountsEibRNS_4util3RngE, BlockId, (const Blockmodel& b, const hsbp::blockmodel::NeighborBlockCounts& nb, BlockId from, bool merge, hsbp::util::Rng& rng), (b, nb, from, merge, rng))
HSBP_TRACE_WRAP(kDeltaMdl, _ZN4hsbp10blockmodel22vertex_move_delta_intoERKNS0_10BlockmodelEiiRKNS0_19NeighborBlockCountsERNS0_11MoveScratchE, void, (const Blockmodel& b, BlockId from, BlockId to, const hsbp::blockmodel::NeighborBlockCounts& nb, hsbp::blockmodel::MoveScratch& scratch), (b, from, to, nb, scratch))
HSBP_TRACE_WRAP(kHastings, _ZN4hsbp3sbp19hastings_correctionERKNS_10blockmodel10BlockmodelEiiRNS1_11MoveScratchE, double, (const Blockmodel& b, BlockId from, BlockId to, hsbp::blockmodel::MoveScratch& scratch), (b, from, to, scratch))

// ---- apply / rebuild: the pass-end blockmodel update
HSBP_TRACE_WRAP(kApply, _ZN4hsbp10blockmodel10Blockmodel11move_vertexERKNS_5graph9GraphViewEii, void, (void* self, const GraphView& graph, hsbp::graph::Vertex v, BlockId to), (self, graph, v, to))
HSBP_TRACE_WRAP(kRebuild, _ZN4hsbp10blockmodel10Blockmodel7rebuildERKNS_5graph9GraphViewESt4spanIKiLm18446744073709551615EE, void, (void* self, const GraphView& graph, std::span<const std::int32_t> assignment), (self, graph, assignment))

// ---- sample: SamBaS sampling, induced subgraphs, piece partitioning
HSBP_TRACE_WRAP(kSample, _ZN4hsbp6sample12sample_graphERKNS_5graph9GraphViewENS0_11SamplerKindEdm, hsbp::sample::SampledGraph, (const GraphView& graph, hsbp::sample::SamplerKind kind, double fraction, std::uint64_t seed), (graph, kind, fraction, seed))
HSBP_TRACE_WRAP(kSample, _ZN4hsbp6sample16induced_subgraphERKNS_5graph9GraphViewESt6vectorIiSaIiEE, hsbp::sample::SampledGraph, (const GraphView& graph, std::vector<hsbp::graph::Vertex> members), (graph, std::move(members)))
HSBP_TRACE_WRAP(kSample, _ZN4hsbp4dist18partition_verticesERKNS_5graph9GraphViewEiNS0_17PartitionStrategyE, hsbp::dist::VertexPartition, (const GraphView& graph, int ranks, hsbp::dist::PartitionStrategy strategy), (graph, ranks, strategy))

// ---- ooc: the out-of-core driver
HSBP_TRACE_WRAP(kOoc, _ZN4hsbp3ooc3fitERKNS_5graph9GraphViewERKNS0_9OocConfigE, hsbp::ooc::OocResult, (const GraphView& graph, const hsbp::ooc::OocConfig& config), (graph, config))

// ---- warm_start: labels for new vertices and refined blocks before a
// warm refit (the daemon's streaming path)
HSBP_TRACE_WRAP(kWarmStart, _ZN4hsbp3sbp17extend_assignmentERKNS_5graph5GraphERKSt6vectorIiSaIiEERi, std::vector<std::int32_t>, (const hsbp::graph::Graph& graph, const std::vector<std::int32_t>& previous, BlockId& blocks), (graph, previous, blocks))
HSBP_TRACE_WRAP(kWarmStart, _ZN4hsbp3sbp17refine_assignmentESt4spanIKiLm18446744073709551615EERiim, std::vector<std::int32_t>, (std::span<const std::int32_t> assignment, BlockId& blocks, int factor, std::uint64_t seed), (assignment, blocks, factor, seed))

// ---- report: what the CLI computes only to print it
HSBP_TRACE_WRAP(kReport, _ZN4hsbp5graph27weakly_connected_componentsERKNS0_9GraphViewE, hsbp::graph::ComponentInfo, (const GraphView& graph), (graph))
HSBP_TRACE_WRAP(kReport, _ZN4hsbp7metrics10modularityERKNS_5graph9GraphViewESt4spanIKiLm18446744073709551615EE, double, (const GraphView& graph, std::span<const std::int32_t> assignment), (graph, assignment))

// The daemon's start-up fit is set-up, not a measured op.
HSBP_TRACE_WRAP_SETUP(kStartup, _ZN4hsbp5serve11fit_initialESt10shared_ptrIKNS_5graph5GraphEERKNS_3sbp9SbpConfigE, std::shared_ptr<const hsbp::serve::Snapshot>, (std::shared_ptr<const hsbp::graph::Graph> graph, const hsbp::sbp::SbpConfig& config), (std::move(graph), config))

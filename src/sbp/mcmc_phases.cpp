#include "sbp/mcmc_phases.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "blockmodel/mdl.hpp"
#include "sbp/async_pass.hpp"

namespace hsbp::sbp {

using blockmodel::Blockmodel;
using graph::GraphView;
using graph::Vertex;

void serial_sweep(const GraphView& graph, Blockmodel& b,
                  std::span<const Vertex> vertices, double beta,
                  util::Rng& rng, SweepTally& tally,
                  detail::PassWorkspace* mirror) {
  blockmodel::MoveScratch& scratch = blockmodel::thread_move_scratch();
  // move_vertex relabels in place (the assignment never reallocates), so
  // this view always reads fresh state.
  const blockmodel::FlatMembershipView view{b.assignment().data()};
  for (const Vertex v : vertices) {
    const blockmodel::BlockId from = b.block_of(v);
    const auto result = evaluate_vertex(graph, b, view, v, b.block_size(from),
                                        beta, rng, scratch);
    ++tally.proposals;
    if (!result.moved) continue;
    b.move_vertex(graph, v, result.to);
    if (mirror != nullptr) mirror->sync_move(v, from, result.to);
    ++tally.accepted;
  }
}

void run_passes(const GraphView& graph, const Blockmodel& b,
                const McmcSettings& settings, McmcPhaseStats& stats,
                const std::function<void()>& pass) {
  const auto exact_mdl = [&] {
    return blockmodel::mdl(b, graph.num_vertices(), graph.num_edges());
  };
  stats.final_mdl = stats.initial_mdl = exact_mdl();
  ConvergenceWindow window(settings.threshold);
  for (int i = 0; i < settings.max_iterations; ++i) {
    pass();
    const double new_mdl = exact_mdl();
    const double pass_delta = new_mdl - stats.final_mdl;
    stats.final_mdl = new_mdl;
    ++stats.iterations;
    if (window.record(pass_delta, stats.final_mdl)) break;
  }
}

namespace {

/// A phase as data (DESIGN §1): every pass sweeps `serial` in place
/// from stream 0, then `async` as `slices` asynchronous sweeps, each
/// followed by finish_pass(). `reshuffle` permutes `async` from stream 0
/// at the start of every pass, so no vertex keeps its staleness slot.
struct PassPlan {
  std::span<const Vertex> serial = {};
  std::span<const Vertex> async = {};
  int slices = 1;
  bool reshuffle = false;
};

std::vector<Vertex> all_vertices(const GraphView& graph) {
  std::vector<Vertex> all(static_cast<std::size_t>(graph.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

/// The pass loop behind every phase.
PhaseOutcome run_phase(const GraphView& graph, Blockmodel& b,
                       const McmcSettings& settings, PassPlan plan,
                       util::RngPool& rngs) {
  PhaseOutcome outcome;
  McmcPhaseStats& stats = outcome.stats;
  util::Rng& serial_rng = rngs.stream(0);
  std::vector<Vertex> order;
  if (plan.reshuffle) {
    order.assign(plan.async.begin(), plan.async.end());
    plan.async = order;
  }
  // One workspace for the whole phase: the serial sweep mirrors its
  // moves into it and finish_pass() re-synchronizes b with it, so it
  // stays equal to b without a per-pass copy-in.
  detail::PassWorkspace ws;
  detail::PassWorkspace* const mirror = plan.async.empty() ? nullptr : &ws;
  if (mirror != nullptr) ws.reset(b);
  const std::size_t count = plan.async.size();
  const auto slices = static_cast<std::size_t>(plan.slices);
  SweepTally serial;

  run_passes(graph, b, settings, stats, [&] {
    if (plan.reshuffle) serial_rng.shuffle(order);
    serial_sweep(graph, b, plan.serial, settings.beta, serial_rng, serial,
                 mirror);
    outcome.serial_updates += static_cast<std::int64_t>(plan.serial.size());
    for (std::size_t k = 0; k < slices; ++k) {
      const std::size_t begin = count * k / slices;
      const auto slice =
          plan.async.subspan(begin, count * (k + 1) / slices - begin);
      if (slice.empty()) continue;
      const auto counters =
          detail::async_pass(graph, b, ws, slice, settings.beta, rngs);
      stats.proposals += counters.proposals;
      stats.accepted += counters.accepted;
      outcome.parallel_updates += static_cast<std::int64_t>(slice.size());
      detail::finish_pass(graph, b, ws);
    }
  });
  stats.proposals += serial.proposals;
  stats.accepted += serial.accepted;
  return outcome;
}

}  // namespace

PhaseOutcome metropolis_hastings_phase(const GraphView& graph, Blockmodel& b,
                                       const McmcSettings& settings,
                                       util::RngPool& rngs) {
  return run_phase(graph, b, settings, {.serial = all_vertices(graph)}, rngs);
}

PhaseOutcome async_gibbs_phase(const GraphView& graph, Blockmodel& b,
                               const McmcSettings& settings,
                               util::RngPool& rngs) {
  return run_phase(graph, b, settings, {.async = all_vertices(graph)}, rngs);
}

PhaseOutcome hybrid_phase(const GraphView& graph, Blockmodel& b,
                          const McmcSettings& settings,
                          const graph::DegreeSplit& split,
                          util::RngPool& rngs) {
  return run_phase(graph, b, settings,
                   {.serial = split.high, .async = split.low}, rngs);
}

PhaseOutcome batched_gibbs_phase(const GraphView& graph, Blockmodel& b,
                                 const McmcSettings& settings,
                                 int batch_count, util::RngPool& rngs) {
  return run_phase(graph, b, settings,
                   {.async = all_vertices(graph),
                    .slices = std::max(1, batch_count),
                    .reshuffle = true},
                   rngs);
}

}  // namespace hsbp::sbp

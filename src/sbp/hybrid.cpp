#include "blockmodel/mdl.hpp"
#include "sbp/async_pass.hpp"
#include "sbp/mcmc_phases.hpp"

namespace hsbp::sbp {

using blockmodel::Blockmodel;
using graph::GraphView;
using graph::Vertex;

PhaseOutcome hybrid_phase(const GraphView& graph, Blockmodel& b,
                          const McmcSettings& settings,
                          const graph::DegreeSplit& split,
                          util::RngPool& rngs) {
  PhaseOutcome outcome;
  McmcPhaseStats& stats = outcome.stats;
  stats.initial_mdl =
      blockmodel::mdl(b, graph.num_vertices(), graph.num_edges());
  double current_mdl = stats.initial_mdl;
  ConvergenceWindow window(settings.threshold);
  util::Rng& serial_rng = rngs.stream(0);
  blockmodel::MoveScratch& scratch = blockmodel::thread_move_scratch();

  // One workspace for the whole phase; the serial sweep mirrors its
  // in-place moves into it (sync_move) so the shared memberships stay
  // equal to b without a per-pass copy-in.
  detail::PassWorkspace ws;
  ws.reset(b);

  for (int pass = 0; pass < settings.max_iterations; ++pass) {
    // Alg. 4, first half: the influential high-degree vertices get a
    // synchronous Metropolis-Hastings sweep with in-place updates, so
    // they "switch communities first" against fresh state. The flat
    // view reads the in-place-updated assignment directly (no
    // reallocation ever happens).
    const blockmodel::FlatMembershipView fresh_view{b.assignment().data()};
    for (const Vertex v : split.high) {
      const auto result =
          evaluate_vertex(graph, b, fresh_view, v,
                          b.block_size(b.block_of(v)), settings.beta,
                          serial_rng, scratch);
      ++stats.proposals;
      if (result.moved) {
        const auto from = b.block_of(v);
        b.move_vertex(graph, v, result.to);
        ws.sync_move(v, from, result.to);
        ++stats.accepted;
      }
    }
    outcome.serial_updates += static_cast<std::int64_t>(split.high.size());

    // Second half: the low-degree majority in one asynchronous pass
    // against the post-sweep blockmodel, applied as move deltas.
    const auto counters =
        detail::async_pass(graph, b, ws, split.low, settings.beta, rngs,
                           settings.schedule);
    stats.proposals += counters.proposals;
    stats.accepted += counters.accepted;
    outcome.parallel_updates += static_cast<std::int64_t>(split.low.size());

    detail::finish_pass(graph, b, ws, settings.rebuild_threshold);
    const double new_mdl =
        blockmodel::mdl(b, graph.num_vertices(), graph.num_edges());
    const double pass_delta = new_mdl - current_mdl;
    current_mdl = new_mdl;
    ++stats.iterations;
    if (window.record(pass_delta, current_mdl)) break;
  }

  stats.final_mdl = current_mdl;
  return outcome;
}

}  // namespace hsbp::sbp

#include "blockmodel/mdl.hpp"
#include "sbp/mcmc_phases.hpp"

namespace hsbp::sbp {

using blockmodel::Blockmodel;
using graph::GraphView;
using graph::Vertex;

PhaseOutcome metropolis_hastings_phase(const GraphView& graph, Blockmodel& b,
                                       const McmcSettings& settings,
                                       util::RngPool& rngs) {
  PhaseOutcome outcome;
  McmcPhaseStats& stats = outcome.stats;
  stats.initial_mdl = blockmodel::mdl(b, graph.num_vertices(),
                                      graph.num_edges());
  double current_mdl = stats.initial_mdl;
  ConvergenceWindow window(settings.threshold);
  util::Rng& rng = rngs.stream(0);  // serial chain: one deterministic stream
  blockmodel::MoveScratch& scratch = blockmodel::thread_move_scratch();

  // Flat view over the blockmodel's own assignment: move_vertex updates
  // labels in place (the vector never reallocates), so the base pointer
  // stays valid and reads are always fresh.
  const blockmodel::FlatMembershipView view{b.assignment().data()};

  for (int pass = 0; pass < settings.max_iterations; ++pass) {
    double pass_delta = 0.0;
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      const auto result =
          evaluate_vertex(graph, b, view, v, b.block_size(b.block_of(v)),
                          settings.beta, rng, scratch);
      ++stats.proposals;
      if (result.moved) {
        b.move_vertex(graph, v, result.to);
        pass_delta += result.delta_mdl;
        ++stats.accepted;
      }
    }
    ++stats.iterations;
    outcome.serial_updates += graph.num_vertices();
    current_mdl += pass_delta;
    if (window.record(pass_delta, current_mdl)) break;
  }

  // Report the exact value (the incremental sum is exact in theory but
  // accumulates floating-point error over thousands of moves).
  stats.final_mdl =
      blockmodel::mdl(b, graph.num_vertices(), graph.num_edges());
  return outcome;
}

}  // namespace hsbp::sbp

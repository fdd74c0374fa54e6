/// The pass loop against the phase loops it replaced.
///
/// SBP, A-SBP, H-SBP and B-SBP are plans over one pass loop
/// (sbp/mcmc_phases.cpp). Each plan must replay, bit for bit, the
/// separate phase loop it replaced (tests/reference_kernels.hpp): the
/// same moves from the same draws, the same convergence decisions, and
/// the same counters. Runs use one thread, where every variant is
/// deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <span>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "generator/dcsbm.hpp"
#include "graph/degree.hpp"
#include "reference_kernels.hpp"
#include "sbp/mcmc_phases.hpp"
#include "util/omp_region.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp {
namespace {

using blockmodel::Blockmodel;
using graph::Vertex;

/// The sparse, medium and dense KernelEquivalence graphs (C = 6).
struct Density {
  Vertex vertices;
  graph::EdgeCount edges;
};
constexpr Density kDensities[] = {{120, 360}, {120, 1800}, {120, 7200}};
constexpr std::int32_t kCommunities = 6;

/// B-SBP at K = 7 cuts the 120 vertices into uneven slices.
enum class Plan { Sbp, Asbp, Hsbp, Bsbp1, Bsbp4, Bsbp7 };

struct PhaseCase {
  Plan plan;
  int density;
};

/// Prints a case as its plan and density, e.g. "BSBP4_dense".
/// gtest_discover_tests names each CTest case after this text.
void PrintTo(const PhaseCase& c, std::ostream* os) {
  static const char* const kPlans[] = {"SBP",   "ASBP",  "HSBP",
                                       "BSBP1", "BSBP4", "BSBP7"};
  static const char* const kDensityNames[] = {"sparse", "medium", "dense"};
  *os << kPlans[static_cast<int>(c.plan)] << "_"
      << kDensityNames[c.density];
}

generator::GeneratedGraph make_graph(int density) {
  generator::DcsbmParams params;
  params.num_vertices = kDensities[density].vertices;
  params.num_communities = kCommunities;
  params.num_edges = kDensities[density].edges;
  params.seed = 21;
  return generator::generate_dcsbm(params);
}

/// The planted partition with 40% of its labels redrawn, so a phase has
/// work to do for several passes before it converges.
std::vector<std::int32_t> scrambled_start(const generator::GeneratedGraph& g) {
  std::vector<std::int32_t> state = g.ground_truth;
  util::Rng rng(5);
  for (auto& label : state) {
    if (rng.uniform() < 0.4) {
      label = static_cast<std::int32_t>(
          rng.uniform_int(static_cast<std::uint64_t>(kCommunities)));
    }
  }
  return state;
}

class PhaseEquivalence : public ::testing::TestWithParam<PhaseCase> {};

TEST_P(PhaseEquivalence, PlanReplaysItsReferenceLoop) {
  const util::ScopedThreads one_thread(1);
  const PhaseCase& param = GetParam();
  const auto g = make_graph(param.density);
  const auto start = scrambled_start(g);
  const graph::DegreeSplit split = graph::split_by_degree(g.graph, 0.15);

  McmcSettings settings;
  settings.max_iterations = 40;
  auto engine_b = Blockmodel::from_assignment(g.graph, start, kCommunities);
  auto reference_b =
      Blockmodel::from_assignment(g.graph, start, kCommunities);
  util::RngPool engine_rngs(99, 1);
  util::RngPool reference_rngs(99, 1);

  PhaseOutcome engine;
  PhaseOutcome ref;
  switch (param.plan) {
    case Plan::Sbp:
      engine = metropolis_hastings_phase(g.graph, engine_b, settings,
                                         engine_rngs);
      ref = reference::metropolis_hastings_phase(g.graph, reference_b,
                                                 settings, reference_rngs);
      break;
    case Plan::Asbp:
      engine = async_gibbs_phase(g.graph, engine_b, settings, engine_rngs);
      ref = reference::async_gibbs_phase(g.graph, reference_b, settings,
                                         reference_rngs);
      break;
    case Plan::Hsbp:
      engine = hybrid_phase(g.graph, engine_b, settings, split, engine_rngs);
      ref = reference::hybrid_phase(g.graph, reference_b, settings, split,
                                    reference_rngs);
      break;
    case Plan::Bsbp1:
    case Plan::Bsbp4:
    case Plan::Bsbp7: {
      const int batches = param.plan == Plan::Bsbp1   ? 1
                          : param.plan == Plan::Bsbp4 ? 4
                                                      : 7;
      engine = batched_gibbs_phase(g.graph, engine_b, settings, batches,
                                   engine_rngs);
      ref = reference::batched_gibbs_phase(g.graph, reference_b, settings,
                                           batches, reference_rngs);
      break;
    }
  }

  EXPECT_GT(ref.stats.accepted, 0);  // the chain actually moved
  EXPECT_EQ(engine_b.assignment(), reference_b.assignment());
  EXPECT_EQ(engine.stats.iterations, ref.stats.iterations);
  EXPECT_EQ(engine.stats.proposals, ref.stats.proposals);
  EXPECT_EQ(engine.stats.accepted, ref.stats.accepted);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(engine.stats.initial_mdl),
            std::bit_cast<std::uint64_t>(ref.stats.initial_mdl));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(engine.stats.final_mdl),
            std::bit_cast<std::uint64_t>(ref.stats.final_mdl));
  EXPECT_EQ(engine.serial_updates, ref.serial_updates);
  EXPECT_EQ(engine.parallel_updates, ref.parallel_updates);
  EXPECT_EQ(engine_rngs.export_states(), reference_rngs.export_states());
}

INSTANTIATE_TEST_SUITE_P(
    PlansByDensity, PhaseEquivalence,
    ::testing::ValuesIn([] {
      std::vector<PhaseCase> cases;
      for (const Plan plan : {Plan::Sbp, Plan::Asbp, Plan::Hsbp, Plan::Bsbp1,
                              Plan::Bsbp4, Plan::Bsbp7}) {
        for (int density = 0; density < 3; ++density) {
          cases.push_back({plan, density});
        }
      }
      return cases;
    }()),
    ::testing::PrintToStringParamName());

/// OOC stage 4 sweeps the vertex ids in chunks, one serial_sweep call
/// each: the chunks must add up to one sweep over the whole list — the
/// same moves from the same draws.
TEST(PhaseEquivalence, ChunkedSweepEqualsOneSweep) {
  const auto g = make_graph(1);
  const auto start = scrambled_start(g);
  std::vector<Vertex> ids(static_cast<std::size_t>(g.graph.num_vertices()));
  std::iota(ids.begin(), ids.end(), 0);
  util::Rng(17).shuffle(ids);  // any order: the sweep follows its list

  auto whole_b = Blockmodel::from_assignment(g.graph, start, kCommunities);
  auto chunked_b = Blockmodel::from_assignment(g.graph, start, kCommunities);
  util::Rng whole_rng(3);
  util::Rng chunked_rng(3);
  SweepTally whole;
  SweepTally chunked;
  for (int pass = 0; pass < 3; ++pass) {
    serial_sweep(g.graph, whole_b, ids, 3.0, whole_rng, whole);
    for (std::size_t begin = 0; begin < ids.size(); begin += 7) {
      const std::size_t size = std::min<std::size_t>(7, ids.size() - begin);
      serial_sweep(g.graph, chunked_b,
                   std::span<const Vertex>(ids).subspan(begin, size), 3.0,
                   chunked_rng, chunked);
    }
  }

  EXPECT_GT(whole.accepted, 0);
  EXPECT_EQ(chunked_b.assignment(), whole_b.assignment());
  EXPECT_EQ(chunked.proposals, whole.proposals);
  EXPECT_EQ(chunked.accepted, whole.accepted);
  EXPECT_EQ(chunked_rng.state(), whole_rng.state());
  EXPECT_TRUE(chunked_b.check_consistency(g.graph));
}

}  // namespace
}  // namespace hsbp::sbp

/// Seed determinism and whole-chain equivalence.
///
/// Two guarantees pin down the allocation-free rewrite:
///   1. A full sbp::run is a pure function of (graph, config) for every
///      variant — running it twice yields identical partitions, MDLs,
///      and proposal/acceptance counters.
///   2. A serial Metropolis-Hastings chain driven by the optimized
///      scratch-arena kernels accepts the exact same move sequence as
///      one driven by the pre-PR reference kernels, from the same seed.
///      Since acceptance thresholds are compared against the same RNG
///      draws, this holds only if ΔMDL and the Hastings correction are
///      bit-identical — making it an end-to-end equivalence check, not
///      a statistical one. The reference chain always computes the
///      correction, the optimized one rejects early on its bound
///      (DESIGN §10), so the cases also cover a planted start, where
///      most moves take that path, and A-SBP-style stale views, and
///      require both RNGs to end in the same state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/vertex_move_delta.hpp"
#include "generator/dcsbm.hpp"
#include "reference_kernels.hpp"
#include "sbp/mcmc_common.hpp"
#include "sbp/sbp.hpp"
#include "util/rng.hpp"

namespace hsbp::sbp {
namespace {

using graph::Graph;
using graph::Vertex;

generator::GeneratedGraph planted(std::uint64_t seed) {
  generator::DcsbmParams p;
  p.num_vertices = 300;
  p.num_communities = 5;
  p.num_edges = 2400;
  p.ratio_within_between = 4.0;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

class SeedDeterminism : public ::testing::TestWithParam<Variant> {};

TEST_P(SeedDeterminism, SameSeedSameResult) {
  const auto g = planted(23);
  SbpConfig config;
  config.variant = GetParam();
  config.seed = 77;
  config.num_threads = 1;  // fixed thread count: the determinism contract

  const auto first = run(g.graph, config);
  const auto second = run(g.graph, config);

  EXPECT_EQ(first.assignment, second.assignment);
  EXPECT_EQ(first.num_blocks, second.num_blocks);
  EXPECT_EQ(first.mdl, second.mdl);
  EXPECT_EQ(first.stats.proposals, second.stats.proposals);
  EXPECT_EQ(first.stats.accepted_moves, second.stats.accepted_moves);
  EXPECT_EQ(first.stats.outer_iterations, second.stats.outer_iterations);
}

INSTANTIATE_TEST_SUITE_P(Variants, SeedDeterminism,
                         ::testing::Values(Variant::Metropolis,
                                           Variant::AsyncGibbs,
                                           Variant::Hybrid,
                                           Variant::BatchedGibbs));

/// One whole-chain equivalence case. `planted_start` starts at the
/// planted partition, where most moves are rejected on the Hastings
/// bound alone (early rejection, DESIGN §10); otherwise the start is a
/// random 12-block over-clustering. `stale` evaluates like an A-SBP
/// pass: views read labels updated at every accepted move, and the
/// blockmodels catch up with them only at pass end.
struct ChainCase {
  std::uint64_t seed;
  bool planted_start;
  bool stale;
};

/// Prints a case as its seed and modes, e.g. "46_planted_stale".
/// gtest_discover_tests names each CTest case after this text.
void PrintTo(const ChainCase& c, std::ostream* os) {
  *os << c.seed << (c.planted_start ? "_planted" : "")
      << (c.stale ? "_stale" : "");
}

/// One chain's state: the blockmodel, the labels its views read, the
/// block sizes its moves are guarded with, and its RNG.
struct ChainState {
  blockmodel::Blockmodel b;
  std::vector<std::int32_t> labels;
  std::vector<std::int32_t> sizes;
  util::Rng rng{99};
};

class ChainEquivalence : public ::testing::TestWithParam<ChainCase> {};

TEST_P(ChainEquivalence, OptimizedChainMatchesReferenceChain) {
  const ChainCase& param = GetParam();
  const auto g = planted(param.seed);

  std::vector<std::int32_t> start;
  std::int32_t num_blocks = 12;
  if (param.planted_start) {
    start = g.ground_truth;
    num_blocks = 5;
  } else {
    // Random over-clustered start so both chains do real merging work.
    util::Rng init_rng(param.seed + 5);
    start.resize(static_cast<std::size_t>(g.graph.num_vertices()));
    for (auto& label : start) {
      label = static_cast<std::int32_t>(
          init_rng.uniform_int(static_cast<std::uint64_t>(num_blocks)));
    }
  }

  const auto make_chain = [&] {
    ChainState chain;
    chain.b = blockmodel::Blockmodel::from_assignment(g.graph, start,
                                                      num_blocks);
    chain.labels = start;
    for (blockmodel::BlockId r = 0; r < num_blocks; ++r) {
      chain.sizes.push_back(chain.b.block_size(r));
    }
    return chain;
  };
  ChainState opt = make_chain();
  ChainState ref = make_chain();
  const auto accept = [&](ChainState& chain, Vertex v, blockmodel::BlockId to) {
    auto& label = chain.labels[static_cast<std::size_t>(v)];
    --chain.sizes[static_cast<std::size_t>(label)];
    ++chain.sizes[static_cast<std::size_t>(to)];
    label = to;
    if (!param.stale) chain.b.move_vertex(g.graph, v, to);
  };

  const double beta = 3.0;
  blockmodel::MoveScratch& scratch = blockmodel::thread_move_scratch();
  blockmodel::MoveScratch probe_scratch;

  std::int64_t moves = 0;
  std::int64_t evaluations = 0;     // proposals that reached ΔMDL
  std::int64_t early_rejected = 0;  // of those, rejected on the bound
  for (int pass = 0; pass < 3; ++pass) {
    for (Vertex v = 0; v < g.graph.num_vertices(); ++v) {
      const auto view_opt = [&opt](Vertex u) {
        return opt.labels[static_cast<std::size_t>(u)];
      };
      const auto view_ref = [&ref](Vertex u) {
        return ref.labels[static_cast<std::size_t>(u)];
      };
      const blockmodel::BlockId from = view_opt(v);
      const std::int32_t size = opt.sizes[static_cast<std::size_t>(from)];

      // Replay the optimized step's draws on a copy of its RNG to count
      // how often the bound alone rejects.
      if (size > 1) {
        util::Rng probe = opt.rng;
        blockmodel::gather_neighbor_blocks_into(
            g.graph, view_opt, v, opt.b.num_blocks(), probe_scratch);
        const auto to =
            propose_block(opt.b, probe_scratch.nb, from, false, probe);
        if (to != from) {
          ++evaluations;
          blockmodel::vertex_move_delta_into(opt.b, from, to,
                                             probe_scratch.nb, probe_scratch);
          const double bound =
              std::exp(-beta * probe_scratch.delta_mdl) *
              hastings_bound(opt.b, g.graph.num_edges(), from,
                             probe_scratch.nb.degree_total());
          if (bound < 1.0 && probe.uniform() >= bound) ++early_rejected;
        }
      }

      const auto out = evaluate_vertex(g.graph, opt.b, view_opt, v, size,
                                       beta, opt.rng, scratch);
      const auto ref_out = reference::evaluate_vertex(
          g.graph, ref.b, view_ref, v,
          ref.sizes[static_cast<std::size_t>(view_ref(v))], beta, ref.rng);

      ASSERT_EQ(out.moved, ref_out.moved) << "pass=" << pass << " v=" << v;
      if (out.moved) {
        ASSERT_EQ(out.to, ref_out.to) << "pass=" << pass << " v=" << v;
        ASSERT_EQ(out.delta_mdl, ref_out.delta_mdl) << "pass=" << pass
                                                    << " v=" << v;
        accept(opt, v, out.to);
        accept(ref, v, ref_out.to);
        ++moves;
      }
    }
    if (param.stale) {
      opt.b = blockmodel::Blockmodel::from_assignment(g.graph, opt.labels,
                                                      num_blocks);
      ref.b = blockmodel::Blockmodel::from_assignment(g.graph, ref.labels,
                                                      num_blocks);
    }
  }

  EXPECT_GT(moves, 0);  // the chains actually did something
  EXPECT_EQ(opt.b.assignment(), ref.b.assignment());
  EXPECT_EQ(opt.rng.state(), ref.rng.state());  // same draws, same count
  EXPECT_GT(early_rejected, 0);  // the early path decided some moves
  if (param.planted_start) EXPECT_GT(2 * early_rejected, evaluations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainEquivalence,
                         ::testing::Values(ChainCase{41, false, false},
                                           ChainCase{42, false, false},
                                           ChainCase{43, false, false},
                                           ChainCase{44, true, false},
                                           ChainCase{45, false, true},
                                           ChainCase{46, true, true}));

}  // namespace
}  // namespace hsbp::sbp

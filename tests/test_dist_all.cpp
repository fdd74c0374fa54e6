#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "dist/comm.hpp"
#include "dist/dist_sbp.hpp"
#include "dist/partition.hpp"
#include "generator/dcsbm.hpp"
#include "metrics/metrics.hpp"
#include "reference_kernels.hpp"
#include "util/omp_region.hpp"

namespace hsbp::dist {
namespace {

using graph::Edge;
using graph::Graph;
using graph::Vertex;

generator::GeneratedGraph planted(std::uint64_t seed) {
  generator::DcsbmParams p;
  p.num_vertices = 300;
  p.num_communities = 6;
  p.num_edges = 3000;
  p.ratio_within_between = 5.0;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

/// Two runs are the same chain: same partition, MDL bits, counters,
/// collectives in order, and per-rank moves.
void expect_same_run(const DistributedResult& got,
                     const DistributedResult& want) {
  EXPECT_EQ(got.result.assignment, want.result.assignment);
  EXPECT_EQ(got.result.num_blocks, want.result.num_blocks);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.result.mdl),
            std::bit_cast<std::uint64_t>(want.result.mdl));
  const sbp::SbpStats& g = got.result.stats;
  const sbp::SbpStats& w = want.result.stats;
  EXPECT_EQ(g.outer_iterations, w.outer_iterations);
  EXPECT_EQ(g.mcmc_iterations, w.mcmc_iterations);
  EXPECT_EQ(g.proposals, w.proposals);
  EXPECT_EQ(g.accepted_moves, w.accepted_moves);
  EXPECT_EQ(g.parallel_updates, w.parallel_updates);
  EXPECT_EQ(g.serial_updates, w.serial_updates);
  const auto& got_records = got.comm.records();
  const auto& want_records = want.comm.records();
  ASSERT_EQ(got_records.size(), want_records.size());
  for (std::size_t i = 0; i < got_records.size(); ++i) {
    EXPECT_EQ(got_records[i].kind, want_records[i].kind) << "record " << i;
    EXPECT_EQ(got_records[i].bytes, want_records[i].bytes) << "record " << i;
    EXPECT_EQ(got_records[i].ranks, want_records[i].ranks) << "record " << i;
  }
  EXPECT_EQ(got.rank_accepted, want.rank_accepted);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.partition_imbalance),
            std::bit_cast<std::uint64_t>(want.partition_imbalance));
}

// ---------------------------------------------------------------- comm

TEST(CommLedger, AccumulatesBytesByKind) {
  CommLedger ledger;
  EXPECT_EQ(ledger.total_bytes(), 0);
  ledger.record(CollectiveKind::AllGatherUpdates, 100, 4);
  ledger.record(CollectiveKind::AllGatherUpdates, 50, 4);
  ledger.record(CollectiveKind::RebuildAllReduce, 200, 4);
  EXPECT_EQ(ledger.total_bytes(), 350);
  EXPECT_EQ(ledger.bytes_of(CollectiveKind::AllGatherUpdates), 150);
  EXPECT_EQ(ledger.bytes_of(CollectiveKind::RebuildAllReduce), 200);
  EXPECT_EQ(ledger.bytes_of(CollectiveKind::AssignmentBcast), 0);
  EXPECT_EQ(ledger.collective_count(), 3u);
}

TEST(CommLedger, CollectiveNames) {
  EXPECT_STREQ(collective_name(CollectiveKind::AllGatherUpdates),
               "allgather-updates");
  EXPECT_STREQ(collective_name(CollectiveKind::RebuildAllReduce),
               "rebuild-allreduce");
  EXPECT_STREQ(collective_name(CollectiveKind::AssignmentBcast),
               "assignment-bcast");
}

// ----------------------------------------------------------- partition

class StrategySweep : public ::testing::TestWithParam<PartitionStrategy> {};

TEST_P(StrategySweep, EveryVertexAssignedToExactlyOneRank) {
  const auto g = planted(1);
  const auto partition = partition_vertices(g.graph, 4, GetParam());
  EXPECT_EQ(partition.ranks, 4);
  std::size_t members_total = 0;
  for (int rank = 0; rank < 4; ++rank) {
    for (const Vertex v : partition.members[static_cast<std::size_t>(rank)]) {
      EXPECT_EQ(partition.rank_of[static_cast<std::size_t>(v)], rank);
    }
    members_total += partition.members[static_cast<std::size_t>(rank)].size();
  }
  EXPECT_EQ(members_total, static_cast<std::size_t>(g.graph.num_vertices()));
}

TEST_P(StrategySweep, DegreeLoadsSumToTotalDegree) {
  const auto g = planted(2);
  const auto partition = partition_vertices(g.graph, 3, GetParam());
  graph::EdgeCount total = 0;
  for (const auto load : partition.degree_load) total += load;
  EXPECT_EQ(total, 2 * g.graph.num_edges());
}

TEST_P(StrategySweep, SingleRankTakesEverything) {
  const auto g = planted(3);
  const auto partition = partition_vertices(g.graph, 1, GetParam());
  EXPECT_EQ(partition.members[0].size(),
            static_cast<std::size_t>(g.graph.num_vertices()));
  EXPECT_DOUBLE_EQ(partition.imbalance(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategySweep,
                         ::testing::Values(PartitionStrategy::Range,
                                           PartitionStrategy::RoundRobin,
                                           PartitionStrategy::DegreeBalanced));

TEST(Partition, DegreeBalancedBeatsRangeOnSkewedGraph) {
  // A hub-heavy graph sorted by id: range partitioning piles the load
  // onto rank 0; LPT spreads it.
  std::vector<Edge> edges;
  for (Vertex hub = 0; hub < 4; ++hub) {
    for (Vertex leaf = 4; leaf < 64; ++leaf) {
      edges.emplace_back(hub, leaf);
    }
  }
  const Graph g = Graph::from_edges(64, edges);
  const auto range = partition_vertices(g, 4, PartitionStrategy::Range);
  const auto balanced =
      partition_vertices(g, 4, PartitionStrategy::DegreeBalanced);
  EXPECT_LT(balanced.imbalance(), range.imbalance());
  EXPECT_NEAR(balanced.imbalance(), 1.0, 0.1);
}

TEST(Partition, RejectsZeroRanks) {
  const auto g = planted(4);
  EXPECT_THROW(partition_vertices(g.graph, 0, PartitionStrategy::Range),
               std::invalid_argument);
}

TEST(Partition, StrategyNames) {
  EXPECT_STREQ(strategy_name(PartitionStrategy::Range), "range");
  EXPECT_STREQ(strategy_name(PartitionStrategy::RoundRobin), "roundrobin");
  EXPECT_STREQ(strategy_name(PartitionStrategy::DegreeBalanced), "balanced");
  for (const PartitionStrategy strategy :
       {PartitionStrategy::Range, PartitionStrategy::RoundRobin,
        PartitionStrategy::DegreeBalanced}) {
    EXPECT_EQ(parse_strategy(strategy_name(strategy)), strategy);
  }
  EXPECT_THROW(parse_strategy("round-robin"), std::invalid_argument);
}

// --------------------------------------------------------------- D-SBP

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, RecoversPlantedPartition) {
  const auto g = planted(5);
  DistributedConfig config;
  config.ranks = GetParam();
  config.base.seed = 3;
  const auto out = run_distributed(g.graph, config);
  EXPECT_GT(metrics::nmi(g.ground_truth, out.result.assignment), 0.8)
      << "ranks=" << GetParam();
  // Every rank did some work (degree-balanced partition).
  std::int64_t total_accepted = 0;
  for (const auto a : out.rank_accepted) total_accepted += a;
  EXPECT_EQ(total_accepted, out.result.stats.accepted_moves);
  EXPECT_GT(out.comm.total_bytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep, ::testing::Values(1, 2, 4, 8));

TEST(Distributed, CommunicationLedgerIsPlausible) {
  const auto g = planted(6);
  DistributedConfig config;
  config.ranks = 4;
  config.base.seed = 4;
  const auto out = run_distributed(g.graph, config);
  // Every pass logs one allgather + one rebuild; every outer iteration
  // one broadcast.
  const auto& stats = out.result.stats;
  std::int64_t allgathers = 0, rebuilds = 0, bcasts = 0;
  for (const auto& record : out.comm.records()) {
    switch (record.kind) {
      case CollectiveKind::AllGatherUpdates: ++allgathers; break;
      case CollectiveKind::RebuildAllReduce: ++rebuilds; break;
      case CollectiveKind::AssignmentBcast: ++bcasts; break;
    }
  }
  EXPECT_EQ(allgathers, stats.mcmc_iterations);
  EXPECT_EQ(rebuilds, stats.mcmc_iterations);
  EXPECT_EQ(bcasts, stats.outer_iterations);
  // Update volume = accepted moves × 8 bytes.
  EXPECT_EQ(out.comm.bytes_of(CollectiveKind::AllGatherUpdates),
            stats.accepted_moves * kUpdateBytes);
}

TEST(Distributed, SingleRankMatchesQualityOfAsbp) {
  const auto g = planted(7);
  DistributedConfig config;
  config.ranks = 1;
  config.base.seed = 5;
  const auto dist_out = run_distributed(g.graph, config);

  sbp::SbpConfig async_config;
  async_config.variant = sbp::Variant::AsyncGibbs;
  async_config.seed = 5;
  const auto async_out = sbp::run(g.graph, async_config);

  const double dist_nmi =
      metrics::nmi(g.ground_truth, dist_out.result.assignment);
  const double async_nmi =
      metrics::nmi(g.ground_truth, async_out.assignment);
  EXPECT_NEAR(dist_nmi, async_nmi, 0.15);
}

TEST(Distributed, Validation) {
  const auto g = planted(8);
  DistributedConfig config;
  config.ranks = 0;
  EXPECT_THROW(run_distributed(g.graph, config), std::invalid_argument);
  const Graph empty;
  config.ranks = 2;
  EXPECT_THROW(run_distributed(empty, config), std::invalid_argument);
  // sbp::run's config checks apply too.
  config.base.beta = 0.0;
  EXPECT_THROW(run_distributed(g.graph, config), std::invalid_argument);
}

/// `base.num_threads` sets the thread count as it does for sbp::run: a
/// run pinned to one thread under a 3-thread default is the run made
/// at one thread.
TEST(Distributed, NumThreadsIsHonoured) {
  const auto g = planted(11);
  DistributedConfig config;
  config.ranks = 4;
  config.base.seed = 7;
  DistributedResult at_one;
  {
    const util::ScopedThreads one(1);
    at_one = run_distributed(g.graph, config);
  }
  const util::ScopedThreads three(3);
  config.base.num_threads = 1;
  expect_same_run(run_distributed(g.graph, config), at_one);
}

// ------------------------------------------------ equivalence to the old
// driver

class DistEquivalence
    : public ::testing::TestWithParam<std::tuple<int, PartitionStrategy>> {};

/// run_distributed on sbp::run's outer loop replays the driver it
/// replaced (reference::run_distributed) exactly, at one thread and at
/// four: D-SBP is deterministic at a fixed thread count.
TEST_P(DistEquivalence, RunMatchesReferenceDriver) {
  const auto [ranks, strategy] = GetParam();
  const auto g = planted(12);
  DistributedConfig config;
  config.ranks = ranks;
  config.strategy = strategy;
  config.base.seed = 13;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const util::ScopedThreads scoped(threads);
    const auto want = reference::run_distributed(g.graph, config);
    ASSERT_GT(want.result.stats.accepted_moves, 0);
    expect_same_run(run_distributed(g.graph, config), want);
  }
}

std::string equivalence_case_name(
    const ::testing::TestParamInfo<DistEquivalence::ParamType>& info) {
  const auto [ranks, strategy] = info.param;
  const char* name = strategy == PartitionStrategy::Range ? "Range"
                     : strategy == PartitionStrategy::RoundRobin
                         ? "RoundRobin"
                         : "DegreeBalanced";
  return std::to_string(ranks) + "ranks_" + name;
}

INSTANTIATE_TEST_SUITE_P(
    RanksByStrategy, DistEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(PartitionStrategy::Range,
                                         PartitionStrategy::RoundRobin,
                                         PartitionStrategy::DegreeBalanced)),
    equivalence_case_name);

TEST(Distributed, ResultIsADensePartition) {
  const auto g = planted(9);
  DistributedConfig config;
  config.ranks = 4;
  config.base.seed = 6;
  const auto out = run_distributed(g.graph, config);
  std::set<std::int32_t> labels(out.result.assignment.begin(),
                                out.result.assignment.end());
  EXPECT_EQ(static_cast<blockmodel::BlockId>(labels.size()),
            out.result.num_blocks);
  EXPECT_EQ(*labels.begin(), 0);
}

}  // namespace
}  // namespace hsbp::dist

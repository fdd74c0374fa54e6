// Snapshot isolation of the serving daemon's GraphStore/Registry: a
// reader always observes one fully constructed snapshot, publishes are
// atomic swaps, and superseded snapshots stay alive while referenced.
// The concurrent-hammer tests here are the ones the TSan stage
// exercises for torn reads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "generator/dcsbm.hpp"
#include "metrics/metrics.hpp"
#include "serve/registry.hpp"

namespace hsbp::serve {
namespace {

std::shared_ptr<const graph::Graph> tiny_graph() {
  generator::DcsbmParams params;
  params.num_vertices = 40;
  params.num_communities = 4;
  params.num_edges = 200;
  params.seed = 7;
  auto generated = generator::generate_dcsbm(params);
  return std::make_shared<const graph::Graph>(std::move(generated.graph));
}

/// A labeled snapshot whose assignment is all `label % blocks`.
std::shared_ptr<const Snapshot> labeled_snapshot(
    std::shared_ptr<const graph::Graph> graph, std::int32_t label,
    std::uint64_t epoch) {
  const auto n = static_cast<std::size_t>(graph->num_vertices());
  std::vector<std::int32_t> assignment(n);
  for (std::size_t v = 0; v < n; ++v) {
    assignment[v] = (static_cast<std::int32_t>(v) + label) % 4;
  }
  return make_snapshot(std::move(graph), std::move(assignment), 4,
                       100.0 + label, epoch);
}

TEST(ServeSnapshot, MakeSnapshotComputesDerivedFigures) {
  const auto graph = tiny_graph();
  std::vector<std::int32_t> assignment(
      static_cast<std::size_t>(graph->num_vertices()));
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    assignment[v] = static_cast<std::int32_t>(v % 3);
  }
  const auto snapshot = make_snapshot(graph, assignment, 3, 123.5, 9);
  EXPECT_EQ(snapshot->graph.get(), graph.get());
  EXPECT_EQ(snapshot->assignment, assignment);
  EXPECT_EQ(snapshot->num_blocks, 3);
  EXPECT_DOUBLE_EQ(snapshot->mdl, 123.5);
  EXPECT_EQ(snapshot->epoch, 9u);
  // Modularity is computed once at construction, not per query.
  EXPECT_DOUBLE_EQ(snapshot->modularity,
                   metrics::modularity(*graph, assignment));
}

TEST(ServeGraphStore, PublishSwapsAndHoldersKeepTheOldSnapshot) {
  const auto graph = tiny_graph();
  GraphStore store("g");
  store.publish(labeled_snapshot(graph, 0, 1));

  const auto held = store.acquire();
  EXPECT_EQ(held->epoch, 1u);

  store.publish(labeled_snapshot(graph, 1, 2));
  // The holder's view is immutable; a fresh acquire sees the successor.
  EXPECT_EQ(held->epoch, 1u);
  EXPECT_EQ(held->assignment[0], 0);
  const auto fresh = store.acquire();
  EXPECT_EQ(fresh->epoch, 2u);
  EXPECT_EQ(fresh->assignment[0], 1);
}

TEST(ServeGraphStore, SupersededSnapshotDiesWithItsLastReader) {
  const auto graph = tiny_graph();
  GraphStore store("g");
  store.publish(labeled_snapshot(graph, 0, 1));
  std::weak_ptr<const Snapshot> watch;
  {
    const auto held = store.acquire();
    watch = held;
    store.publish(labeled_snapshot(graph, 1, 2));
    EXPECT_FALSE(watch.expired());  // reader still holds it
  }
  EXPECT_TRUE(watch.expired());  // last reference dropped
}

TEST(ServeGraphStore, EnqueueDrainAndCounters) {
  GraphStore store("g");
  EXPECT_EQ(store.pending_batches(), 0u);
  EXPECT_EQ(store.try_enqueue({{0, 1}, {1, 2}}, 2), 1u);
  EXPECT_EQ(store.try_enqueue({{2, 3}}, 2), 2u);
  EXPECT_EQ(store.try_enqueue({{3, 4}}, 2), std::nullopt);  // at the bound
  EXPECT_EQ(store.pending_batches(), 2u);

  const auto drained = store.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].size(), 2u);
  EXPECT_EQ(drained[1].size(), 1u);
  EXPECT_EQ(store.pending_batches(), 0u);
  EXPECT_TRUE(store.drain().empty());
}

TEST(ServeRegistry, AddFindNamesAndDuplicates) {
  Registry registry;
  GraphStore& a = registry.add("alpha");
  registry.add("beta");
  EXPECT_EQ(registry.find("alpha"), &a);
  EXPECT_EQ(registry.find("gamma"), nullptr);
  EXPECT_EQ(registry.names(),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(registry.stores().size(), 2u);
  EXPECT_THROW(registry.add("alpha"), std::invalid_argument);
}

// The isolation contract under concurrency: readers hammer acquire()
// while a writer publishes successors. Every snapshot a reader sees
// must be internally consistent (label matches mdl matches epoch) —
// a torn read would break the correspondence. Run under TSan via the
// `serve` label.
TEST(ServeGraphStore, ConcurrentReadersNeverSeeATornSnapshot) {
  const auto graph = tiny_graph();
  GraphStore store("g");
  store.publish(labeled_snapshot(graph, 0, 1));

  constexpr int kPublishes = 200;
  std::atomic<bool> running{true};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (running.load(std::memory_order_relaxed)) {
        const auto s = store.acquire();
        // Internal consistency: every field derives from one label.
        const auto label = static_cast<std::int32_t>(s->epoch - 1);
        if (s->assignment[0] != label % 4 ||
            s->mdl != 100.0 + static_cast<double>(label)) {
          violations.fetch_add(1);
        }
        // Publishes are ordered: epochs never run backwards.
        if (s->epoch < last_epoch) violations.fetch_add(1);
        last_epoch = s->epoch;
      }
    });
  }

  for (int p = 1; p <= kPublishes; ++p) {
    store.publish(labeled_snapshot(graph, p,
                                   static_cast<std::uint64_t>(p) + 1));
  }
  running.store(false);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace hsbp::serve

/// \file ext_serving.cpp
/// \brief Extension experiment: concurrent query load against `hsbpd`
/// while a streaming re-fit storm runs.
///
/// The scenario the serve subsystem exists for: N client threads issue
/// membership/modularity/epoch queries non-stop while the main thread
/// INGESTs edge batches and the daemon's background scheduler re-fits
/// and republishes. Snapshot isolation means query latency should not
/// collapse during a refit — this bench measures exactly that: query
/// throughput, p50/p99 latency, and refit wall time, emitted as one
/// JSON object on stdout.
///
/// Modes:
///   (default)        in-process daemon on a private Unix socket
///   --socket PATH    target an externally started `hsbp serve` daemon
///                    (pair with --graph NAME; used by the tier-1 smoke
///                    stage); --shutdown sends SHUTDOWN when done
///   HSBP_BENCH_SMOKE=1  shrink the workload to seconds — CI smoke mode
///
/// Overload scenario (--overload N, default 2 in smoke mode, else 0):
/// the bench assumes the daemon's connection cap is clients + 1 (the
/// storm's clients plus the control connection fill it exactly — the
/// in-process daemon is configured that way automatically; an external
/// one must be started with `--max-sessions <clients+1>`). While the
/// storm holds every slot, N excess probe connections must each be
/// shed with `ERR busy retry-after <ms>`, and one retrying client
/// (Client::request_retry) must ride out the busy period and succeed
/// once the storm releases its slots — busy/retry covered
/// deterministically, no timing luck involved. The daemon's HEALTH
/// counters (shed/timeouts/active_sessions/queue_depth) land in the
/// JSON output.
///
/// Flags: --clients N (>= 4 enforced), --batches B, --seed S,
/// --threads T, --graph NAME, --overload N, --shutdown; any other flag
/// exits 64 before any work.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "generator/dcsbm.hpp"
#include "graph/graph.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct ClientStats {
  std::vector<double> latencies_us;
  std::uint64_t queries = 0;
  std::uint64_t errors = 0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

/// One query thread: cycles through the read verbs until told to stop,
/// timing each request round-trip.
void query_loop(const std::string& socket_path, const std::string& graph,
                std::int32_t num_vertices, const std::atomic<bool>& running,
                ClientStats& stats) {
  hsbp::serve::Client client =
      hsbp::serve::Client::connect_unix(socket_path);
  const std::string verbs[4] = {
      "MEMBER " + graph + " ",  // + vertex id appended per request
      "MODULARITY " + graph,
      "EPOCH " + graph,
      "INFO " + graph,
  };
  std::uint64_t i = 0;
  while (running.load(std::memory_order_relaxed)) {
    std::string payload = verbs[i % 4];
    if (i % 4 == 0) {
      payload += std::to_string(static_cast<std::int32_t>(
          i % static_cast<std::uint64_t>(num_vertices)));
    }
    const auto t0 = Clock::now();
    const auto reply = client.request(payload);
    const auto t1 = Clock::now();
    if (!reply.has_value()) break;  // daemon hung up — stop counting
    stats.latencies_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    ++stats.queries;
    if (!hsbp::serve::is_ok(*reply)) ++stats.errors;
    ++i;
  }
}

/// Polls `payload` until the named `field=` token reaches `target` (or
/// the deadline passes). Returns the last value observed.
std::uint64_t await_field(hsbp::serve::Client& client,
                          const std::string& payload,
                          const std::string& field, std::uint64_t target,
                          double timeout_seconds) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  const std::string key = field + "=";
  std::uint64_t last = 0;
  while (Clock::now() < deadline) {
    const auto reply = client.request(payload);
    if (!reply.has_value()) break;
    const auto pos = reply->find(key);
    if (pos != std::string::npos) {
      last = std::strtoull(reply->c_str() + pos + key.size(), nullptr, 10);
      if (last >= target) return last;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return last;
}

/// Reply shape: "OK vertices=... edges=... blocks=... epoch=... mdl=...".
std::uint64_t await_info_field(hsbp::serve::Client& client,
                               const std::string& graph,
                               const std::string& field,
                               std::uint64_t target,
                               double timeout_seconds) {
  return await_field(client, "INFO " + graph, field, target,
                     timeout_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr std::string_view kFlags[] = {
      "clients", "batches", "overload", "seed",
      "graph",   "socket",  "shutdown", "threads"};
  const hsbp::util::Args args(argc, argv);
  hsbp::bench::reject_unknown_flags(args, {kFlags});
  const bool smoke = []() {
    const char* env = std::getenv("HSBP_BENCH_SMOKE");
    return env != nullptr && std::string(env) == "1";
  }();

  const int clients =
      std::max(4, static_cast<int>(args.get_int("clients", 4)));
  const int batches =
      static_cast<int>(args.get_int("batches", smoke ? 2 : 4));
  const int overload =
      static_cast<int>(args.get_int("overload", smoke ? 2 : 0));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  std::string graph_name = args.get_string("graph", "bench");
  std::string socket_path = args.get_string("socket", "");
  const bool external = !socket_path.empty();
  const bool send_shutdown = args.get_bool("shutdown", false);

  // Workload: a DCSBM graph with the tail of its edge list held back as
  // the ingest stream; each batch also attaches one brand-new vertex so
  // refits exercise extend_assignment, not just edge updates.
  hsbp::generator::DcsbmParams params;
  params.num_vertices = smoke ? 300 : 1500;
  params.num_communities = smoke ? 6 : 12;
  params.num_edges = smoke ? 2400 : 15000;
  params.ratio_within_between = 4.0;
  params.seed = seed;
  const auto generated = hsbp::generator::generate_dcsbm(params);

  std::vector<hsbp::graph::Edge> edges = generated.graph.edges();
  const std::size_t held_back =
      std::min(edges.size() / 5,
               static_cast<std::size_t>(batches) * (smoke ? 40u : 400u));
  const std::size_t base_count = edges.size() - held_back;
  const auto base_graph = hsbp::graph::Graph::from_edges(
      generated.graph.num_vertices(),
      std::span<const hsbp::graph::Edge>(edges.data(), base_count));

  std::vector<std::vector<hsbp::graph::Edge>> batch_edges(
      static_cast<std::size_t>(batches));
  for (std::size_t i = base_count; i < edges.size(); ++i) {
    batch_edges[(i - base_count) % batch_edges.size()].push_back(edges[i]);
  }
  // One brand-new vertex per batch is attached below, once the served
  // graph's size is known — against an external daemon (--socket) the
  // fresh ids must land past *its* vertex count, not the generator's.

  // Daemon: in-process unless --socket points at an external one.
  std::unique_ptr<hsbp::serve::Server> server;
  if (!external) {
    socket_path = "/tmp/hsbp_ext_serving_" +
                  std::to_string(static_cast<long>(::getpid())) + ".sock";
    hsbp::serve::ServeOptions options;
    options.socket_path = socket_path;
    options.refit.base.seed = seed;
    options.refit.base.num_threads =
        static_cast<int>(args.get_int("threads", 0));
    options.refit.base.variant = hsbp::sbp::Variant::Hybrid;
    if (overload > 0) {
      // Cap = storm clients + the control connection: the storm fills
      // every slot, so each overload probe is shed deterministically.
      options.max_sessions = clients + 1;
    }
    server = std::make_unique<hsbp::serve::Server>(options);
    server->add_graph(graph_name, base_graph);
    std::fprintf(stderr, "fitting initial partition...\n");
    server->start();
  }

  hsbp::serve::Client control =
      hsbp::serve::Client::connect_unix(socket_path);
  const std::uint64_t epoch0 =
      await_info_field(control, graph_name, "epoch", 1, smoke ? 30.0 : 120.0);
  // Query-able vertex range comes from the daemon, not the local
  // generator: an external daemon (--socket) serves its own graph,
  // whose size has nothing to do with the DCSBM built above for the
  // ingest stream. MEMBER on an id past the served graph is an ERR.
  const auto num_vertices = static_cast<std::int32_t>(
      await_info_field(control, graph_name, "vertices", 1, 5.0));
  if (num_vertices <= 0) {
    std::fprintf(stderr, "FAIL: daemon never reported a vertex count\n");
    return 1;
  }
  std::fprintf(stderr,
               "daemon ready at epoch %llu (%d vertices); starting %d "
               "clients\n",
               static_cast<unsigned long long>(epoch0), num_vertices,
               clients);

  // Fresh ids start past both the served graph and the generated edge
  // stream, so every batch grows the daemon's vertex set by exactly one
  // — that growth is the coalescing-proof "all batches published"
  // signal awaited after the storm.
  const auto fresh_base = std::max(static_cast<hsbp::graph::Vertex>(num_vertices),
                                   generated.graph.num_vertices());
  for (std::size_t b = 0; b < batch_edges.size(); ++b) {
    batch_edges[b].emplace_back(
        fresh_base + static_cast<hsbp::graph::Vertex>(b),
        static_cast<hsbp::graph::Vertex>(
            (b * 17) % static_cast<std::size_t>(
                           generated.graph.num_vertices())));
  }

  std::atomic<bool> running{true};
  std::vector<ClientStats> stats(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(query_loop, std::cref(socket_path),
                         std::cref(graph_name), num_vertices,
                         std::cref(running),
                         std::ref(stats[static_cast<std::size_t>(c)]));
  }

  // Overload scenario: once the storm holds every session slot, each
  // excess connection must be shed with `ERR busy retry-after <ms>`,
  // and a retrying client must ride the busy period out.
  int shed_observed = 0;
  int retry_after_hint = -1;
  std::thread retry_prober;
  std::optional<std::string> retry_reply;
  int retry_attempts_used = 0;
  if (overload > 0) {
    const auto expected_active = static_cast<std::uint64_t>(clients) + 1;
    const std::uint64_t active = await_field(
        control, "HEALTH", "active_sessions", expected_active, 30.0);
    if (active < expected_active) {
      std::fprintf(stderr,
                   "FAIL: %llu active sessions before the overload "
                   "probes (wanted %llu — was the daemon started with "
                   "--max-sessions %d?)\n",
                   static_cast<unsigned long long>(active),
                   static_cast<unsigned long long>(expected_active),
                   clients + 1);
      running.store(false);
      for (auto& t : threads) t.join();
      return 1;
    }
    for (int p = 0; p < overload; ++p) {
      try {
        hsbp::serve::Client probe =
            hsbp::serve::Client::connect_unix(socket_path);
        const auto reply = probe.request("PING", /*timeout_ms=*/10000);
        if (reply.has_value() &&
            hsbp::serve::is_busy(*reply, &retry_after_hint)) {
          ++shed_observed;
        } else {
          std::fprintf(stderr, "overload probe %d was NOT shed: %s\n", p,
                       reply.has_value() ? reply->c_str() : "(hangup)");
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "overload probe %d: %s\n", p, e.what());
      }
    }
    // The retrying client: shed (with the server's retry-after pacing
    // its attempts) for as long as the storm runs, then OK the moment
    // a slot frees — joined after the query threads release theirs.
    retry_prober = std::thread([&socket_path, &retry_reply,
                                &retry_attempts_used] {
      try {
        hsbp::serve::Client prober =
            hsbp::serve::Client::connect_unix(socket_path);
        hsbp::serve::RetryPolicy policy;
        policy.attempts = 4000;
        policy.timeout_ms = 10000;
        policy.backoff_ms = 25;
        retry_reply =
            prober.request_retry("PING", policy, &retry_attempts_used);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "retry prober: %s\n", e.what());
      }
    });
  }

  // The refit storm: ingest every batch, then wait until the scheduler
  // has published them all. Queries keep hammering the whole time.
  const auto storm_start = Clock::now();
  for (const auto& batch : batch_edges) {
    const auto reply =
        control.request(hsbp::serve::format_ingest(graph_name, batch));
    if (!reply.has_value() || !hsbp::serve::is_ok(*reply)) {
      std::fprintf(stderr, "INGEST failed: %s\n",
                   reply.has_value() ? reply->c_str() : "(hangup)");
      running.store(false);
      for (auto& t : threads) t.join();
      if (retry_prober.joinable()) retry_prober.join();
      return 1;
    }
  }
  // "All batches published" == the last batch's fresh vertex is visible.
  // The scheduler coalesces every pending batch into one refit, so the
  // epoch may advance by fewer steps than batches were ingested — the
  // vertex count is the coalescing-proof completion signal (each batch
  // attaches exactly one brand-new vertex).
  const auto target_vertices = static_cast<std::uint64_t>(fresh_base) +
                               static_cast<std::uint64_t>(batches);
  const std::uint64_t final_vertices =
      await_info_field(control, graph_name, "vertices", target_vertices,
                       smoke ? 60.0 : 600.0);
  const std::uint64_t final_epoch =
      await_info_field(control, graph_name, "epoch", 0, 5.0);
  const double refit_wall_seconds =
      std::chrono::duration<double>(Clock::now() - storm_start).count();

  running.store(false);
  for (auto& t : threads) t.join();
  if (retry_prober.joinable()) retry_prober.join();
  const double query_seconds = refit_wall_seconds;  // same window

  // The daemon's own overload ledger, straight from HEALTH.
  const auto field_of = [](const std::string& reply, const char* key) {
    const auto pos = reply.find(key);
    return pos == std::string::npos
               ? std::uint64_t{0}
               : std::strtoull(reply.c_str() + pos + std::strlen(key),
                               nullptr, 10);
  };
  std::uint64_t daemon_shed = 0;
  std::uint64_t daemon_timeouts = 0;
  std::uint64_t daemon_queue_depth = 0;
  if (const auto health = control.request("HEALTH");
      health.has_value() && hsbp::serve::is_ok(*health)) {
    daemon_shed = field_of(*health, "shed=");
    daemon_timeouts = field_of(*health, "timeouts=");
    daemon_queue_depth = field_of(*health, "queue_depth=");
  }

  std::vector<double> all_latencies;
  std::uint64_t total_queries = 0;
  std::uint64_t total_errors = 0;
  for (const auto& s : stats) {
    all_latencies.insert(all_latencies.end(), s.latencies_us.begin(),
                         s.latencies_us.end());
    total_queries += s.queries;
    total_errors += s.errors;
  }
  std::sort(all_latencies.begin(), all_latencies.end());

  const bool refits_done = final_vertices >= target_vertices;
  if (send_shutdown) {
    const auto reply = control.request("SHUTDOWN");
    std::fprintf(stderr, "SHUTDOWN -> %s\n",
                 reply.has_value() ? reply->c_str() : "(hangup)");
  }
  control.close();
  if (server) server->stop();

  std::printf(
      "{\"bench\": \"ext_serving\", \"smoke\": %s, \"clients\": %d, "
      "\"queries\": %llu, \"errors\": %llu, \"query_seconds\": %.3f, "
      "\"throughput_qps\": %.1f, \"latency_p50_us\": %.1f, "
      "\"latency_p99_us\": %.1f, \"ingest_batches\": %d, "
      "\"refit_wall_seconds\": %.3f, \"initial_epoch\": %llu, "
      "\"final_epoch\": %llu, \"refits_completed\": %s, "
      "\"overload_probes\": %d, \"shed_observed\": %d, "
      "\"retry_after_hint_ms\": %d, \"retry_attempts_used\": %d, "
      "\"daemon_shed\": %llu, \"daemon_timeouts\": %llu, "
      "\"daemon_queue_depth\": %llu}\n",
      smoke ? "true" : "false", clients,
      static_cast<unsigned long long>(total_queries),
      static_cast<unsigned long long>(total_errors), query_seconds,
      query_seconds > 0
          ? static_cast<double>(total_queries) / query_seconds
          : 0.0,
      percentile(all_latencies, 0.50), percentile(all_latencies, 0.99),
      batches, refit_wall_seconds,
      static_cast<unsigned long long>(epoch0),
      static_cast<unsigned long long>(final_epoch),
      refits_done ? "true" : "false", overload, shed_observed,
      retry_after_hint, retry_attempts_used,
      static_cast<unsigned long long>(daemon_shed),
      static_cast<unsigned long long>(daemon_timeouts),
      static_cast<unsigned long long>(daemon_queue_depth));

  if (!refits_done) {
    std::fprintf(stderr, "FAIL: refits did not complete (%llu vertices "
                 "visible, wanted %llu)\n",
                 static_cast<unsigned long long>(final_vertices),
                 static_cast<unsigned long long>(target_vertices));
    return 1;
  }
  if (total_errors != 0) {
    std::fprintf(stderr, "FAIL: %llu ERR replies during the storm\n",
                 static_cast<unsigned long long>(total_errors));
    return 1;
  }
  if (overload > 0) {
    if (shed_observed != overload) {
      std::fprintf(stderr,
                   "FAIL: %d of %d overload probes were shed with ERR "
                   "busy\n",
                   shed_observed, overload);
      return 1;
    }
    if (!retry_reply.has_value() || *retry_reply != "OK pong") {
      std::fprintf(
          stderr, "FAIL: retrying client never got through: %s\n",
          retry_reply.has_value() ? retry_reply->c_str() : "(hangup)");
      return 1;
    }
    if (daemon_shed < static_cast<std::uint64_t>(overload)) {
      std::fprintf(stderr,
                   "FAIL: daemon HEALTH reports shed=%llu, below the %d "
                   "probes it refused\n",
                   static_cast<unsigned long long>(daemon_shed),
                   overload);
      return 1;
    }
  }
  return 0;
}

// Injected-fault torture of the serving daemon: hostile peers (silent,
// mid-frame stalls, torn frames, oversized prefixes, instant hangups),
// overload (connection cap, bounded ingest queue), and client-side
// resilience through injected disconnects. Every suite here is named
// ServeFault* so parallel_labels.cmake stamps LABELS "serve;fault" —
// these run again under ASan (`-L fault`) and TSan (`-L serve`).
//
// The contract under torture: the daemon sheds with `ERR busy
// retry-after <ms>`, reaps every faulted session (active_sessions
// returns to zero with NO new connections arriving), keeps healthy
// clients answering with correct snapshots, and drains cleanly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/fault_injector.hpp"
#include "generator/dcsbm.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace hsbp::serve {
namespace {

using namespace std::chrono_literals;

graph::Graph tiny_graph(std::uint64_t seed = 11) {
  generator::DcsbmParams params;
  params.num_vertices = 60;
  params.num_communities = 4;
  params.num_edges = 420;
  params.ratio_within_between = 5.0;
  params.seed = seed;
  return generator::generate_dcsbm(params).graph;
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/hsbp_f_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

sbp::SbpConfig fast_config() {
  sbp::SbpConfig config;
  config.seed = 5;
  config.num_threads = 2;
  return config;
}

/// A raw (non-Client) connection for speaking garbage at the daemon.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Polls `condition` until it holds or `timeout` elapses.
bool await(const std::function<bool()>& condition,
           std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return condition();
}

// ------------------------------------------------------------- reaping

// The thread-leak fix this PR exists for: sessions cut by the idle
// deadline must be reaped by the accept loop's timer tick alone — no
// new connection ever arrives to trigger collection.
TEST(ServeFaultReap, IdleSessionsAreReapedWithoutNewConnections) {
  const std::string socket = unique_socket_path("idle");
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  options.idle_timeout_ms = 100;
  options.frame_timeout_ms = 2000;
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  std::vector<int> fds;
  for (int i = 0; i < 3; ++i) {
    const int fd = raw_connect(socket);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }
  // Every connection was accepted (monotonic counter — the sessions
  // themselves may already be timing out under a loaded sanitizer).
  ASSERT_TRUE(await([&] { return server.stats().sessions >= 3; },
                    std::chrono::seconds(30)));

  ASSERT_TRUE(await(
      [&] {
        const ServerStats s = server.stats();
        return s.timeouts >= 3 && s.active_sessions == 0;
      },
      std::chrono::seconds(30)));

  // The courtesy goodbye: a cut session gets one `ERR timeout` frame
  // before the close (best-effort, but deterministic on loopback).
  std::string reply;
  EXPECT_EQ(read_frame(fds[0], reply, FrameDeadline{}), IoStatus::Ok);
  EXPECT_EQ(reply, "ERR timeout");
  for (const int fd : fds) ::close(fd);
  server.stop();
}

// Half a length prefix then silence: the (tight) frame deadline cuts
// the stall even though the idle deadline is a minute out.
TEST(ServeFaultReap, MidFrameStallIsCutByTheFrameDeadline) {
  const std::string socket = unique_socket_path("stall");
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  options.idle_timeout_ms = 60000;
  options.frame_timeout_ms = 100;
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  const int fd = raw_connect(socket);
  ASSERT_GE(fd, 0);
  const char partial[2] = {16, 0};
  ASSERT_EQ(::write(fd, partial, 2), 2);

  EXPECT_TRUE(await(
      [&] {
        const ServerStats s = server.stats();
        return s.timeouts >= 1 && s.active_sessions == 0;
      },
      std::chrono::seconds(30)));
  ::close(fd);
  server.stop();
}

// stop() must not depend on peers behaving: sessions parked on silent
// or half-written frames (with effectively infinite deadlines) are
// woken by the cancel flag and joined.
TEST(ServeFaultReap, StopJoinsSessionsParkedOnHostilePeers) {
  const std::string socket = unique_socket_path("drain");
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  options.idle_timeout_ms = 600000;
  options.frame_timeout_ms = 600000;
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  const int silent = raw_connect(socket);
  const int stalled = raw_connect(socket);
  ASSERT_GE(silent, 0);
  ASSERT_GE(stalled, 0);
  const char partial[3] = {9, 0, 0};
  ASSERT_EQ(::write(stalled, partial, 3), 3);
  ASSERT_TRUE(await([&] { return server.stats().active_sessions == 2; },
                    std::chrono::seconds(30)));

  const auto start = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 30s);
  EXPECT_EQ(server.stats().active_sessions, 0u);
  ::close(silent);
  ::close(stalled);
}

// ------------------------------------------------------------ shedding

TEST(ServeFaultShed, ConnectionCapShedsWithRetryAfterHint) {
  const std::string socket = unique_socket_path("cap");
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  options.max_sessions = 1;
  options.retry_after_ms = 7;  // distinctive: proves the hint plumbing
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  Client first = Client::connect_unix(socket);
  EXPECT_EQ(first.request("PING"), "OK pong");

  // The connection over the cap is accepted just long enough to be
  // told to go away — one busy frame carrying the retry-after hint.
  Client second = Client::connect_unix(socket);
  const auto shed = second.request("PING", /*timeout_ms=*/5000);
  ASSERT_TRUE(shed.has_value());
  int retry_after = -1;
  EXPECT_TRUE(is_busy(*shed, &retry_after)) << *shed;
  EXPECT_EQ(retry_after, 7);
  EXPECT_GE(server.stats().shed, 1u);

  // Once the occupant leaves, a retrying client gets in: the busy
  // reply is backpressure, not a ban. While still shed, each retry
  // sleeps only the 7 ms hint, so a generous attempt count is what
  // buys wall-clock patience — under sanitizer load the freed slot
  // can take seconds to be reaped into availability.
  first.close();
  RetryPolicy policy;
  policy.attempts = 600;
  policy.timeout_ms = 5000;
  policy.backoff_ms = 25;
  int attempts_used = 0;
  Client third = Client::connect_unix(socket);
  const auto reply = third.request_retry("PING", policy, &attempts_used);
  EXPECT_EQ(reply, "OK pong");
  EXPECT_GE(attempts_used, 1);
  server.stop();
}

// The shed path as the client sees it when it loses the race: the
// daemon writes its busy frame and closes before the request lands, so
// the request's write fails (EPIPE) while the frame sits unread in the
// client's receive buffer. A one-shot listener stands in for the
// daemon, and is joined before the request, so the race always goes
// that way.
TEST(ServeFaultShed, BusyFrameSurvivesFailedRequestWrite) {
  const std::string socket = unique_socket_path("oneshot");
  ::unlink(socket.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  Client client = Client::connect_unix(socket);  // queued in the backlog
  std::thread shedder([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    write_frame(fd, "ERR busy retry-after 9 sessions at cap", 1000);
    ::close(fd);
  });
  shedder.join();
  const auto reply = client.request("PING", /*timeout_ms=*/5000);
  ::close(listener);
  ::unlink(socket.c_str());

  ASSERT_TRUE(reply.has_value());
  int retry_after = -1;
  EXPECT_TRUE(is_busy(*reply, &retry_after)) << *reply;
  EXPECT_EQ(retry_after, 9);
  EXPECT_FALSE(client.connected());
}

// max_pending_batches=0 is read-only mode: every INGEST is refused
// with a busy reply while queries keep answering on the same session.
TEST(ServeFaultShed, ZeroIngestBoundRefusesWritesButServesReads) {
  ServeOptions options;
  options.tcp_port = 0;
  options.refit.base = fast_config();
  options.max_pending_batches = 0;
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  Client client = Client::connect_tcp(server.port());
  const auto refused = client.request("INGEST g 1 0 1");
  ASSERT_TRUE(refused.has_value());
  int retry_after = -1;
  EXPECT_TRUE(is_busy(*refused, &retry_after)) << *refused;
  EXPECT_GE(retry_after, 0);
  EXPECT_NE(refused->find("ingest queue full"), std::string::npos);

  EXPECT_EQ(client.request("PING"), "OK pong");
  const auto member = client.request("MEMBER g 0");
  ASSERT_TRUE(member.has_value());
  EXPECT_TRUE(is_ok(*member));

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.shed, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.ingests, 0u);
  server.stop();
}

// An ingest flood against a small bound: every reply is either an OK
// whose reported backlog respects the bound or a busy refusal — the
// queue provably never grows past max_pending_batches.
TEST(ServeFaultShed, IngestFloodStaysWithinTheQueueBound) {
  ServeOptions options;
  options.tcp_port = 0;
  options.refit.base = fast_config();
  options.max_pending_batches = 2;
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  Client client = Client::connect_tcp(server.port());
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  for (int i = 0; i < 30; ++i) {
    const std::string payload =
        "INGEST g 1 " + std::to_string(i % 60) + " " +
        std::to_string((i * 7 + 1) % 60);
    const auto reply = client.request(payload);
    ASSERT_TRUE(reply.has_value()) << "session died on flood item " << i;
    if (is_ok(*reply)) {
      ++accepted;
      const auto pos = reply->find("pending=");
      ASSERT_NE(pos, std::string::npos) << *reply;
      EXPECT_LE(std::stoull(reply->substr(pos + 8)), 2u) << *reply;
    } else {
      EXPECT_TRUE(is_busy(*reply)) << *reply;
      ++refused;
    }
    EXPECT_LE(server.stats().queue_depth, 2u);
  }
  EXPECT_GE(accepted, 1u);
  EXPECT_EQ(accepted + refused, 30u);
  server.stop();
}

// -------------------------------------------------------------- health

TEST(ServeFaultHealth, HealthReportsTheOverloadGauges) {
  ServeOptions options;
  options.tcp_port = 0;
  options.refit.base = fast_config();
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  Client client = Client::connect_tcp(server.port());
  const auto health = client.request("HEALTH");
  ASSERT_TRUE(health.has_value());
  EXPECT_TRUE(is_ok(*health)) << *health;
  for (const char* token :
       {"active_sessions=", "queue_depth=", "shed=", "timeouts="}) {
    EXPECT_NE(health->find(token), std::string::npos)
        << *health << " lacks " << token;
  }
  // The session asking is itself active.
  EXPECT_NE(health->find("active_sessions=1"), std::string::npos)
      << *health;
  // Arity is enforced: HEALTH takes no arguments.
  EXPECT_FALSE(is_ok(client.request("HEALTH extra").value_or("ERR")));
  server.stop();
}

// ------------------------------------------------- client resilience

// The server's first reply write is dropped mid-request (connection
// hard-closed before any byte): one retry must reconnect and succeed.
TEST(ServeFaultClient, RetryRidesOutAnInjectedDisconnect) {
  const std::string socket = unique_socket_path("drop");
  ckpt::FaultInjector injector;
  injector.net_drop_write(1);
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  options.net_fault = &injector;
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  Client client = Client::connect_unix(socket);
  RetryPolicy policy;
  policy.attempts = 3;
  policy.timeout_ms = 5000;
  policy.backoff_ms = 10;
  int attempts_used = 0;
  EXPECT_EQ(client.request_retry("PING", policy, &attempts_used),
            "OK pong");
  EXPECT_GE(attempts_used, 2);  // the first attempt really was dropped
  EXPECT_EQ(server.stats().active_sessions, 1u);
  server.stop();
}

// Same resilience against a torn reply: the peer sees half a frame,
// classifies it as torn (not a short answer), and retries to success.
TEST(ServeFaultClient, RetryRidesOutAnInjectedTornReply) {
  const std::string socket = unique_socket_path("tear");
  ckpt::FaultInjector injector;
  injector.net_tear_write(1, 6);  // 4 prefix bytes + "OK"
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  options.net_fault = &injector;
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  Client client = Client::connect_unix(socket);
  RetryPolicy policy;
  policy.attempts = 3;
  policy.timeout_ms = 5000;
  policy.backoff_ms = 10;
  int attempts_used = 0;
  EXPECT_EQ(client.request_retry("PING", policy, &attempts_used),
            "OK pong");
  EXPECT_GE(attempts_used, 2);
  server.stop();
}

// --------------------------------------------------------------- storm

// The acceptance scenario: hostile peers (torn frames, oversized
// prefixes, instant hangups, mid-frame stalls) hammer the daemon WHILE
// healthy clients keep querying. Healthy traffic must see zero
// failures, every hostile session must be reaped, and the drain must
// stay prompt.
TEST(ServeFaultStorm, HealthyClientsSurviveHostileTraffic) {
  const std::string socket = unique_socket_path("storm");
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  // Generous enough that TSan-throttled healthy clients never trip the
  // deadlines; tight enough that the stalled peers reap within the test.
  options.idle_timeout_ms = 30000;
  options.frame_timeout_ms = 1000;
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  std::atomic<std::uint64_t> replies{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> healthy;
  for (int c = 0; c < 3; ++c) {
    healthy.emplace_back([&, c] {
      Client client = Client::connect_unix(socket);
      for (int i = 0; i < 40; ++i) {
        const char* verbs[3] = {"MEMBER g ", "EPOCH g", "MODULARITY g"};
        std::string payload = verbs[i % 3];
        if (i % 3 == 0) payload += std::to_string((i + c) % 60);
        const auto reply = client.request(payload, /*timeout_ms=*/20000);
        if (!reply.has_value() || !is_ok(*reply)) {
          failures.fetch_add(1);
          return;
        }
        replies.fetch_add(1);
      }
    });
  }

  // Hostile traffic interleaved with the healthy storm.
  int stalled_peers = 0;
  std::vector<int> stalled;
  for (int round = 0; round < 6; ++round) {
    // Torn frame: promise 32 bytes, deliver 5, hang up.
    int fd = raw_connect(socket);
    if (fd >= 0) {
      const char torn[9] = {32, 0, 0, 0, 'h', 'e', 'l', 'l', 'o'};
      (void)!::write(fd, torn, sizeof(torn));
      ::close(fd);
    }
    // Oversized prefix: a garbage length the reader must refuse.
    fd = raw_connect(socket);
    if (fd >= 0) {
      const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
      (void)!::write(fd, huge, sizeof(huge));
      ::close(fd);
    }
    // Instant hangup: connect, say nothing, vanish.
    fd = raw_connect(socket);
    if (fd >= 0) ::close(fd);
    // Mid-frame stall: half a prefix, then silence (reaped by the
    // frame deadline while the test waits below).
    fd = raw_connect(socket);
    if (fd >= 0) {
      const char partial[2] = {16, 0};
      (void)!::write(fd, partial, 2);
      stalled.push_back(fd);
      ++stalled_peers;
    }
    std::this_thread::sleep_for(5ms);
  }

  for (auto& t : healthy) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(replies.load(), 3u * 40u);

  // Every hostile session — including the stalls, once the frame
  // deadline fires — must be reaped with no further connections.
  EXPECT_TRUE(await(
      [&] {
        const ServerStats s = server.stats();
        return s.active_sessions == 0 &&
               s.timeouts >= static_cast<std::uint64_t>(stalled_peers);
      },
      std::chrono::seconds(60)));

  // The surviving snapshot still answers correctly after the storm.
  Client check = Client::connect_unix(socket);
  const auto info = check.request("INFO g");
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(is_ok(*info));
  EXPECT_NE(info->find("vertices=60"), std::string::npos) << *info;

  for (const int fd : stalled) ::close(fd);
  const auto start = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 30s);
}

}  // namespace
}  // namespace hsbp::serve

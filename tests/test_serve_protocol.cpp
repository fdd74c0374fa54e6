// Wire protocol of the serving daemon: request parsing (including the
// malformed-request taxonomy that must become ERR replies, never
// connection drops), the OK/ERR helpers, and the length-prefixed frame
// I/O over a socketpair.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/fault_injector.hpp"
#include "serve/protocol.hpp"

namespace hsbp::serve {
namespace {

std::optional<Request> parse(const std::string& payload) {
  std::string error;
  return parse_request(payload, error);
}

std::string parse_error(const std::string& payload) {
  std::string error;
  const auto parsed = parse_request(payload, error);
  EXPECT_FALSE(parsed.has_value()) << "payload '" << payload
                                   << "' unexpectedly parsed";
  return error;
}

TEST(ServeProtocolParse, BareVerbs) {
  EXPECT_EQ(parse("PING")->verb, Verb::Ping);
  EXPECT_EQ(parse("LIST")->verb, Verb::List);
  EXPECT_EQ(parse("STATS")->verb, Verb::Stats);
  EXPECT_EQ(parse("SHUTDOWN")->verb, Verb::Shutdown);
}

TEST(ServeProtocolParse, GraphVerbs) {
  const auto info = parse("INFO web");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->verb, Verb::Info);
  EXPECT_EQ(info->graph, "web");

  EXPECT_EQ(parse("MODULARITY g")->verb, Verb::Modularity);
  EXPECT_EQ(parse("MDL g")->verb, Verb::Mdl);
  EXPECT_EQ(parse("EPOCH g")->verb, Verb::Epoch);
}

TEST(ServeProtocolParse, MemberAndCommunityCarryAnId) {
  const auto member = parse("MEMBER web 17");
  ASSERT_TRUE(member.has_value());
  EXPECT_EQ(member->verb, Verb::Member);
  EXPECT_EQ(member->graph, "web");
  EXPECT_EQ(member->argument, 17);

  const auto community = parse("COMMUNITY web 3");
  ASSERT_TRUE(community.has_value());
  EXPECT_EQ(community->verb, Verb::Community);
  EXPECT_EQ(community->argument, 3);
}

TEST(ServeProtocolParse, IngestCollectsEdgePairs) {
  const auto ingest = parse("INGEST web 3 0 1 2 3 4 0");
  ASSERT_TRUE(ingest.has_value());
  EXPECT_EQ(ingest->verb, Verb::Ingest);
  EXPECT_EQ(ingest->graph, "web");
  const std::vector<std::pair<std::int32_t, std::int32_t>> expected = {
      {0, 1}, {2, 3}, {4, 0}};
  EXPECT_EQ(ingest->edges, expected);
}

TEST(ServeProtocolParse, FormatIngestRoundTrips) {
  const std::vector<std::pair<std::int32_t, std::int32_t>> edges = {
      {5, 9}, {0, 0}, {123456, 7}};
  const auto parsed = parse(format_ingest("mygraph", edges));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->graph, "mygraph");
  EXPECT_EQ(parsed->edges, edges);
}

TEST(ServeProtocolParse, TokenizerIgnoresExtraWhitespace) {
  const auto member = parse("  MEMBER \t web   17 \n");
  ASSERT_TRUE(member.has_value());
  EXPECT_EQ(member->verb, Verb::Member);
  EXPECT_EQ(member->argument, 17);
}

// Every malformed shape yields a reason string for an ERR reply — the
// daemon must never treat these as connection- or process-fatal.
TEST(ServeProtocolParse, MalformedRequestsYieldReasons) {
  EXPECT_NE(parse_error(""), "");
  EXPECT_NE(parse_error("   "), "");
  EXPECT_NE(parse_error("FROBNICATE web"), "");
  EXPECT_NE(parse_error("ping"), "");  // verbs are case-sensitive
  EXPECT_NE(parse_error("PING extra"), "");
  EXPECT_NE(parse_error("INFO"), "");
  EXPECT_NE(parse_error("MEMBER web"), "");
  EXPECT_NE(parse_error("MEMBER web twelve"), "");
  EXPECT_NE(parse_error("MEMBER web -4"), "");
  EXPECT_NE(parse_error("MEMBER web 17 extra"), "");
  EXPECT_NE(parse_error("INGEST web"), "");
  EXPECT_NE(parse_error("INGEST web 0"), "");
  EXPECT_NE(parse_error("INGEST web 2 0 1"), "");      // short
  EXPECT_NE(parse_error("INGEST web 1 0 1 2 3"), "");  // long
  EXPECT_NE(parse_error("INGEST web 1 0 x"), "");
  EXPECT_NE(parse_error("INGEST web 1 -1 2"), "");
  EXPECT_NE(parse_error("INGEST web 1 99999999999 2"), "");  // > INT32
}

TEST(ServeProtocolReplies, OkErrAndDetection) {
  EXPECT_EQ(ok_reply(""), "OK");
  EXPECT_EQ(ok_reply("pong"), "OK pong");
  EXPECT_EQ(err_reply("nope"), "ERR nope");
  EXPECT_TRUE(is_ok("OK"));
  EXPECT_TRUE(is_ok("OK pong"));
  EXPECT_FALSE(is_ok("OKAY"));  // token-exact, not prefix-loose
  EXPECT_FALSE(is_ok("ERR OK"));
  EXPECT_FALSE(is_ok(""));
}

class FramePair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

// Deadlines for frames that are already on (or off) the wire: a
// regression fails the test instead of hanging it.
constexpr FrameDeadline kPrompt{2000, 2000};
constexpr int kPromptWriteMs = 2000;

TEST_F(FramePair, RoundTripsPayloads) {
  for (const std::string payload :
       {std::string("PING"), std::string(""),
        std::string(1000, 'x') + " with spaces"}) {
    ASSERT_EQ(write_frame(fds_[0], payload, kPromptWriteMs), IoStatus::Ok);
    std::string received;
    ASSERT_EQ(read_frame(fds_[1], received, kPrompt), IoStatus::Ok);
    EXPECT_EQ(received, payload);
  }
}

TEST_F(FramePair, SequentialFramesStayDelimited) {
  ASSERT_EQ(write_frame(fds_[0], "first", kPromptWriteMs), IoStatus::Ok);
  ASSERT_EQ(write_frame(fds_[0], "second frame", kPromptWriteMs),
            IoStatus::Ok);
  std::string received;
  ASSERT_EQ(read_frame(fds_[1], received, kPrompt), IoStatus::Ok);
  EXPECT_EQ(received, "first");
  ASSERT_EQ(read_frame(fds_[1], received, kPrompt), IoStatus::Ok);
  EXPECT_EQ(received, "second frame");
}

TEST_F(FramePair, CleanEofReadsFalse) {
  ::close(fds_[0]);
  fds_[0] = -1;
  std::string received;
  EXPECT_EQ(read_frame(fds_[1], received, kPrompt), IoStatus::Eof);
}

TEST_F(FramePair, TornFrameReadsFalse) {
  // A length prefix promising more bytes than ever arrive.
  const char prefix[4] = {16, 0, 0, 0};
  ASSERT_EQ(::write(fds_[0], prefix, 4), 4);
  ASSERT_EQ(::write(fds_[0], "short", 5), 5);
  ::close(fds_[0]);
  fds_[0] = -1;
  std::string received;
  EXPECT_EQ(read_frame(fds_[1], received, kPrompt), IoStatus::Torn);
}

TEST_F(FramePair, OversizedLengthPrefixRejected) {
  // 0xFFFFFFFF bytes claimed: must be rejected before any allocation
  // of that size (the reader would otherwise trust a garbage prefix).
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(fds_[0], prefix, 4), 4);
  std::string received;
  EXPECT_EQ(read_frame(fds_[1], received, kPrompt), IoStatus::Oversized);
}

TEST_F(FramePair, WriterRefusesOversizedPayload) {
  std::string big(kMaxFrameBytes + 1, 'x');
  EXPECT_EQ(write_frame(fds_[0], big, kPromptWriteMs), IoStatus::Oversized);
}

// ----------------------- fault-labelled frame-I/O edge paths ---------
// Suite names start with ServeFault so parallel_labels.cmake stamps
// LABELS "serve;fault": these repeat under the ASan `-L fault` stage
// and the TSan serve stage of check_tier1.sh.

using namespace std::chrono_literals;

/// The exact wire image of one frame: u32 LE length prefix + payload.
std::string frame_bytes(std::string_view payload) {
  const auto size = static_cast<std::uint32_t>(payload.size());
  std::string wire;
  wire.push_back(static_cast<char>(size & 0xff));
  wire.push_back(static_cast<char>((size >> 8) & 0xff));
  wire.push_back(static_cast<char>((size >> 16) & 0xff));
  wire.push_back(static_cast<char>((size >> 24) & 0xff));
  wire.append(payload);
  return wire;
}

class ServeFaultFrameIo : public FramePair {};

// Every possible cut point of one frame — mid-prefix, at the
// prefix/payload seam, mid-payload — must map to the right status:
// nothing sent is a clean Eof, anything partial is Torn, and only the
// complete frame is Ok. No cut may hang or crash the reader.
TEST_F(ServeFaultFrameIo, TornFrameAtEveryByteBoundary) {
  const std::string payload = "MEMBER g 17";
  const std::string wire = frame_bytes(payload);
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::write(fds[0], wire.data(), cut),
              static_cast<ssize_t>(cut));
    ::close(fds[0]);
    std::string received;
    const IoStatus status =
        read_frame(fds[1], received, FrameDeadline{2000, 2000});
    if (cut == 0) {
      EXPECT_EQ(status, IoStatus::Eof);
    } else if (cut < wire.size()) {
      EXPECT_EQ(status, IoStatus::Torn) << "cut=" << cut;
    } else {
      EXPECT_EQ(status, IoStatus::Ok);
      EXPECT_EQ(received, payload);
    }
    ::close(fds[1]);
  }
}

TEST_F(ServeFaultFrameIo, OversizedPrefixMapsToOversizedStatus) {
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(fds_[0], prefix, 4), 4);
  std::string received;
  EXPECT_EQ(read_frame(fds_[1], received, FrameDeadline{2000, 2000}),
            IoStatus::Oversized);
}

TEST_F(ServeFaultFrameIo, SilentPeerHitsTheIdleDeadline) {
  std::string received;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(read_frame(fds_[1], received, FrameDeadline{50, 10000}),
            IoStatus::Timeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

// A peer that sends part of a prefix and then stalls is governed by the
// (tight) frame deadline, not the (generous) idle one — proving the
// deadline switches over on the first byte.
TEST_F(ServeFaultFrameIo, MidFrameStallHitsTheFrameDeadline) {
  const char partial[2] = {16, 0};
  ASSERT_EQ(::write(fds_[0], partial, 2), 2);
  std::string received;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(read_frame(fds_[1], received, FrameDeadline{60000, 100}),
            IoStatus::Timeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
}

TEST_F(ServeFaultFrameIo, CancelFlagUnblocksAReadWithNoDeadline) {
  std::atomic<bool> cancel{false};
  std::thread arm([&] {
    std::this_thread::sleep_for(50ms);
    cancel.store(true);
  });
  std::string received;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(read_frame(fds_[1], received, FrameDeadline{-1, -1}, &cancel),
            IoStatus::Cancelled);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
  arm.join();
}

// A reader that stops draining must not park the writer forever: once
// the socket buffer fills, the write deadline fires.
TEST_F(ServeFaultFrameIo, StalledReaderHitsTheWriteDeadline) {
  const std::string big(1u << 22, 'x');  // far beyond any socket buffer
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(write_frame(fds_[0], big, /*deadline_ms=*/150),
            IoStatus::Timeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
}

void sigusr1_noop(int) {}

// EINTR coverage: a signal storm against the reading thread (handler
// installed WITHOUT SA_RESTART, so read/poll really return EINTR) while
// the frame trickles in 7 bytes at a time. The retry loops must absorb
// every interruption and still deliver the exact payload.
TEST_F(ServeFaultFrameIo, SignalStormDoesNotCorruptAFrameRead) {
  struct sigaction action {};
  action.sa_handler = sigusr1_noop;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  std::atomic<bool> done{false};
  std::string received;
  IoStatus status = IoStatus::Error;
  std::thread reader([&] {
    status = read_frame(fds_[1], received, FrameDeadline{20000, 20000});
    done.store(true);
  });
  const std::string payload(300, 'z');
  const std::string wire = frame_bytes(payload);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    ::pthread_kill(reader.native_handle(), SIGUSR1);
    const std::size_t n = std::min<std::size_t>(7, wire.size() - sent);
    ASSERT_EQ(::write(fds_[0], wire.data() + sent, n),
              static_cast<ssize_t>(n));
    sent += n;
    std::this_thread::sleep_for(1ms);
  }
  for (int i = 0; i < 200 && !done.load(); ++i) {
    ::pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(1ms);
  }
  reader.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  EXPECT_EQ(status, IoStatus::Ok);
  EXPECT_EQ(received, payload);
}

// The reader drains concurrently: hundreds of tiny send()s each cost
// kernel skb overhead, so an undrained socketpair fills up long before
// the byte count suggests — exactly like a real peer mid-conversation.
TEST_F(ServeFaultFrameIo, InjectedChunkedWritesExerciseTheRetryLoop) {
  ckpt::FaultInjector injector;
  injector.net_chunk_writes(3);  // 1004 wire bytes -> ~335 send() calls
  const std::string payload(1000, 'q');
  std::string received;
  IoStatus read_status = IoStatus::Error;
  std::thread reader([&] {
    read_status = read_frame(fds_[1], received, FrameDeadline{10000, 10000});
  });
  EXPECT_EQ(write_frame(fds_[0], payload, 10000, nullptr, &injector),
            IoStatus::Ok);
  reader.join();
  EXPECT_EQ(read_status, IoStatus::Ok);
  EXPECT_EQ(received, payload);
  EXPECT_EQ(injector.net_writes_seen(), 1);
}

// The injector's torn write puts an exact number of bytes on the wire
// before hard-closing; the peer must classify each boundary correctly.
TEST_F(ServeFaultFrameIo, InjectedTornWriteYieldsTornAtThePeer) {
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{1},
                                  std::size_t{2}, std::size_t{4},
                                  std::size_t{9}}) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ckpt::FaultInjector injector;
    injector.net_tear_write(1, bytes);
    EXPECT_EQ(write_frame(fds[0], "OK pong", 2000, nullptr, &injector),
              IoStatus::Error);
    std::string received;
    const IoStatus status =
        read_frame(fds[1], received, FrameDeadline{2000, 2000});
    EXPECT_EQ(status, bytes == 0 ? IoStatus::Eof : IoStatus::Torn)
        << "bytes=" << bytes;
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

TEST_F(ServeFaultFrameIo, InjectedDropWriteHangsUpBeforeAnyByte) {
  ckpt::FaultInjector injector;
  injector.net_drop_write(1);
  EXPECT_EQ(write_frame(fds_[0], "OK pong", 2000, nullptr, &injector),
            IoStatus::Error);
  std::string received;
  EXPECT_EQ(read_frame(fds_[1], received, FrameDeadline{2000, 2000}),
            IoStatus::Eof);
}

TEST_F(ServeFaultFrameIo, InjectedDropReadKillsTheConnection) {
  ASSERT_EQ(write_frame(fds_[0], "PING", kPromptWriteMs), IoStatus::Ok);
  ckpt::FaultInjector injector;
  injector.net_drop_read(1);
  std::string received;
  EXPECT_EQ(read_frame(fds_[1], received, FrameDeadline{2000, 2000},
                       nullptr, &injector),
            IoStatus::Error);
}

// A delayed read stalls past the already-armed idle deadline, so the
// frame sitting in the buffer is never delivered — the deterministic
// Timeout the daemon's reaper tests lean on.
TEST_F(ServeFaultFrameIo, InjectedDelayLandsInTheTimeoutPath) {
  ASSERT_EQ(write_frame(fds_[0], "PING", kPromptWriteMs), IoStatus::Ok);
  ckpt::FaultInjector injector;
  injector.net_delay_read(1, 200);
  std::string received;
  EXPECT_EQ(read_frame(fds_[1], received, FrameDeadline{50, 50}, nullptr,
                       &injector),
            IoStatus::Timeout);
}

}  // namespace
}  // namespace hsbp::serve

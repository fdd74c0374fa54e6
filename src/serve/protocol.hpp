/// \file protocol.hpp
/// \brief Wire protocol of the partition-serving daemon (`hsbp serve`).
///
/// Framing: every message — request and reply alike — is one frame,
///
///   ┌───────────────────────────────────────────────┐
///   │ u32 little-endian payload length · payload    │
///   └───────────────────────────────────────────────┘
///
/// with the payload a UTF-8 text line of space-separated tokens (no
/// trailing newline required). Length-prefixing keeps reads exact —
/// a client never scans for a delimiter and an INGEST batch may be
/// arbitrarily token-dense — while the text payload stays greppable
/// and scriptable (`hsbp query` sends exactly what you type).
///
/// Requests (first token = verb, case-sensitive):
///
///   PING                          liveness probe
///   LIST                          names of the served graphs
///   INFO <graph>                  V/E/blocks/epoch/mdl of the snapshot
///   MEMBER <graph> <vertex>       community of one vertex
///   COMMUNITY <graph> <block>     member vertices of one community
///   MODULARITY <graph>            modularity of the served partition
///   MDL <graph>                   description length + block count
///   EPOCH <graph>                 snapshot epoch (bumps per refit)
///   INGEST <graph> <k> u1 v1 ...  append k edges, schedule a refit
///   STATS                         server-wide counters
///   HEALTH                        overload counters (see below)
///   SHUTDOWN                      graceful drain (same path as SIGTERM)
///
/// Replies start with `OK` (followed by verb-specific tokens) or `ERR`
/// (followed by a human-readable reason). A malformed request — unknown
/// verb, wrong arity, non-numeric argument, unknown graph, out-of-range
/// vertex — is always an `ERR` reply on the same connection, never a
/// dropped connection or a daemon exit. Only an unreadable frame
/// (oversized length prefix or a half-closed peer) or a blown deadline
/// (idle session, mid-frame stall) ends the session.
///
/// Load-shedding replies (overload — see ServeOptions in server.hpp):
///
///   ERR busy retry-after <ms> ...   the daemon refused this work on
///                                   purpose: the connection cap was
///                                   reached (sent once, then the
///                                   connection closes) or the graph's
///                                   ingest queue is full (the session
///                                   stays open; only the INGEST was
///                                   refused). <ms> is the server's
///                                   suggested backoff; Client's retry
///                                   helper honors it.
///
/// Counter reply tokens (k=v pairs, all monotonic since daemon start
/// unless noted):
///
///   STATS  → OK queries=N errors=N ingests=N refits=N sessions=N
///               shed=N timeouts=N active_sessions=N queue_depth=N
///   HEALTH → OK active_sessions=N queue_depth=N shed=N timeouts=N
///
///   queries   requests answered (OK and ERR alike)
///   errors    ERR replies among them (includes busy sheds)
///   ingests   INGEST batches *accepted* (refused ones count in shed)
///   refits    refit epochs published
///   sessions  connections accepted (shed ones included)
///   shed      work refused with `ERR busy`: connections over the cap
///             plus INGESTs against a full queue
///   timeouts  sessions closed for blowing a deadline (idle or
///             mid-frame)
///   active_sessions  currently live session threads (gauge, not
///             monotonic — returns to 0 when clients leave)
///   queue_depth      pending ingest batches across all graphs (gauge)
///
/// This header is deliberately socket-free: parse/format round-trip in
/// unit tests without a daemon, and the fd-based frame I/O helpers are
/// the only POSIX-touching pieces.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hsbp::ckpt {
class FaultInjector;
}

namespace hsbp::serve {

/// Hard ceiling on one frame's payload (guards the reader against a
/// garbage length prefix; a 16 MiB INGEST batch is ~1M edges).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

enum class Verb {
  Ping,
  List,
  Info,
  Member,
  Community,
  Modularity,
  Mdl,
  Epoch,
  Ingest,
  Stats,
  Health,
  Shutdown,
};

/// A parsed request. Numeric arguments are validated during parsing;
/// graph-name existence is the server's job.
struct Request {
  Verb verb = Verb::Ping;
  std::string graph;               ///< verbs that target a graph
  std::int64_t argument = 0;       ///< MEMBER vertex / COMMUNITY block
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;  ///< INGEST
};

/// Parses one request payload. Returns the request, or an ERR reason
/// in `error` (and nullopt) when the payload is malformed — the caller
/// turns that into an `ERR` reply, keeping the session alive.
std::optional<Request> parse_request(std::string_view payload,
                                     std::string& error);

/// Formats an INGEST request payload (the client-side inverse of
/// parse_request; the bench builds its batches through this).
std::string format_ingest(
    std::string_view graph,
    const std::vector<std::pair<std::int32_t, std::int32_t>>& edges);

/// `OK ...` / `ERR ...` helpers so every reply spells status the same.
std::string ok_reply(std::string_view detail);
std::string err_reply(std::string_view reason);

/// True when `reply` begins with "OK" (token-exact, not prefix-loose).
bool is_ok(std::string_view reply) noexcept;

// ---------------------------------------------------------- frame I/O

/// Outcome of one deadline-aware frame operation. Everything except Ok
/// ends the session; the caller decides what to count (the server
/// counts Timeout separately — it is the daemon shedding a stalled
/// peer, not the peer leaving).
enum class IoStatus {
  Ok,
  Eof,        ///< clean close before the first byte of a frame
  Torn,       ///< peer vanished mid-frame (prefix or payload)
  Oversized,  ///< length prefix above kMaxFrameBytes — protocol abuse
  Timeout,    ///< idle or per-frame deadline blown
  Cancelled,  ///< the cancel flag was raised (daemon drain)
  Error,      ///< read/write error (ECONNRESET, EPIPE, injected fault)
};

/// Per-frame read deadlines, both in milliseconds, -1 = unbounded:
/// `idle_ms` bounds the wait for a frame's FIRST byte (how long a
/// silent session may sit), `frame_ms` bounds the rest of the frame
/// once a byte arrived (how long a mid-frame stall may last).
struct FrameDeadline {
  int idle_ms = -1;
  int frame_ms = -1;
};

/// Reads one frame from `fd` into `payload` under deadlines, polling in
/// short slices so `cancel` (when given) aborts within ~50 ms. `fault`
/// (when given) is consulted once per call — the network fault seam the
/// serve tests inject through (ckpt::FaultInjector::on_net_read).
IoStatus read_frame(int fd, std::string& payload,
                    const FrameDeadline& deadline,
                    const std::atomic<bool>* cancel = nullptr,
                    ckpt::FaultInjector* fault = nullptr) noexcept;

/// Writes one frame (length prefix + payload) to `fd`, retrying short
/// writes, with `deadline_ms` bounding the whole frame (-1 =
/// unbounded). Timeout semantics match read_frame: a peer that stops
/// draining its socket cannot park the writer. `fault` injects at the
/// same seam (ckpt::FaultInjector::on_net_write).
IoStatus write_frame(int fd, std::string_view payload, int deadline_ms,
                     const std::atomic<bool>* cancel = nullptr,
                     ckpt::FaultInjector* fault = nullptr) noexcept;

}  // namespace hsbp::serve

#include "serve/protocol.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "ckpt/fault_injector.hpp"

namespace hsbp::serve {

namespace {

/// Splits the payload into whitespace-separated tokens.
std::vector<std::string_view> tokenize(std::string_view payload) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < payload.size()) {
    while (i < payload.size() &&
           (payload[i] == ' ' || payload[i] == '\t' || payload[i] == '\n' ||
            payload[i] == '\r')) {
      ++i;
    }
    const std::size_t start = i;
    while (i < payload.size() && payload[i] != ' ' && payload[i] != '\t' &&
           payload[i] != '\n' && payload[i] != '\r') {
      ++i;
    }
    if (i > start) tokens.push_back(payload.substr(start, i - start));
  }
  return tokens;
}

bool parse_int(std::string_view token, std::int64_t& out) {
  const auto* first = token.data();
  const auto* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

bool parse_vertex(std::string_view token, std::int32_t& out) {
  std::int64_t wide = 0;
  if (!parse_int(token, wide) || wide < 0 || wide > INT32_MAX) return false;
  out = static_cast<std::int32_t>(wide);
  return true;
}

}  // namespace

std::optional<Request> parse_request(std::string_view payload,
                                     std::string& error) {
  const auto tokens = tokenize(payload);
  if (tokens.empty()) {
    error = "empty request";
    return std::nullopt;
  }
  const std::string_view verb = tokens.front();
  Request request;

  const auto need = [&](std::size_t arity, const char* usage) {
    if (tokens.size() == arity) return true;
    error = std::string(verb) + ": expected '" + usage + "'";
    return false;
  };

  if (verb == "PING") {
    if (!need(1, "PING")) return std::nullopt;
    request.verb = Verb::Ping;
    return request;
  }
  if (verb == "LIST") {
    if (!need(1, "LIST")) return std::nullopt;
    request.verb = Verb::List;
    return request;
  }
  if (verb == "STATS") {
    if (!need(1, "STATS")) return std::nullopt;
    request.verb = Verb::Stats;
    return request;
  }
  if (verb == "HEALTH") {
    if (!need(1, "HEALTH")) return std::nullopt;
    request.verb = Verb::Health;
    return request;
  }
  if (verb == "SHUTDOWN") {
    if (!need(1, "SHUTDOWN")) return std::nullopt;
    request.verb = Verb::Shutdown;
    return request;
  }
  if (verb == "INFO" || verb == "MODULARITY" || verb == "MDL" ||
      verb == "EPOCH") {
    if (tokens.size() != 2) {
      error = std::string(verb) + ": expected '" + std::string(verb) +
              " <graph>'";
      return std::nullopt;
    }
    request.verb = verb == "INFO"         ? Verb::Info
                   : verb == "MODULARITY" ? Verb::Modularity
                   : verb == "MDL"        ? Verb::Mdl
                                          : Verb::Epoch;
    request.graph = std::string(tokens[1]);
    return request;
  }
  if (verb == "MEMBER" || verb == "COMMUNITY") {
    if (tokens.size() != 3) {
      error = std::string(verb) + ": expected '" + std::string(verb) +
              " <graph> <id>'";
      return std::nullopt;
    }
    request.verb = verb == "MEMBER" ? Verb::Member : Verb::Community;
    request.graph = std::string(tokens[1]);
    if (!parse_int(tokens[2], request.argument) || request.argument < 0) {
      error = std::string(verb) + ": '" + std::string(tokens[2]) +
              "' is not a non-negative integer";
      return std::nullopt;
    }
    return request;
  }
  if (verb == "INGEST") {
    if (tokens.size() < 3) {
      error = "INGEST: expected 'INGEST <graph> <count> u1 v1 ...'";
      return std::nullopt;
    }
    request.verb = Verb::Ingest;
    request.graph = std::string(tokens[1]);
    std::int64_t count = 0;
    if (!parse_int(tokens[2], count) || count < 1) {
      error = "INGEST: edge count '" + std::string(tokens[2]) +
              "' is not a positive integer";
      return std::nullopt;
    }
    if (tokens.size() != 3 + 2 * static_cast<std::size_t>(count)) {
      error = "INGEST: announced " + std::to_string(count) +
              " edges but carries " +
              std::to_string((tokens.size() - 3) / 2) + " endpoint pairs";
      return std::nullopt;
    }
    request.edges.reserve(static_cast<std::size_t>(count));
    for (std::int64_t e = 0; e < count; ++e) {
      std::int32_t u = 0;
      std::int32_t v = 0;
      if (!parse_vertex(tokens[3 + 2 * static_cast<std::size_t>(e)], u) ||
          !parse_vertex(tokens[4 + 2 * static_cast<std::size_t>(e)], v)) {
        error = "INGEST: edge " + std::to_string(e) +
                " has a non-vertex endpoint";
        return std::nullopt;
      }
      request.edges.emplace_back(u, v);
    }
    return request;
  }
  error = "unknown verb '" + std::string(verb) + "'";
  return std::nullopt;
}

std::string format_ingest(
    std::string_view graph,
    const std::vector<std::pair<std::int32_t, std::int32_t>>& edges) {
  std::ostringstream out;
  out << "INGEST " << graph << ' ' << edges.size();
  for (const auto& [u, v] : edges) out << ' ' << u << ' ' << v;
  return out.str();
}

std::string ok_reply(std::string_view detail) {
  std::string reply = "OK";
  if (!detail.empty()) {
    reply += ' ';
    reply += detail;
  }
  return reply;
}

std::string err_reply(std::string_view reason) {
  std::string reply = "ERR";
  if (!reason.empty()) {
    reply += ' ';
    reply += reason;
  }
  return reply;
}

bool is_ok(std::string_view reply) noexcept {
  return reply == "OK" || reply.substr(0, 3) == "OK ";
}

// ----------------------------------------------------------- frame I/O

namespace {

using Clock = std::chrono::steady_clock;

/// Cancel-flag polling granularity: a drain request is observed within
/// this many milliseconds even while blocked on a dead-silent peer.
constexpr int kCancelSliceMs = 50;

/// Puts the fd into non-blocking mode for the duration of one frame
/// operation and restores the previous flags on the way out. The
/// deadline loops below rely on read/send returning EAGAIN instead of
/// parking the thread past its deadline.
class ScopedNonblock {
 public:
  explicit ScopedNonblock(int fd) noexcept : fd_(fd) {
    flags_ = ::fcntl(fd_, F_GETFL, 0);
    if (flags_ >= 0 && (flags_ & O_NONBLOCK) == 0) {
      restore_ = ::fcntl(fd_, F_SETFL, flags_ | O_NONBLOCK) == 0;
    }
  }
  ~ScopedNonblock() {
    if (restore_) ::fcntl(fd_, F_SETFL, flags_);
  }
  ScopedNonblock(const ScopedNonblock&) = delete;
  ScopedNonblock& operator=(const ScopedNonblock&) = delete;

 private:
  int fd_;
  int flags_ = -1;
  bool restore_ = false;
};

/// Shared state of one frame operation's retry loops.
struct IoContext {
  const std::atomic<bool>* cancel = nullptr;
  bool has_deadline = false;
  Clock::time_point deadline_at{};  ///< current absolute deadline

  void set_deadline(int ms) noexcept {
    has_deadline = ms >= 0;
    if (has_deadline) {
      deadline_at = Clock::now() + std::chrono::milliseconds(ms);
    }
  }

  /// Cancelled/Timeout when the operation must stop, Ok to keep going.
  IoStatus check() const noexcept {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return IoStatus::Cancelled;
    }
    if (has_deadline && Clock::now() >= deadline_at) {
      return IoStatus::Timeout;
    }
    return IoStatus::Ok;
  }

  /// Poll timeout for the next wait slice: short enough to notice the
  /// cancel flag, never past the deadline.
  int slice_ms() const noexcept {
    int slice = cancel != nullptr ? kCancelSliceMs : -1;
    if (has_deadline) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline_at - Clock::now())
              .count();
      const int rem = static_cast<int>(
          remaining < 0 ? 0 : (remaining > 60000 ? 60000 : remaining));
      slice = slice < 0 ? rem : (rem < slice ? rem : slice);
    }
    return slice;
  }
};

/// Reads exactly `size` bytes under the context's deadline. `saw_byte`
/// distinguishes a clean EOF from a torn frame and reports when the
/// first byte of the frame landed (the caller re-arms the deadline).
IoStatus read_exact(int fd, char* data, std::size_t size, IoContext& ctx,
                    bool& saw_byte) noexcept {
  while (size > 0) {
    const IoStatus gate = ctx.check();
    if (gate != IoStatus::Ok) return gate;
    const ssize_t n = ::read(fd, data, size);
    if (n > 0) {
      saw_byte = true;
      data += n;
      size -= static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return saw_byte ? IoStatus::Torn : IoStatus::Eof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd pfd{fd, POLLIN, 0};
      ::poll(&pfd, 1, ctx.slice_ms());
      continue;
    }
    return IoStatus::Error;
  }
  return IoStatus::Ok;
}

/// Writes exactly `size` bytes under the context's deadline, retrying
/// short writes. `chunk` > 0 caps each send() (fault-injected stressor
/// for exactly this retry loop).
IoStatus write_exact(int fd, const char* data, std::size_t size,
                     IoContext& ctx, std::size_t chunk) noexcept {
  while (size > 0) {
    const IoStatus gate = ctx.check();
    if (gate != IoStatus::Ok) return gate;
    const std::size_t want = chunk > 0 && chunk < size ? chunk : size;
    // MSG_NOSIGNAL: a peer that hung up mid-reply must surface as EPIPE
    // (frame failure → session close), not a process-killing SIGPIPE in
    // whichever thread happened to be writing.
    const ssize_t n = ::send(fd, data, want, MSG_NOSIGNAL);
    if (n >= 0) {
      data += n;
      size -= static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, ctx.slice_ms());
      continue;
    }
    return IoStatus::Error;
  }
  return IoStatus::Ok;
}

void encode_prefix(std::uint32_t size, char prefix[4]) noexcept {
  prefix[0] = static_cast<char>(size & 0xff);
  prefix[1] = static_cast<char>((size >> 8) & 0xff);
  prefix[2] = static_cast<char>((size >> 16) & 0xff);
  prefix[3] = static_cast<char>((size >> 24) & 0xff);
}

}  // namespace

IoStatus read_frame(int fd, std::string& payload,
                    const FrameDeadline& deadline,
                    const std::atomic<bool>* cancel,
                    ckpt::FaultInjector* fault) noexcept {
  ScopedNonblock nonblock(fd);
  IoContext ctx;
  ctx.cancel = cancel;
  ctx.set_deadline(deadline.idle_ms);
  if (fault != nullptr) {
    const auto injected = fault->on_net_read();
    switch (injected.kind) {
      case ckpt::FaultInjector::NetFault::Kind::Drop:
        ::shutdown(fd, SHUT_RDWR);
        return IoStatus::Error;
      case ckpt::FaultInjector::NetFault::Kind::Delay:
        // The deadline is already armed, so a stall past idle_ms
        // deterministically lands in the Timeout path below.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(injected.delay_ms));
        break;
      default:
        break;
    }
  }

  char prefix[4];
  bool saw_byte = false;
  std::size_t got = 0;
  // The prefix is read byte-wise against two deadlines: idle until the
  // first byte lands, then the per-frame budget for everything after.
  while (got < 4) {
    const IoStatus st =
        read_exact(fd, prefix + got, 1, ctx, saw_byte);
    if (st != IoStatus::Ok) return st;
    ++got;
    if (got == 1) ctx.set_deadline(deadline.frame_ms);
  }
  const std::uint32_t size =
      static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[0])) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[1]))
       << 8) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[2]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[3]))
       << 24);
  if (size > kMaxFrameBytes) return IoStatus::Oversized;
  payload.resize(size);
  if (size == 0) return IoStatus::Ok;
  return read_exact(fd, payload.data(), size, ctx, saw_byte);
}

IoStatus write_frame(int fd, std::string_view payload, int deadline_ms,
                     const std::atomic<bool>* cancel,
                     ckpt::FaultInjector* fault) noexcept {
  if (payload.size() > kMaxFrameBytes) return IoStatus::Oversized;
  const auto size = static_cast<std::uint32_t>(payload.size());
  char prefix[4];
  encode_prefix(size, prefix);

  std::size_t chunk = 0;
  if (fault != nullptr) {
    const auto injected = fault->on_net_write();
    switch (injected.kind) {
      case ckpt::FaultInjector::NetFault::Kind::Drop:
        ::shutdown(fd, SHUT_RDWR);
        return IoStatus::Error;
      case ckpt::FaultInjector::NetFault::Kind::Tear: {
        // Put exactly `bytes` bytes of the frame on the wire (prefix
        // first), then hard-close: the peer observes a torn frame at a
        // deterministic boundary.
        ScopedNonblock nonblock(fd);
        IoContext ctx;
        ctx.cancel = cancel;
        ctx.set_deadline(deadline_ms);
        const std::size_t from_prefix =
            injected.bytes < 4 ? injected.bytes : 4;
        write_exact(fd, prefix, from_prefix, ctx, 0);
        if (injected.bytes > 4) {
          std::size_t from_payload = injected.bytes - 4;
          if (from_payload > payload.size()) from_payload = payload.size();
          write_exact(fd, payload.data(), from_payload, ctx, 0);
        }
        ::shutdown(fd, SHUT_RDWR);
        return IoStatus::Error;
      }
      case ckpt::FaultInjector::NetFault::Kind::Chunk:
        chunk = injected.bytes;
        break;
      default:
        break;
    }
  }

  ScopedNonblock nonblock(fd);
  IoContext ctx;
  ctx.cancel = cancel;
  ctx.set_deadline(deadline_ms);
  const IoStatus st = write_exact(fd, prefix, 4, ctx, chunk);
  if (st != IoStatus::Ok) return st;
  return write_exact(fd, payload.data(), size, ctx, chunk);
}

}  // namespace hsbp::serve

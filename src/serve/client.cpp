#include "serve/client.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <thread>

#include "serve/protocol.hpp"
#include "util/errors.hpp"

namespace hsbp::serve {

namespace {

int dial_unix(const std::string& path, std::string& error) noexcept {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = std::string("client: socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    error = "client: socket path '" + path + "' exceeds sun_path";
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    error = "client: cannot connect to '" + path +
            "': " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int dial_tcp(int port, std::string& error) noexcept {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = std::string("client: socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    error = "client: cannot connect to 127.0.0.1:" +
            std::to_string(port) + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

/// SplitMix64 step — the same deterministic stream everywhere a test
/// needs to replay a backoff schedule.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

bool is_busy(std::string_view reply, int* retry_after_ms) noexcept {
  constexpr std::string_view kBusy = "ERR busy";
  if (reply.substr(0, kBusy.size()) != kBusy) return false;
  if (retry_after_ms != nullptr) {
    constexpr std::string_view kHint = "retry-after ";
    const auto pos = reply.find(kHint);
    if (pos != std::string_view::npos) {
      const auto tail = reply.substr(pos + kHint.size());
      int ms = 0;
      const auto [ptr, ec] =
          std::from_chars(tail.data(), tail.data() + tail.size(), ms);
      if (ec == std::errc{} && ms >= 0) *retry_after_ms = ms;
      (void)ptr;
    }
  }
  return true;
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      unix_path_(std::move(other.unix_path_)),
      tcp_port_(other.tcp_port_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    unix_path_ = std::move(other.unix_path_);
    tcp_port_ = other.tcp_port_;
    other.fd_ = -1;
  }
  return *this;
}

Client Client::connect_unix(const std::string& path) {
  std::string error;
  const int fd = dial_unix(path, error);
  if (fd < 0) throw util::IoError(error);
  Client client;
  client.fd_ = fd;
  client.unix_path_ = path;
  return client;
}

Client Client::connect_tcp(int port) {
  std::string error;
  const int fd = dial_tcp(port, error);
  if (fd < 0) throw util::IoError(error);
  Client client;
  client.fd_ = fd;
  client.tcp_port_ = port;
  return client;
}

bool Client::reconnect() noexcept {
  close();
  std::string error;
  if (!unix_path_.empty()) {
    fd_ = dial_unix(unix_path_, error);
  } else if (tcp_port_ >= 0) {
    fd_ = dial_tcp(tcp_port_, error);
  }
  return fd_ >= 0;
}

std::optional<std::string> Client::request(std::string_view payload,
                                           int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  std::string reply;
  // One deadline covers both waiting for the reply to start (idle) and
  // its remaining bytes (frame): a per-request budget, not per-phase.
  const FrameDeadline deadline{timeout_ms, timeout_ms};
  const IoStatus wrote = write_frame(fd_, payload, timeout_ms);
  if (wrote != IoStatus::Ok) {
    // A daemon over its session cap writes one busy frame and closes
    // without reading, so our write can fail (EPIPE) with that frame
    // still waiting in the receive buffer. It is the only frame the
    // daemon sends unprompted.
    const bool shed = wrote == IoStatus::Error &&
                      read_frame(fd_, reply, deadline) == IoStatus::Ok &&
                      is_busy(reply);
    close();
    if (shed) return reply;
    return std::nullopt;
  }
  if (read_frame(fd_, reply, deadline) != IoStatus::Ok) {
    // A timed-out connection is unusable: a late reply arriving after
    // we moved on would be mistaken for the next request's answer.
    close();
    return std::nullopt;
  }
  return reply;
}

std::optional<std::string> Client::request_retry(std::string_view payload,
                                                 const RetryPolicy& policy,
                                                 int* attempts_used) {
  const int attempts = policy.attempts < 1 ? 1 : policy.attempts;
  std::optional<std::string> last_busy;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 || !connected()) {
      if (!reconnect()) {
        // Daemon unreachable: fall through to the backoff below and
        // try dialing again — reconnect-after-restart is exactly the
        // scenario retries exist for.
      }
    }
    if (connected()) {
      auto reply = request(payload, policy.timeout_ms);
      if (reply.has_value()) {
        int retry_after = -1;
        if (!is_busy(*reply, &retry_after)) {
          if (attempts_used != nullptr) *attempts_used = attempt + 1;
          return reply;
        }
        // Shed by the server: honor its hint over our own schedule.
        last_busy = std::move(reply);
        if (attempt + 1 < attempts) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              retry_after >= 0 ? retry_after : policy.backoff_ms));
        }
        continue;
      }
    }
    if (attempt + 1 < attempts) {
      // Exponential backoff with deterministic jitter in [0, base):
      // doubling is capped at backoff_max_ms, and the jitter stream is
      // a pure function of (seed, attempt) so a fixed seed replays the
      // exact schedule.
      std::int64_t base = policy.backoff_ms > 0 ? policy.backoff_ms : 1;
      for (int i = 0; i < attempt && base < policy.backoff_max_ms; ++i) {
        base *= 2;
      }
      if (base > policy.backoff_max_ms) base = policy.backoff_max_ms;
      const auto jitter = static_cast<std::int64_t>(
          mix(policy.jitter_seed + static_cast<std::uint64_t>(attempt)) %
          static_cast<std::uint64_t>(base));
      std::this_thread::sleep_for(std::chrono::milliseconds(base + jitter));
    }
  }
  if (attempts_used != nullptr) *attempts_used = attempts;
  return last_busy;  // nullopt unless the final state was "shed"
}

void Client::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace hsbp::serve

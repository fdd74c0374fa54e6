#include "serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "ckpt/shutdown.hpp"
#include "serve/protocol.hpp"
#include "util/logger.hpp"

namespace hsbp::serve {

namespace {

/// Poll timeout between stop-flag checks; bounds drain latency.
constexpr int kPollMs = 50;

std::string errno_text() { return std::strerror(errno); }

/// Formats a double with round-trippable precision (replies are text).
std::string fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace

Server::Server(ServeOptions options) : options_(std::move(options)) {
  scheduler_ =
      std::make_unique<RefitScheduler>(registry_, options_.refit);
}

Server::~Server() { stop(); }

void Server::add_graph(const std::string& name, graph::Graph graph) {
  if (started_.load()) {
    throw std::invalid_argument("serve: add_graph after start()");
  }
  if (graph.num_vertices() == 0 || graph.num_edges() == 0) {
    throw std::invalid_argument("serve: graph '" + name +
                                "' is empty — nothing to partition");
  }
  GraphStore& store = registry_.add(name);
  // Stash the unfitted graph in an epoch-0 snapshot; start() replaces
  // it with the real fit (or the resumed checkpoint). Queries cannot
  // arrive before start() binds the socket.
  auto shared = std::make_shared<const graph::Graph>(std::move(graph));
  auto placeholder = std::make_shared<Snapshot>();
  placeholder->graph = std::move(shared);
  store.publish(std::move(placeholder));
}

void Server::start() {
  if (started_.exchange(true)) return;
  try {
    start_impl();
  } catch (...) {
    // No threads are running yet on any throw path; release the
    // address (if taken) so a corrected retry can bind it.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      if (!options_.socket_path.empty()) {
        ::unlink(options_.socket_path.c_str());
      }
    }
    started_.store(false);
    throw;
  }
}

void Server::start_impl() {
  // Bind first: a daemon that cannot take its address should fail in
  // milliseconds (CLI exit 69), not after minutes of initial fitting.
  // Unix socket and TCP are mutually exclusive by construction (the
  // CLI enforces it; the API takes whichever is set, Unix first).
  if (!options_.socket_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      throw BindError("serve: socket(AF_UNIX): " + errno_text());
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw BindError("serve: socket path '" + options_.socket_path +
                      "' exceeds sun_path");
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string reason = errno_text();
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw BindError("serve: cannot bind '" + options_.socket_path +
                      "': " + reason);
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      throw BindError("serve: socket(AF_INET): " + errno_text());
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(std::max(options_.tcp_port, 0)));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string reason = errno_text();
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw BindError("serve: cannot bind 127.0.0.1:" +
                      std::to_string(options_.tcp_port) + ": " + reason);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string reason = errno_text();
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw BindError("serve: listen: " + reason);
  }

  // Initial snapshots: resume where a checkpoint exists, else cold-fit;
  // persist so a daemon killed before its first refit still resumes.
  // Early connections queue in the listen backlog while this runs.
  for (GraphStore* store : registry_.stores()) {
    const std::shared_ptr<const Snapshot> placeholder = store->acquire();
    std::shared_ptr<const Snapshot> initial;
    const std::string path =
        options_.refit.checkpoint_dir.empty()
            ? std::string()
            : checkpoint_path(options_.refit.checkpoint_dir,
                              store->name());
    if (options_.resume && !path.empty() &&
        ::access(path.c_str(), F_OK) == 0) {
      initial = snapshot_from_checkpoint(ckpt::load_serve_checkpoint(path));
      HSBP_LOG_INFO("serve: '%s' resumed at epoch %llu (V=%d E=%lld)",
                    store->name().c_str(),
                    static_cast<unsigned long long>(initial->epoch),
                    initial->graph->num_vertices(),
                    static_cast<long long>(initial->graph->num_edges()));
    } else {
      initial = fit_initial(placeholder->graph, options_.refit.base);
      persist_snapshot(options_.refit.checkpoint_dir, store->name(),
                       *initial, options_.refit.fault);
    }
    store->publish(std::move(initial));
  }

  scheduler_->start();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::run() {
  while (!stop_.load() && !ckpt::shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
  }
  stop();
}

void Server::request_stop() noexcept { stop_.store(true); }

void Server::stop() {
  if (!started_.load()) return;
  stop_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (Session& session : session_threads_) {
      if (session.thread.joinable()) session.thread.join();
    }
    session_threads_.clear();
  }
  // The scheduler drains pending batches before exiting (publishing
  // and persisting each), so acknowledged INGESTs survive the drain.
  scheduler_->stop_and_join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!options_.socket_path.empty()) {
      ::unlink(options_.socket_path.c_str());
    }
  }
  // Final checkpoints: every store's published snapshot is on disk.
  // stop() also runs from the destructor, so a failed write logs
  // instead of throwing (every published epoch was already persisted
  // before publish — this write is belt-and-braces, not correctness).
  for (GraphStore* store : registry_.stores()) {
    try {
      persist_snapshot(options_.refit.checkpoint_dir, store->name(),
                       *store->acquire(), options_.refit.fault);
    } catch (const std::exception& e) {
      HSBP_LOG_ERROR("serve: final checkpoint of '%s' failed: %s",
                     store->name().c_str(), e.what());
    }
  }
  started_.store(false);
}

ServerStats Server::stats() const {
  ServerStats out;
  out.queries = queries_.load();
  out.errors = errors_.load();
  out.ingests = ingests_.load();
  out.refits = scheduler_->refits_completed();
  out.sessions = sessions_.load();
  out.shed = shed_.load();
  out.timeouts = timeouts_.load();
  out.active_sessions = active_sessions_.load();
  out.queue_depth = queue_depth();
  return out;
}

std::uint64_t Server::queue_depth() const {
  std::uint64_t depth = 0;
  const Registry& registry = registry_;
  for (const GraphStore* store : registry.stores()) {
    depth += store->pending_batches();
  }
  return depth;
}

// ------------------------------------------------------------ threads

void Server::reap_finished_sessions() {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (auto it = session_threads_.begin(); it != session_threads_.end();) {
    if (it->done->load()) {
      if (it->thread.joinable()) it->thread.join();
      it = session_threads_.erase(it);
    } else {
      ++it;
    }
  }
}

/// Refuses one over-cap connection: one `ERR busy retry-after <ms>`
/// frame (under a short write deadline — a shed peer gets no chance to
/// park this thread either), then close.
void Server::shed_connection(int fd) {
  ++shed_;
  const std::string reply = err_reply(
      "busy retry-after " + std::to_string(options_.retry_after_ms) +
      " sessions at cap");
  const int deadline = options_.frame_timeout_ms >= 0 &&
                               options_.frame_timeout_ms < 250
                           ? options_.frame_timeout_ms
                           : 250;
  write_frame(fd, reply, deadline, &stop_, options_.net_fault);
  ::close(fd);
}

void Server::accept_loop() {
  while (!stop_.load() && !ckpt::shutdown_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    // Reap on EVERY tick, not only on new accepts: idle and
    // deadline-cut sessions must be collected even when no client ever
    // connects again (the thread-leak window ISSUE 8 closes).
    reap_finished_sessions();
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    ++sessions_;
    if (options_.max_sessions > 0 &&
        active_sessions_.load() >=
            static_cast<std::uint64_t>(options_.max_sessions)) {
      shed_connection(fd);
      continue;
    }
    ++active_sessions_;
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    session_threads_.push_back(Session{
        std::thread([this, fd, done] {
          session_loop(fd);
          done->store(true);
        }),
        done});
  }
}

void Server::session_loop(int fd) {
  std::string payload;
  const FrameDeadline deadline{options_.idle_timeout_ms,
                               options_.frame_timeout_ms};
  while (!stop_.load() && !ckpt::shutdown_requested()) {
    const IoStatus read_status = read_frame(fd, payload, deadline, &stop_,
                                            options_.net_fault);
    if (read_status == IoStatus::Timeout) {
      // A silent or mid-frame-stalled peer: cut it loose. Best-effort
      // courtesy reply — the peer may be long gone.
      ++timeouts_;
      write_frame(fd, err_reply("timeout"), /*deadline_ms=*/100, &stop_,
                  options_.net_fault);
      break;
    }
    if (read_status != IoStatus::Ok) break;  // EOF/torn/oversized/drain
    const std::string reply = handle(payload);
    ++queries_;
    if (!is_ok(reply)) ++errors_;
    const IoStatus write_status = write_frame(
        fd, reply, options_.frame_timeout_ms, &stop_, options_.net_fault);
    if (write_status == IoStatus::Timeout) {
      ++timeouts_;  // peer stopped draining its socket mid-reply
      break;
    }
    if (write_status != IoStatus::Ok) break;
    // SHUTDOWN acknowledges first, then stops (drain includes us). The
    // stop flag doubles as every frame write's cancel flag, so raising
    // it before the ack went out would cancel the ack itself.
    if (payload.substr(0, 8) == "SHUTDOWN" && is_ok(reply)) {
      request_stop();
      break;
    }
  }
  ::close(fd);
  --active_sessions_;
}

// ------------------------------------------------------------ requests

std::string Server::handle(const std::string& payload) {
  std::string error;
  const std::optional<Request> parsed = parse_request(payload, error);
  if (!parsed) return err_reply(error);
  const Request& request = *parsed;

  switch (request.verb) {
    case Verb::Ping:
      return ok_reply("pong");
    case Verb::List: {
      const auto names = registry_.names();
      std::string detail = std::to_string(names.size());
      for (const auto& name : names) {
        detail += ' ';
        detail += name;
      }
      return ok_reply(detail);
    }
    case Verb::Stats: {
      const ServerStats s = stats();
      return ok_reply("queries=" + std::to_string(s.queries) +
                      " errors=" + std::to_string(s.errors) +
                      " ingests=" + std::to_string(s.ingests) +
                      " refits=" + std::to_string(s.refits) +
                      " sessions=" + std::to_string(s.sessions) +
                      " shed=" + std::to_string(s.shed) +
                      " timeouts=" + std::to_string(s.timeouts) +
                      " active_sessions=" +
                      std::to_string(s.active_sessions) +
                      " queue_depth=" + std::to_string(s.queue_depth));
    }
    case Verb::Health: {
      // The overload gauges alone — what a load balancer polls.
      return ok_reply(
          "active_sessions=" + std::to_string(active_sessions_.load()) +
          " queue_depth=" + std::to_string(queue_depth()) +
          " shed=" + std::to_string(shed_.load()) +
          " timeouts=" + std::to_string(timeouts_.load()));
    }
    case Verb::Shutdown:
      // The session loop raises the stop flag AFTER this ack is on the
      // wire (the flag cancels in-flight frame writes, ack included).
      return ok_reply("draining");
    default:
      break;
  }

  GraphStore* store = registry_.find(request.graph);
  if (store == nullptr) {
    return err_reply("unknown graph '" + request.graph + "'");
  }

  if (request.verb == Verb::Ingest) {
    const auto pending = store->try_enqueue(
        std::vector<graph::Edge>(request.edges.begin(),
                                 request.edges.end()),
        options_.max_pending_batches);
    if (!pending.has_value()) {
      // Backpressure, not failure: the refit queue is at its bound, so
      // the batch is refused while the session (and every acknowledged
      // batch before it) stays intact.
      ++shed_;
      return err_reply(
          "busy retry-after " + std::to_string(options_.retry_after_ms) +
          " ingest queue full for '" + request.graph + "'");
    }
    ++ingests_;
    scheduler_->notify();
    const auto snapshot = store->acquire();
    return ok_reply("queued=" + std::to_string(request.edges.size()) +
                    " epoch=" + std::to_string(snapshot->epoch) +
                    " pending=" + std::to_string(*pending));
  }

  // Pure queries: everything below reads one acquired snapshot and
  // never touches shared state again — the isolation contract.
  const std::shared_ptr<const Snapshot> snapshot = store->acquire();
  switch (request.verb) {
    case Verb::Info:
      return ok_reply(
          "vertices=" + std::to_string(snapshot->graph->num_vertices()) +
          " edges=" + std::to_string(snapshot->graph->num_edges()) +
          " blocks=" + std::to_string(snapshot->num_blocks) +
          " epoch=" + std::to_string(snapshot->epoch) +
          " mdl=" + fmt(snapshot->mdl) +
          " modularity=" + fmt(snapshot->modularity) +
          " pending=" + std::to_string(store->pending_batches()));
    case Verb::Epoch:
      return ok_reply(std::to_string(snapshot->epoch));
    case Verb::Modularity:
      return ok_reply(fmt(snapshot->modularity));
    case Verb::Mdl:
      return ok_reply(fmt(snapshot->mdl) + " " +
                      std::to_string(snapshot->num_blocks));
    case Verb::Member: {
      if (request.argument >= snapshot->graph->num_vertices()) {
        return err_reply("vertex " + std::to_string(request.argument) +
                         " outside [0, " +
                         std::to_string(snapshot->graph->num_vertices()) +
                         ")");
      }
      return ok_reply(std::to_string(
          snapshot->assignment[static_cast<std::size_t>(
              request.argument)]));
    }
    case Verb::Community: {
      if (request.argument >= snapshot->num_blocks) {
        return err_reply("block " + std::to_string(request.argument) +
                         " outside [0, " +
                         std::to_string(snapshot->num_blocks) + ")");
      }
      std::string detail;
      std::size_t count = 0;
      for (std::size_t v = 0; v < snapshot->assignment.size(); ++v) {
        if (snapshot->assignment[v] ==
            static_cast<std::int32_t>(request.argument)) {
          detail += ' ';
          detail += std::to_string(v);
          ++count;
        }
      }
      return ok_reply(std::to_string(count) + detail);
    }
    default:
      return err_reply("unhandled verb");  // unreachable
  }
}

}  // namespace hsbp::serve

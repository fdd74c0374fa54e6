/// \file fault_injector.hpp
/// \brief Deterministic fault injection for the checkpoint subsystem.
///
/// The injector is a passive hook object threaded through
/// CheckpointConfig::fault (normally null). The durability tests arm it
/// to reproduce, deterministically, the three failures a long run meets
/// in practice:
///
///   fail_write(n)         — the nth atomic write dies before any byte
///                           reaches its destination (disk full, EIO);
///                           the previous checkpoint must survive.
///   truncate_write(n, k)  — the nth atomic write persists only its
///                           first k bytes yet still gets renamed into
///                           place (a torn write: rename was durable,
///                           data was not); the loader must reject it.
///   kill_at_phase(n)      — SimulatedKill is thrown from the nth
///                           phase boundary, after that boundary's
///                           checkpoint was written — the moral
///                           equivalent of `kill -9` between phases.
///
/// Counters are 1-based and monotonically increasing across one run, so
/// "the nth write" is well-defined and reproducible.
///
/// The serving daemon (src/serve/) extends the same object with
/// *network* faults, injected at the frame-I/O seam (serve/protocol
/// read_frame/write_frame). These reproduce what a hostile or flaky
/// network does to a long-lived daemon:
///
///   net_delay_read(n, ms)   — the nth frame read stalls `ms` before a
///                             byte is delivered (a slow or stalled
///                             peer; drives the read-deadline paths).
///   net_tear_write(n, k)    — the nth frame write puts only its first
///                             k bytes on the wire, then hard-closes
///                             the connection (the peer sees a torn
///                             frame mid-payload).
///   net_drop_read(n) /      — the connection dies immediately before
///   net_drop_write(n)         the nth frame read/write (a mid-request
///                             disconnect; drives client retry).
///   net_chunk_writes(k)     — every frame write is split into k-byte
///                             send() calls (not a failure: a stressor
///                             for the short-write retry loop).
///
/// Frame-op counters are atomic — one injector is shared by every
/// session thread of a daemon, so "the nth frame write" counts wire
/// operations across the whole process, in order.
#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>

namespace hsbp::ckpt {

/// Thrown by FaultInjector::on_phase_boundary to simulate an abrupt
/// process death between phases. Library code never catches it; the
/// test harness does, then resumes from the checkpoint left behind.
struct SimulatedKill : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class FaultInjector {
 public:
  /// Arm the nth (1-based) atomic write to fail cleanly.
  void fail_write(int nth) noexcept { fail_write_at_ = nth; }

  /// Arm the nth (1-based) atomic write to persist only `bytes` bytes.
  void truncate_write(int nth, std::size_t bytes) noexcept {
    truncate_at_ = nth;
    truncate_bytes_ = bytes;
  }

  /// Arm a SimulatedKill at the nth (1-based) phase boundary.
  void kill_at_phase(int nth) noexcept { kill_at_ = nth; }

  /// What the atomic writer must do for this write. Each call counts
  /// one write; when the result is Truncate, *truncate_bytes receives
  /// the byte budget.
  enum class WriteFault { None, Fail, Truncate };
  WriteFault on_write(std::size_t* truncate_bytes) noexcept;

  /// Called by sbp::run after each outer phase, after that boundary's
  /// checkpoint was written.
  /// \throws SimulatedKill when the armed boundary is reached.
  void on_phase_boundary();

  int writes_seen() const noexcept { return write_count_; }
  int phases_seen() const noexcept { return phase_count_; }

  // ----------------------------------------------------- network faults

  /// One injected behaviour for one frame-I/O operation.
  struct NetFault {
    enum class Kind {
      None,   ///< proceed normally
      Delay,  ///< sleep `delay_ms` before the operation
      Tear,   ///< write only the first `bytes` bytes, then hard-close
      Drop,   ///< hard-close the connection before the operation
      Chunk,  ///< split the write into `bytes`-sized send() calls
    };
    Kind kind = Kind::None;
    std::size_t bytes = 0;
    int delay_ms = 0;
  };

  /// Arm the nth (1-based, process-wide) frame read to stall `ms`.
  void net_delay_read(int nth, int ms) noexcept {
    net_delay_read_at_ = nth;
    net_delay_ms_ = ms;
  }

  /// Arm the nth (1-based) frame read to drop the connection first.
  void net_drop_read(int nth) noexcept { net_drop_read_at_ = nth; }

  /// Arm the nth (1-based) frame write to persist only `bytes` bytes of
  /// the frame (prefix included) before hard-closing the connection.
  void net_tear_write(int nth, std::size_t bytes) noexcept {
    net_tear_write_at_ = nth;
    net_tear_bytes_ = bytes;
  }

  /// Arm the nth (1-based) frame write to drop the connection first.
  void net_drop_write(int nth) noexcept { net_drop_write_at_ = nth; }

  /// Split EVERY frame write into `chunk`-byte send() calls (0 = off).
  void net_chunk_writes(std::size_t chunk) noexcept {
    net_chunk_bytes_ = chunk;
  }

  /// Consulted once per read_frame / write_frame call by the serve
  /// frame I/O when an injector is threaded through. Thread-safe.
  NetFault on_net_read() noexcept;
  NetFault on_net_write() noexcept;

  int net_reads_seen() const noexcept { return net_read_count_.load(); }
  int net_writes_seen() const noexcept { return net_write_count_.load(); }

 private:
  int write_count_ = 0;
  int phase_count_ = 0;
  int fail_write_at_ = 0;
  int truncate_at_ = 0;
  std::size_t truncate_bytes_ = 0;
  int kill_at_ = 0;

  std::atomic<int> net_read_count_{0};
  std::atomic<int> net_write_count_{0};
  int net_delay_read_at_ = 0;
  int net_delay_ms_ = 0;
  int net_drop_read_at_ = 0;
  int net_tear_write_at_ = 0;
  std::size_t net_tear_bytes_ = 0;
  int net_drop_write_at_ = 0;
  std::size_t net_chunk_bytes_ = 0;
};

}  // namespace hsbp::ckpt

/// \file config.hpp
/// \brief CheckpointConfig — the durability knobs accepted by
/// sbp::run and sample::run. A leaf header (no dependencies on the
/// algorithm layers) so drivers can take it by value without pulling
/// the serialization code into their interface.
#pragma once

#include <string>

namespace hsbp::ckpt {

class FaultInjector;

struct CheckpointConfig {
  /// Where to write snapshots; empty disables checkpointing. The write
  /// is atomic (temp → fsync → rename), so `save_path` always holds
  /// either the previous or the new checkpoint, never a torn one.
  std::string save_path;

  /// Write a snapshot after every N outer phases in addition to the
  /// unconditional snapshots at completion and shutdown. Values < 1
  /// mean "only the unconditional ones".
  int every_phases = 1;

  /// Load state from this file before starting; empty means cold
  /// start. Resuming validates the snapshot's graph fingerprint and
  /// (variant, seed) against the live run and fails loudly on any
  /// mismatch — resuming against the wrong graph or config would
  /// silently produce garbage.
  std::string resume_path;

  /// Deterministic fault-injection hook; normally null. Owned by the
  /// caller (the test harness).
  FaultInjector* fault = nullptr;

  bool enabled() const noexcept {
    return !save_path.empty() || !resume_path.empty();
  }
};

}  // namespace hsbp::ckpt

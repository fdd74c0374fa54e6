/// \file golden_search.hpp
/// \brief Golden-section ("fibonacci", per the paper) search over the
/// number of communities.
///
/// SBP cannot split blocks, only merge them, so the search always
/// produces a probe by warm-starting from a snapshot with MORE blocks
/// and merging down. Two regimes:
///
///   Descent (no bracket yet): each probe removes half of the current
///   best's blocks (the paper halves the communities). The descent
///   ends when a probe's MDL is worse than the best seen — that probe
///   becomes the lower end of the bracket.
///
///   Bracketed: three snapshots lower.B < mid.B < upper.B with mid
///   holding the best MDL. Each probe lands at the golden section of
///   the wider interval, warm-started from the snapshot just above it;
///   the bracket contracts classically until no interior points remain.
#pragma once

#include <cstdint>
#include <vector>

#include "blockmodel/blockmodel.hpp"

namespace hsbp::sbp {

/// A saved partition: membership, block count, and achieved MDL.
struct Snapshot {
  std::vector<std::int32_t> assignment;
  blockmodel::BlockId num_blocks = 0;
  double mdl = 0.0;
};

class GoldenSearch {
 public:
  /// The complete search state — the three bracket snapshots plus the
  /// regime flags — as captured by (and restored from) checkpoints.
  /// Unset snapshots are represented with num_blocks == 0 and an empty
  /// assignment.
  struct State {
    Snapshot upper;
    Snapshot mid;
    Snapshot lower;
    bool have_mid = false;
    bool have_lower = false;
    bool done = false;
  };

  /// \param initial an evaluated starting partition (normally the
  /// identity partition with its MDL); it seeds the upper bracket end.
  explicit GoldenSearch(Snapshot initial);

  /// Resumes a search from an exported state (checkpoint restore).
  explicit GoldenSearch(State state);

  /// Exports the full search state for checkpointing.
  State export_state() const;

  /// True once the bracket has closed (or the descent bottomed out at
  /// one block); best() is then the answer.
  bool done() const noexcept { return done_; }

  bool bracket_established() const noexcept { return have_lower_; }

  struct Probe {
    const Snapshot* warm_start;         ///< partition to merge down from
    blockmodel::BlockId target_blocks;  ///< block count to merge to
  };

  /// Next probe to evaluate. \pre !done().
  Probe next_probe() const;

  /// Records the evaluated probe and updates the bracket. The snapshot's
  /// num_blocks may differ from the requested target (merges can stall);
  /// the search uses the actual value.
  void record(Snapshot snapshot);

  /// Best snapshot seen. \pre at least one record() call (or the initial
  /// snapshot stands in).
  const Snapshot& best() const noexcept { return mid_; }

 private:
  void update_done();

  Snapshot upper_;          // largest B end (starts as the initial partition)
  Snapshot mid_;            // best MDL so far
  Snapshot lower_;          // smallest B end (valid once have_lower_)
  bool have_mid_ = false;
  bool have_lower_ = false;
  bool done_ = false;
};

}  // namespace hsbp::sbp

#include "sbp/golden_search.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hsbp::sbp {

using blockmodel::BlockId;

namespace {

constexpr double kGoldenSection = 0.381966;  // 2 − φ
/// Fraction of blocks a descent probe removes (the paper halves them).
constexpr double kReductionRate = 0.5;

BlockId shrink(BlockId blocks) {
  const auto removed = std::max<BlockId>(
      1, static_cast<BlockId>(
             std::llround(static_cast<double>(blocks) * kReductionRate)));
  return std::max<BlockId>(1, blocks - removed);
}

}  // namespace

GoldenSearch::GoldenSearch(Snapshot initial) : upper_(std::move(initial)) {
  if (upper_.num_blocks <= 1) {
    mid_ = upper_;
    have_mid_ = true;
    done_ = true;
  }
}

GoldenSearch::GoldenSearch(State state)
    : upper_(std::move(state.upper)),
      mid_(std::move(state.mid)),
      lower_(std::move(state.lower)),
      have_mid_(state.have_mid),
      have_lower_(state.have_lower),
      done_(state.done) {}

GoldenSearch::State GoldenSearch::export_state() const {
  return {upper_, mid_, lower_, have_mid_, have_lower_, done_};
}

GoldenSearch::Probe GoldenSearch::next_probe() const {
  assert(!done_);
  if (!have_mid_) {
    return {&upper_, shrink(upper_.num_blocks)};
  }
  if (!have_lower_) {
    return {&mid_, shrink(mid_.num_blocks)};
  }
  const BlockId gap_hi = upper_.num_blocks - mid_.num_blocks;
  const BlockId gap_lo = mid_.num_blocks - lower_.num_blocks;
  if (gap_hi >= gap_lo) {
    assert(gap_hi >= 2);
    const auto step = std::max<BlockId>(
        1, static_cast<BlockId>(std::llround(
               kGoldenSection * static_cast<double>(gap_hi))));
    const BlockId target = std::clamp<BlockId>(
        mid_.num_blocks + step, mid_.num_blocks + 1, upper_.num_blocks - 1);
    return {&upper_, target};
  }
  assert(gap_lo >= 2);
  const auto step = std::max<BlockId>(
      1, static_cast<BlockId>(std::llround(
             kGoldenSection * static_cast<double>(gap_lo))));
  const BlockId target = std::clamp<BlockId>(
      mid_.num_blocks - step, lower_.num_blocks + 1, mid_.num_blocks - 1);
  return {&mid_, target};
}

void GoldenSearch::record(Snapshot snapshot) {
  assert(!done_);
  if (!have_mid_) {
    mid_ = std::move(snapshot);
    have_mid_ = true;
    if (mid_.num_blocks <= 1) done_ = true;
    return;
  }

  if (!have_lower_) {
    // Descent: keep halving while the MDL improves.
    if (snapshot.mdl < mid_.mdl) {
      upper_ = std::move(mid_);
      mid_ = std::move(snapshot);
      if (mid_.num_blocks <= 1) done_ = true;
    } else {
      lower_ = std::move(snapshot);
      have_lower_ = true;
      update_done();
    }
    return;
  }

  // Bracketed: classify the probe by block count.
  if (snapshot.num_blocks > mid_.num_blocks) {
    if (snapshot.mdl < mid_.mdl) {
      lower_ = std::move(mid_);
      mid_ = std::move(snapshot);
    } else {
      upper_ = std::move(snapshot);
    }
  } else if (snapshot.num_blocks < mid_.num_blocks) {
    if (snapshot.mdl < mid_.mdl) {
      upper_ = std::move(mid_);
      mid_ = std::move(snapshot);
    } else {
      lower_ = std::move(snapshot);
    }
  } else {
    // Merge stalled exactly on mid's block count: close the gap the
    // probe came from (the wider one) so the search still contracts.
    if (upper_.num_blocks - mid_.num_blocks >=
        mid_.num_blocks - lower_.num_blocks) {
      if (snapshot.mdl < mid_.mdl) mid_ = snapshot;
      upper_ = std::move(snapshot);
    } else {
      if (snapshot.mdl < mid_.mdl) mid_ = snapshot;
      lower_ = std::move(snapshot);
    }
  }
  update_done();
}

void GoldenSearch::update_done() {
  if (!have_lower_) return;
  const BlockId gap_hi = upper_.num_blocks - mid_.num_blocks;
  const BlockId gap_lo = mid_.num_blocks - lower_.num_blocks;
  if (gap_hi < 2 && gap_lo < 2) done_ = true;
  // The bracket can only close onto the better of mid/lower/upper; make
  // sure mid holds the best of the three at closure.
  if (done_) {
    if (lower_.mdl < mid_.mdl) mid_ = lower_;
    if (upper_.mdl < mid_.mdl) mid_ = upper_;
  }
}

}  // namespace hsbp::sbp

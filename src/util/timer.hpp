/// \file timer.hpp
/// \brief Wall-clock timing utilities used by the evaluation harness to
/// attribute runtime to the block-merge vs. MCMC phases (paper Fig. 2).
#pragma once

#include <chrono>

namespace hsbp::util {

/// Simple steady-clock timer: construct (or reset()) to start, elapsed()
/// to read without stopping.
class Timer {
 public:
  Timer() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  /// Seconds since construction/reset.
  double elapsed() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulating stopwatch: repeatedly start()/stop(); total() is the sum
/// of all completed intervals. Not thread-safe (one per measuring site).
class Stopwatch {
 public:
  void start() noexcept {
    running_ = true;
    timer_.reset();
  }

  /// Stops and returns the length of the just-finished interval.
  double stop() noexcept {
    if (!running_) return 0.0;
    running_ = false;
    const double interval = timer_.elapsed();
    total_ += interval;
    return interval;
  }

  double total() const noexcept { return total_; }

 private:
  Timer timer_;
  double total_ = 0.0;
  bool running_ = false;
};

}  // namespace hsbp::util

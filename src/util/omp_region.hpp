/// \file omp_region.hpp
/// \brief Zero-capture OpenMP parallel regions with a fork/join edge
/// ThreadSanitizer can see.
///
/// A plain `#pragma omp parallel` hands its shared state to the team
/// through a compiler-generated capture struct on the forking thread's
/// stack. Pooled libgomp workers read that struct at region entry,
/// ordered only by futex barriers TSan has no interceptors for — so
/// under -fsanitize=thread every region entry is reported as a race
/// between the serial capture writes and the workers' first reads, and
/// there is no point inside the region early enough to bridge it.
///
/// omp_region() removes the capture struct instead of annotating it:
/// the serial caller stores the closure's address in a namespace-scope
/// slot, bumps the shared atomic gate (release), and opens a
/// `default(none)` region that lexically references no locals at all.
/// Each team thread's first action is another gate bump (acquire) —
/// the RMW chain on the gate hands TSan the happens-before edge the
/// real fork barrier already enforces — after which it calls the
/// closure through the slot. The join edge is bridged the same way in
/// reverse (per-thread release at region end, serial acquire after).
///
/// Phases that hand data across threads run as consecutive regions, so
/// the join and fork edges bridge the handoff too.
///
/// Not reentrant: one region at a time, entered from serial code only
/// (asserted). All no-ops-but-the-pragmas outside -fsanitize=thread.
#pragma once

#include <omp.h>

#include <cassert>

#include "util/tsan_sync.hpp"

namespace hsbp::util {

/// Closure handoff slot: written serially before the region, read by
/// every team thread after the entry acquire.
inline const void* omp_region_body = nullptr;

template <class F>
inline void omp_region(const F& body) {
  assert(!omp_in_parallel());
  omp_region_body = &body;
  tsan_omp_sync();  // release the closure and everything before it
#pragma omp parallel default(none) shared(omp_region_body)
  {
    tsan_omp_sync();  // acquire the fork edge
    (*static_cast<const F*>(omp_region_body))();
    tsan_omp_sync();  // release this thread's region writes
  }
  tsan_omp_sync();  // acquire the join edge
}

/// How a driver applies its `num_threads`: sets the OpenMP team size to
/// `threads` for one scope when `threads` > 0, and restores the caller's
/// on exit so a run's thread count never leaks into later regions.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) : saved_(omp_get_max_threads()) {
    if (threads > 0) omp_set_num_threads(threads);
  }
  ~ScopedThreads() { omp_set_num_threads(saved_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int saved_;
};

}  // namespace hsbp::util

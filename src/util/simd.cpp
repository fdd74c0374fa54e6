#include "util/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define HSBP_SIMD_X86 1
#include <immintrin.h>
#else
#define HSBP_SIMD_X86 0
#endif

namespace hsbp::util::simd {
namespace {

// -1 = unresolved; otherwise the Level value. Relaxed is enough: the
// value is write-once-ish configuration, not a synchronization point.
std::atomic<int> g_level{-1};

Level detect_max_level() noexcept {
#if HSBP_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
  if (__builtin_cpu_supports("sse2")) return Level::kSse2;
#endif
  return Level::kScalar;
}

Level clamp_to_host(Level requested) noexcept {
  const Level max = max_supported_level();
  if (static_cast<int>(requested) <= static_cast<int>(max)) return requested;
  std::fprintf(stderr,
               "hsbp: HSBP_SIMD=%s not supported on this CPU, using %s\n",
               level_name(requested), level_name(max));
  return max;
}

Level resolve_initial_level() noexcept {
  if (const char* env = std::getenv("HSBP_SIMD")) {
    if (const auto parsed = parse_level(env)) return clamp_to_host(*parsed);
  }
  return max_supported_level();
}

}  // namespace

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
      break;
  }
  return "scalar";
}

std::optional<Level> parse_level(std::string_view name) noexcept {
  if (name == "scalar") return Level::kScalar;
  if (name == "sse2") return Level::kSse2;
  if (name == "avx2") return Level::kAvx2;
  return std::nullopt;
}

Level max_supported_level() noexcept {
  static const Level max = detect_max_level();
  return max;
}

Level active_level() noexcept {
  int raw = g_level.load(std::memory_order_relaxed);
  if (raw < 0) {
    raw = static_cast<int>(resolve_initial_level());
    int expected = -1;
    // Lost race → another thread resolved the same value anyway.
    g_level.compare_exchange_strong(expected, raw, std::memory_order_relaxed);
  }
  return static_cast<Level>(raw);
}

void set_level(Level level) noexcept {
  g_level.store(static_cast<int>(clamp_to_host(level)),
                std::memory_order_relaxed);
}

bool audit_enabled() noexcept {
  static const bool enabled = std::getenv("HSBP_SIMD_AUDIT") != nullptr;
  return enabled;
}

// ---------------------------------------------------------------------------
// strided_sum
// ---------------------------------------------------------------------------

namespace {

double strided_sum_scalar(const double* terms, std::size_t n) noexcept {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += terms[i];
    l1 += terms[i + 1];
    l2 += terms[i + 2];
    l3 += terms[i + 3];
  }
  if (i < n) l0 += terms[i];
  if (i + 1 < n) l1 += terms[i + 1];
  if (i + 2 < n) l2 += terms[i + 2];
  return (l0 + l1) + (l2 + l3);
}

#if HSBP_SIMD_X86

double strided_sum_sse2(const double* terms, std::size_t n) noexcept {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc01 = _mm_add_pd(acc01, _mm_loadu_pd(terms + i));
    acc23 = _mm_add_pd(acc23, _mm_loadu_pd(terms + i + 2));
  }
  alignas(16) double lanes[4];
  _mm_store_pd(lanes, acc01);
  _mm_store_pd(lanes + 2, acc23);
  for (; i < n; ++i) lanes[i & 3] += terms[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

__attribute__((target("avx2"))) double strided_sum_avx2(
    const double* terms, std::size_t n) noexcept {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(terms + i));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[i & 3] += terms[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

#endif  // HSBP_SIMD_X86

}  // namespace

double strided_sum(const double* terms, std::size_t n) noexcept {
#if HSBP_SIMD_X86
  double got;
  switch (active_level()) {
    case Level::kAvx2:
      got = strided_sum_avx2(terms, n);
      break;
    case Level::kSse2:
      got = strided_sum_sse2(terms, n);
      break;
    default:
      return strided_sum_scalar(terms, n);
  }
  if (audit_enabled()) {
    const double ref = strided_sum_scalar(terms, n);
    if (std::memcmp(&ref, &got, sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "hsbp: HSBP_SIMD_AUDIT strided_sum diverged: n=%zu "
                   "got=%.17g scalar=%.17g\n",
                   n, got, ref);
      std::abort();
    }
  }
  return got;
#else
  return strided_sum_scalar(terms, n);
#endif
}

// ---------------------------------------------------------------------------
// ratio_pair_sums
// ---------------------------------------------------------------------------

namespace {

void ratio_pair_sums_scalar(const double* kd, const double* fnum,
                            const double* fden, const double* bnum,
                            const double* bden, std::size_t n,
                            double* forward, double* backward) noexcept {
  double fl[4] = {0.0, 0.0, 0.0, 0.0};
  double bl[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    fl[i & 3] += kd[i] * fnum[i] / fden[i];
    bl[i & 3] += kd[i] * bnum[i] / bden[i];
  }
  *forward = (fl[0] + fl[1]) + (fl[2] + fl[3]);
  *backward = (bl[0] + bl[1]) + (bl[2] + bl[3]);
}

#if HSBP_SIMD_X86

void ratio_pair_sums_sse2(const double* kd, const double* fnum,
                          const double* fden, const double* bnum,
                          const double* bden, std::size_t n, double* forward,
                          double* backward) noexcept {
  __m128d f01 = _mm_setzero_pd(), f23 = _mm_setzero_pd();
  __m128d b01 = _mm_setzero_pd(), b23 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d k01 = _mm_loadu_pd(kd + i);
    const __m128d k23 = _mm_loadu_pd(kd + i + 2);
    f01 = _mm_add_pd(f01, _mm_div_pd(_mm_mul_pd(k01, _mm_loadu_pd(fnum + i)),
                                     _mm_loadu_pd(fden + i)));
    f23 = _mm_add_pd(f23,
                     _mm_div_pd(_mm_mul_pd(k23, _mm_loadu_pd(fnum + i + 2)),
                                _mm_loadu_pd(fden + i + 2)));
    b01 = _mm_add_pd(b01, _mm_div_pd(_mm_mul_pd(k01, _mm_loadu_pd(bnum + i)),
                                     _mm_loadu_pd(bden + i)));
    b23 = _mm_add_pd(b23,
                     _mm_div_pd(_mm_mul_pd(k23, _mm_loadu_pd(bnum + i + 2)),
                                _mm_loadu_pd(bden + i + 2)));
  }
  alignas(16) double fl[4], bl[4];
  _mm_store_pd(fl, f01);
  _mm_store_pd(fl + 2, f23);
  _mm_store_pd(bl, b01);
  _mm_store_pd(bl + 2, b23);
  for (; i < n; ++i) {
    fl[i & 3] += kd[i] * fnum[i] / fden[i];
    bl[i & 3] += kd[i] * bnum[i] / bden[i];
  }
  *forward = (fl[0] + fl[1]) + (fl[2] + fl[3]);
  *backward = (bl[0] + bl[1]) + (bl[2] + bl[3]);
}

__attribute__((target("avx2"))) void ratio_pair_sums_avx2(
    const double* kd, const double* fnum, const double* fden,
    const double* bnum, const double* bden, std::size_t n, double* forward,
    double* backward) noexcept {
  __m256d facc = _mm256_setzero_pd();
  __m256d bacc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d k = _mm256_loadu_pd(kd + i);
    facc = _mm256_add_pd(
        facc, _mm256_div_pd(_mm256_mul_pd(k, _mm256_loadu_pd(fnum + i)),
                            _mm256_loadu_pd(fden + i)));
    bacc = _mm256_add_pd(
        bacc, _mm256_div_pd(_mm256_mul_pd(k, _mm256_loadu_pd(bnum + i)),
                            _mm256_loadu_pd(bden + i)));
  }
  alignas(32) double fl[4], bl[4];
  _mm256_store_pd(fl, facc);
  _mm256_store_pd(bl, bacc);
  for (; i < n; ++i) {
    fl[i & 3] += kd[i] * fnum[i] / fden[i];
    bl[i & 3] += kd[i] * bnum[i] / bden[i];
  }
  *forward = (fl[0] + fl[1]) + (fl[2] + fl[3]);
  *backward = (bl[0] + bl[1]) + (bl[2] + bl[3]);
}

#endif  // HSBP_SIMD_X86

}  // namespace

void ratio_pair_sums(const double* kd, const double* fnum, const double* fden,
                     const double* bnum, const double* bden, std::size_t n,
                     double* forward, double* backward) noexcept {
#if HSBP_SIMD_X86
  switch (active_level()) {
    case Level::kAvx2:
      ratio_pair_sums_avx2(kd, fnum, fden, bnum, bden, n, forward, backward);
      break;
    case Level::kSse2:
      ratio_pair_sums_sse2(kd, fnum, fden, bnum, bden, n, forward, backward);
      break;
    case Level::kScalar:
      ratio_pair_sums_scalar(kd, fnum, fden, bnum, bden, n, forward, backward);
      return;
  }
  if (audit_enabled()) {
    double rf = 0.0, rb = 0.0;
    ratio_pair_sums_scalar(kd, fnum, fden, bnum, bden, n, &rf, &rb);
    if (std::memcmp(&rf, forward, sizeof(double)) != 0 ||
        std::memcmp(&rb, backward, sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "hsbp: HSBP_SIMD_AUDIT ratio_pair_sums diverged: n=%zu "
                   "fwd=%.17g scalar=%.17g bwd=%.17g scalar=%.17g\n",
                   n, *forward, rf, *backward, rb);
      std::abort();
    }
  }
#else
  ratio_pair_sums_scalar(kd, fnum, fden, bnum, bden, n, forward, backward);
#endif
}

}  // namespace hsbp::util::simd

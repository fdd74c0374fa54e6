/// \file simd.hpp
/// \brief Runtime-dispatched SIMD layer for the ΔMDL / Hastings hot
/// loops (DESIGN §13).
///
/// Three dispatch levels — kScalar, kSse2, kAvx2 — resolved once at
/// startup from CPUID, overridable with the HSBP_SIMD environment
/// variable (`scalar|sse2|avx2|auto`) or programmatically via
/// set_level() (the bit-identity tests force each level in turn).
/// Requests above what the host supports clamp down with a warning.
///
/// Bit-identity contract: every level of every kernel produces the
/// SAME bits. Per-element terms are single IEEE-754 operations (sub,
/// mul, div) that vector lanes and scalar registers evaluate
/// identically, and sums use one canonical *strided-4* accumulation
/// order, independent of the hardware vector width:
///
///     lane[j] += term[i]  for j = i mod 4;
///     result  = (lane[0] + lane[1]) + (lane[2] + lane[3])
///
/// A 4-lane AVX2 accumulator implements this directly; SSE2 uses two
/// 2-lane accumulators covering lanes {0,1} and {2,3}; the scalar path
/// keeps four named doubles. Each logical lane sees the same addends in
/// the same order at every level, so the sums agree bit-for-bit — which
/// is what lets the scalar path serve as the audited reference for the
/// vector paths (enforced by tests/test_blockmodel_simd.cpp with exact
/// ==, never EXPECT_NEAR).
///
/// This header holds the dispatch machinery and the generic
/// (table-free) kernels; the xlogx-table kernels live in
/// blockmodel/simd_kernels.hpp because util cannot depend on
/// blockmodel.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace hsbp::util::simd {

/// Dispatch level, ordered: higher levels require all lower ones.
enum class Level : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Name as accepted by HSBP_SIMD ("scalar", "sse2", "avx2").
const char* level_name(Level level) noexcept;

/// Parses a HSBP_SIMD value; "auto" and unknown strings map to nullopt
/// (= use the best supported level).
std::optional<Level> parse_level(std::string_view name) noexcept;

/// Best level this CPU supports (compile-time capped to kScalar on
/// non-x86 targets).
Level max_supported_level() noexcept;

/// The active level: HSBP_SIMD override if set (clamped to the host's
/// support), else max_supported_level(). Resolved once, then a relaxed
/// atomic read.
Level active_level() noexcept;

/// Forces the active level (clamped to the host's support) — the test
/// hook behind the forced-dispatch bit-identity suite. Not for use
/// while parallel regions are running kernels.
void set_level(Level level) noexcept;

/// True when HSBP_SIMD_AUDIT is set: every vector kernel call re-runs
/// its scalar reference and aborts (with the inputs on stderr) on the
/// first bitwise divergence. Debug-only — roughly doubles kernel cost —
/// but checks the bit-identity contract on REAL workload inputs, which
/// reach shapes the randomized tests may not (e.g. transiently negative
/// staged counts from async-phase staleness). Resolved once per process.
bool audit_enabled() noexcept;

/// Strided-4 sum of num[i] / den[i] — kept for completeness/tests of
/// the canonical order on plain arrays.
double strided_sum(const double* terms, std::size_t n) noexcept;

/// The Hastings pair: forward = Σ4 kd[i]*fnum[i]/fden[i] and
/// backward = Σ4 kd[i]*bnum[i]/bden[i], both in the canonical strided-4
/// order. Per-element term order is ((kd*num)/den), matching the scalar
/// reference expression `kd * num / den`.
void ratio_pair_sums(const double* kd, const double* fnum,
                     const double* fden, const double* bnum,
                     const double* bden, std::size_t n, double* forward,
                     double* backward) noexcept;

}  // namespace hsbp::util::simd

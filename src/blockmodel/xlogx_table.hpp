/// \file xlogx_table.hpp
/// \brief Precomputed x·log x for small integer counts, in double and in
/// order-independent fixed point.
///
/// Every ΔMDL kernel is dominated by xlogx() over M_rs cells and block
/// degrees. Early in a run (C ≈ V) almost every count is a small
/// integer — most cells hold 1 or 2 — so a table lookup replaces the
/// libm log() call on the overwhelming majority of evaluations. Table
/// entries are computed with the exact same expression as the fallback
/// (`x * std::log(x)`), so table hits are bit-identical to computing:
/// the optimized kernels stay bit-for-bit equal to the reference ones.
///
/// The fixed-point variant exists for the *incrementally maintained*
/// log-likelihood (DESIGN §11): the Blockmodel keeps Σ xlogx(M_rs) and
/// Σ xlogx(d) as integers scaled by 2^kLlFixedShift. Integer addition
/// is commutative and associative, so a sum maintained one move at a
/// time equals a from-scratch rescan *exactly*, regardless of slice
/// iteration order — which floating-point accumulation cannot promise.
/// Terms are quantized once (per count value), not per use, so the
/// delta-applied and rebuilt states agree bit-for-bit. The accumulator
/// is __int128: at shift 40 a single term reaches ~2^85 for the largest
/// representable counts, far past int64, while the 2^-41 per-term
/// rounding error keeps the decoded double well inside the 1e-9
/// tolerances the MDL tests use.
#pragma once

#include <cmath>
#include <cstdint>

#include "blockmodel/dict_transpose_matrix.hpp"

namespace hsbp::blockmodel {

inline constexpr std::size_t kXlogxTableSize = 4096;

/// Fixed-point accumulator for Σ xlogx terms (scaled by 2^kLlFixedShift).
__extension__ typedef __int128 LlFixed;

inline constexpr int kLlFixedShift = 40;

namespace detail {
/// xlogx_table[x] == x * std::log(x) for x in [0, kXlogxTableSize),
/// with the conventional 0·log 0 = 0. Filled once at startup.
extern const double* const xlogx_table;
/// xlogx_fixed_table[x] == rint(xlogx_table[x] * 2^kLlFixedShift).
extern const std::int64_t* const xlogx_fixed_table;
/// xlogx_fixed_step_table[x] == xlogx_fixed(x+1) - xlogx_fixed(x): the
/// canonical quantized change of a Σ xlogx sum when a count steps
/// x → x+1. Differences of the canonical per-count values, never a
/// separately rounded quantity, so step-maintained sums stay
/// bit-identical to rescans.
extern const std::int64_t* const xlogx_fixed_step_table;
}  // namespace detail

/// x·log x for an integer count: table lookup below kXlogxTableSize,
/// std::log fallback above. A negative count, which a stale A-SBP view
/// can stage (DESIGN §13), takes the fallback and gives NaN.
inline double xlogx_count(Count x) noexcept {
  if (static_cast<std::uint64_t>(x) < kXlogxTableSize) {
    return detail::xlogx_table[static_cast<std::size_t>(x)];
  }
  const double xd = static_cast<double>(x);
  return xd * std::log(xd);
}

/// x·log x quantized to fixed point. The live fallback uses the exact
/// same expression as the table fill, so every count maps to one
/// canonical quantized value no matter where it is evaluated.
inline LlFixed xlogx_fixed(Count x) noexcept {
  if (static_cast<std::uint64_t>(x) < kXlogxTableSize) {
    return detail::xlogx_fixed_table[static_cast<std::size_t>(x)];
  }
  const double xd = static_cast<double>(x);
  return static_cast<LlFixed>(std::rint(xd * std::log(xd) * 0x1p40));
}

/// F(x+1) − F(x) for the canonical quantized xlogx: the exact amount a
/// Σ xlogx(count) accumulator changes when one count steps x → x+1.
/// One table lookup where the plain formulation needs two — this is
/// what keeps move_vertex's per-edge likelihood maintenance cheap.
/// \pre x >= 0.
inline LlFixed xlogx_fixed_step(Count x) noexcept {
  if (static_cast<std::uint64_t>(x) < kXlogxTableSize) {
    return detail::xlogx_fixed_step_table[static_cast<std::size_t>(x)];
  }
  return xlogx_fixed(x + 1) - xlogx_fixed(x);
}

/// Decodes a fixed-point Σ xlogx accumulator back to double.
inline double ll_fixed_to_double(LlFixed v) noexcept {
  return static_cast<double>(v) * 0x1p-40;
}

}  // namespace hsbp::blockmodel

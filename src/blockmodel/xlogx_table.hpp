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
/// The fixed-point variant exists for log_likelihood() (mdl.hpp, DESIGN
/// §11), which sums xlogx(M_rs) and xlogx(d) as integers scaled by
/// 2^kLlFixedShift. Integer addition is commutative and associative, so
/// the sum is the same *exactly* whatever order the slices list their
/// entries in and however the threads split the rows — which
/// floating-point accumulation cannot promise. Terms are quantized once
/// (per count value), not per use, so a delta-applied state and a
/// rebuild of it decode to the same double. The accumulator is __int128:
/// at shift 40 a single term reaches ~2^85 for the largest representable
/// counts, far past int64, while the 2^-41 per-term rounding error keeps
/// the decoded double well inside the 1e-9 tolerances the MDL tests use.
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

/// Decodes a fixed-point Σ xlogx accumulator back to double.
inline double ll_fixed_to_double(LlFixed v) noexcept {
  return static_cast<double>(v) * 0x1p-40;
}

}  // namespace hsbp::blockmodel

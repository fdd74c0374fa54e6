#include "blockmodel/xlogx_table.hpp"

#include <array>

namespace hsbp::blockmodel::detail {

namespace {

std::array<double, kXlogxTableSize> build_table() noexcept {
  std::array<double, kXlogxTableSize> table{};
  table[0] = 0.0;
  for (std::size_t x = 1; x < kXlogxTableSize; ++x) {
    // The exact expression of the std::log fallback, so lookups are
    // bit-identical to computing.
    const double xd = static_cast<double>(x);
    table[x] = xd * std::log(xd);
  }
  return table;
}

const std::array<double, kXlogxTableSize> table_storage = build_table();

std::array<std::int64_t, kXlogxTableSize> build_fixed_table() noexcept {
  std::array<std::int64_t, kXlogxTableSize> table{};
  for (std::size_t x = 0; x < kXlogxTableSize; ++x) {
    // Quantize the double-table value with the same rounding rule as
    // xlogx_fixed's live fallback (rint after a scale by an exact power
    // of two). Max entry ≈ 4095·log 4095·2^40 ≈ 3.7e16, comfortably
    // inside int64.
    table[x] = static_cast<std::int64_t>(std::rint(table_storage[x] * 0x1p40));
  }
  return table;
}

const std::array<std::int64_t, kXlogxTableSize> fixed_table_storage =
    build_fixed_table();

}  // namespace

const double* const xlogx_table = table_storage.data();
const std::int64_t* const xlogx_fixed_table = fixed_table_storage.data();

}  // namespace hsbp::blockmodel::detail

// Bit-manipulation utilities used throughout the bit-accurate datapath model.
//
// The datapath emulation (src/core) needs exact, well-defined semantics for
// the operations real RTL performs: arithmetic right shifts with truncation,
// sign extension of arbitrary-width fields, leading-zero / leading-sign
// counts, and width-bounded wrap-around.  Everything here is constexpr and
// branch-light so the simulator stays fast.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace mpipu {

/// 128-bit signed integer used wherever the paper's worst-case widths
/// (80-bit aligned products, 58-bit shifts) exceed 64 bits.
using int128 = __int128;
using uint128 = unsigned __int128;

/// Number of bits in a type.
template <typename T>
inline constexpr int kBitWidth = static_cast<int>(sizeof(T) * 8);

/// Arithmetic shift right that is well defined for any shift in [0, 127].
/// Shifting a negative value floors toward -inf, exactly like a hardware
/// arithmetic shifter discarding the bits pushed past the LSB.
constexpr int128 asr(int128 v, int shift) {
  assert(shift >= 0);
  if (shift >= 127) return v < 0 ? -1 : 0;
  return v >> shift;
}

/// Logical shift left; asserts the result is representable (no silent UB).
constexpr int128 shl(int128 v, int shift) {
  assert(shift >= 0 && shift < 127);
  return static_cast<int128>(static_cast<uint128>(v) << shift);
}

/// Sign-extend the low `width` bits of `v` (width in [1,128]).
constexpr int128 sign_extend(int128 v, int width) {
  assert(width >= 1 && width <= 128);
  if (width == 128) return v;
  const int s = 128 - width;
  return static_cast<int128>(static_cast<uint128>(v) << s) >> s;
}

/// Mask of the low `n` bits (n in [0,128]).
constexpr uint128 low_mask(int n) {
  assert(n >= 0 && n <= 128);
  if (n == 128) return ~uint128{0};
  return (uint128{1} << n) - 1;
}

/// True iff `v` fits in a signed field of `width` bits.
constexpr bool fits_signed(int128 v, int width) {
  assert(width >= 1 && width <= 128);
  return sign_extend(v, width) == v;
}

/// Truncate `v` to a signed `width`-bit field, i.e. keep the low bits and
/// reinterpret as two's complement.  This models writes into a fixed-width
/// register where upper bits are simply not stored.
constexpr int128 truncate_signed(int128 v, int width) {
  return sign_extend(static_cast<int128>(static_cast<uint128>(v) & low_mask(width)), width);
}

/// Saturate `v` into a signed `width`-bit field.
constexpr int128 saturate_signed(int128 v, int width) {
  assert(width >= 2 && width <= 127);
  const int128 hi = static_cast<int128>(low_mask(width - 1));
  const int128 lo = -hi - 1;
  return v > hi ? hi : (v < lo ? lo : v);
}

/// Position of the most significant set bit of a positive value
/// (0 for v==1); -1 for v==0.  O(1): a leading-zero count on whichever
/// 64-bit half holds the top set bit (countl_zero(0) == 64 yields -1).
constexpr int msb_index(uint128 v) {
  const auto hi = static_cast<uint64_t>(v >> 64);
  if (hi != 0) return 127 - std::countl_zero(hi);
  return 63 - std::countl_zero(static_cast<uint64_t>(v));
}

/// Count of significant bits of the magnitude of `v` (0 for v==0).
constexpr int magnitude_bits(int128 v) {
  const uint128 mag = v < 0 ? static_cast<uint128>(-v) : static_cast<uint128>(v);
  return msb_index(mag) + 1;
}

/// ceil(log2(v)) for v >= 1.
constexpr int ceil_log2(int64_t v) {
  assert(v >= 1);
  int r = 0;
  int64_t p = 1;
  while (p < v) {
    p <<= 1;
    ++r;
  }
  return r;
}

/// Extract bit field v[hi:lo] (inclusive), zero-based, returned unsigned.
constexpr uint64_t bits(uint64_t v, int hi, int lo) {
  assert(hi >= lo && hi < 64 && lo >= 0);
  return (v >> lo) & ((hi - lo == 63) ? ~uint64_t{0} : ((uint64_t{1} << (hi - lo + 1)) - 1));
}

/// Convert an int128 to double exactly when |v| < 2^53, otherwise with the
/// usual rounding; used only by analysis/reporting code, never the datapath.
inline double to_double(int128 v) {
  const bool neg = v < 0;
  uint128 mag = neg ? static_cast<uint128>(-v) : static_cast<uint128>(v);
  const double hi = static_cast<double>(static_cast<uint64_t>(mag >> 64));
  const double lo = static_cast<double>(static_cast<uint64_t>(mag));
  const double d = hi * 18446744073709551616.0 + lo;
  return neg ? -d : d;
}

}  // namespace mpipu

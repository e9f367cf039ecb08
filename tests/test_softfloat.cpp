// Unit and property tests for the soft floating point substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "softfloat/softfloat.h"

namespace mpipu {
namespace {

// --- Classification & field plumbing ---------------------------------------

TEST(Fp16, ClassifiesSpecialValues) {
  EXPECT_TRUE(Fp16::zero().is_zero());
  EXPECT_TRUE(Fp16::zero(true).is_zero());
  EXPECT_TRUE(Fp16::zero(true).sign());
  EXPECT_TRUE(Fp16::infinity().is_inf());
  EXPECT_TRUE(Fp16::infinity(true).is_inf());
  EXPECT_TRUE(Fp16::quiet_nan().is_nan());
  EXPECT_TRUE(Fp16::min_subnormal().is_subnormal());
  EXPECT_TRUE(Fp16::min_normal().is_normal());
  EXPECT_TRUE(Fp16::max_finite().is_normal());
  EXPECT_TRUE(Fp16::one().is_normal());
}

TEST(Fp16, KnownEncodings) {
  EXPECT_EQ(Fp16::one().raw_bits(), 0x3C00u);
  EXPECT_EQ(Fp16::infinity().raw_bits(), 0x7C00u);
  EXPECT_EQ(Fp16::max_finite().raw_bits(), 0x7BFFu);
  EXPECT_EQ(Fp16::min_subnormal().raw_bits(), 0x0001u);
  EXPECT_EQ(Fp16::min_normal().raw_bits(), 0x0400u);
  EXPECT_EQ(Fp16::from_double(-2.0).raw_bits(), 0xC000u);
  EXPECT_EQ(Fp16::from_double(65504.0).raw_bits(), 0x7BFFu);
  EXPECT_EQ(Fp16::from_double(0.5).raw_bits(), 0x3800u);
}

TEST(Fp16, FormatConstants) {
  EXPECT_EQ(kFp16Format.bias(), 15);
  EXPECT_EQ(kFp16Format.min_exp(), -14);
  EXPECT_EQ(kFp16Format.max_exp(), 15);
  EXPECT_EQ(kFp16Format.sig_bits(), 11);
  EXPECT_EQ(kFp32Format.bias(), 127);
  EXPECT_EQ(kBf16Format.bias(), 127);
  EXPECT_EQ(kBf16Format.sig_bits(), 8);
  EXPECT_EQ(kTf32Format.sig_bits(), 11);
}

TEST(Fp16, DecodeMagnitudeAndExponent) {
  // 1.0: magnitude 1.0000000000b = 1024, exp 0.
  Decoded d = Fp16::one().decode();
  EXPECT_FALSE(d.sign);
  EXPECT_EQ(d.exp, 0);
  EXPECT_EQ(d.magnitude, 1024);
  // Smallest subnormal: magnitude 1 at exp -14.
  d = Fp16::min_subnormal().decode();
  EXPECT_EQ(d.exp, -14);
  EXPECT_EQ(d.magnitude, 1);
  // Max finite: magnitude 2047 at exp 15.
  d = Fp16::max_finite().decode();
  EXPECT_EQ(d.exp, 15);
  EXPECT_EQ(d.magnitude, 2047);
}

TEST(Fp16, ProductExponentRangeMatchesPaper) {
  // Paper: FP16 product exponents span [-28, 30], so alignments reach 58.
  const int lo = Fp16::min_subnormal().decode().exp + Fp16::min_subnormal().decode().exp;
  const int hi = Fp16::max_finite().decode().exp + Fp16::max_finite().decode().exp;
  EXPECT_EQ(lo, -28);
  EXPECT_EQ(hi, 30);
  EXPECT_EQ(hi - lo, 58);
}

// --- Round trips against the host oracle -----------------------------------

TEST(Fp16, ExhaustiveToDoubleFromDoubleRoundTrip) {
  // Every finite FP16 encoding must survive fp16 -> double -> fp16.
  for (uint32_t raw = 0; raw < 0x10000; ++raw) {
    const Fp16 f = Fp16::from_bits(raw);
    if (f.is_nan()) continue;
    const Fp16 back = Fp16::from_double(f.to_double());
    EXPECT_EQ(back.raw_bits(), f.raw_bits()) << "raw=" << raw;
  }
}

TEST(Bf16, ExhaustiveRoundTrip) {
  for (uint32_t raw = 0; raw < 0x10000; ++raw) {
    const Bf16 f = Bf16::from_bits(raw);
    if (f.is_nan()) continue;
    EXPECT_EQ(Bf16::from_double(f.to_double()).raw_bits(), f.raw_bits());
  }
}

TEST(Fp32, RandomRoundTripAgainstHostFloat) {
  Rng rng(1);
  for (int i = 0; i < 200000; ++i) {
    const auto raw = static_cast<uint32_t>(rng.next_u64());
    float host;
    std::memcpy(&host, &raw, 4);
    if (std::isnan(host)) continue;
    const Fp32 f = Fp32::from_bits(raw);
    EXPECT_EQ(f.to_double(), static_cast<double>(host)) << raw;
    EXPECT_EQ(Fp32::from_double(static_cast<double>(host)).raw_bits(), raw);
  }
}

TEST(Fp16, FromDoubleMatchesHostRounding) {
  // The host converts double -> float with RNE; for values whose double
  // representation is exact, double -> fp16 must agree with the two-step
  // double -> float -> fp16 when no double rounding occurs.  Use a directed
  // corpus of hard cases instead: ties, subnormal boundaries, overflow.
  struct Case {
    double in;
    uint32_t expect;
  };
  const Case cases[] = {
      {0.0, 0x0000},        {-0.0, 0x8000},
      {1.0, 0x3C00},        {1.0009765625, 0x3C01},  // 1 + 2^-10
      {1.00048828125, 0x3C00},                        // tie 1 + 2^-11 -> even
      {1.0014648437500, 0x3C02},                      // tie -> even (up)
      {65504.0, 0x7BFF},    {65520.0, 0x7C00},        // tie at inf boundary
      {65519.9, 0x7BFF},    {1e6, 0x7C00},
      {5.960464477539063e-08, 0x0001},                // min subnormal
      {2.9802322387695312e-08, 0x0000},               // tie subnormal -> 0
      {2.98023223876953125e-08 * 1.0000001, 0x0001},
      {6.097555160522461e-05, 0x03FF},                // max subnormal
      {6.103515625e-05, 0x0400},                      // min normal
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Fp16::from_double(c.in).raw_bits(), c.expect) << c.in;
  }
}

TEST(Fp16, NanAndInfHandling) {
  EXPECT_TRUE(Fp16::from_double(std::nan("")).is_nan());
  EXPECT_TRUE(Fp16::from_double(std::numeric_limits<double>::infinity()).is_inf());
  EXPECT_TRUE(Fp16::from_double(-std::numeric_limits<double>::infinity()).is_inf());
  EXPECT_TRUE(Fp16::from_double(-std::numeric_limits<double>::infinity()).sign());
  EXPECT_TRUE(std::isnan(Fp16::quiet_nan().to_double()));
}

// --- Independent oracle for Fp16::from_double -------------------------------
//
// Nearest-value search over the finite FP16 values' to_double(), ties to the
// even encoding.  It shares no code with round_from_fixed.  Overflow follows
// IEEE 754 (round as if the exponent were unbounded): the candidate above
// max_finite is 2^16, whose encoding 0x7C00 is +inf and is even, so the
// 65520 tie overflows.  Candidate k of the ascending list has encoding k.

class Fp16NearestOracle {
 public:
  Fp16NearestOracle() {
    for (uint32_t raw = 0; raw <= 0x7BFF; ++raw) {
      mags_.push_back(Fp16::from_bits(raw).to_double());
    }
    mags_.push_back(65536.0);
  }

  /// Expected encoding of a non-NaN double.
  uint32_t encode(double x) const {
    const uint32_t sign = std::signbit(x) ? 0x8000u : 0u;
    const double m = std::fabs(x);
    if (m >= mags_.back()) return sign | 0x7C00u;  // also +/-inf
    const auto hi = static_cast<size_t>(
        std::lower_bound(mags_.begin(), mags_.end(), m) - mags_.begin());
    if (mags_[hi] == m) return sign | static_cast<uint32_t>(hi);
    const size_t lo = hi - 1;  // m > 0 == mags_[0], so hi >= 1
    // Both distances are exact: adjacent candidates above zero are within
    // a factor of 2 (Sterbenz), and below min_subnormal/2 the rounding of
    // the hi distance cannot flip the comparison.
    const double d_lo = m - mags_[lo];
    const double d_hi = mags_[hi] - m;
    const size_t pick =
        d_lo < d_hi ? lo : d_hi < d_lo ? hi : (lo % 2 == 0 ? lo : hi);
    return sign | static_cast<uint32_t>(pick);
  }

  const std::vector<double>& mags() const { return mags_; }

 private:
  std::vector<double> mags_;  ///< ascending; index == FP16 encoding
};

/// Checks every input against the oracle; reports the first few misses.
void expect_matches_oracle(const Fp16NearestOracle& oracle,
                           const std::vector<double>& inputs,
                           const char* corpus) {
  size_t misses = 0;
  for (double x : inputs) {
    const uint32_t got = Fp16::from_double(x).raw_bits();
    const uint32_t want = oracle.encode(x);
    if (got != want && ++misses <= 5) {
      ADD_FAILURE() << corpus << ": from_double(" << std::hexfloat << x
                    << ") = 0x" << std::hex << got << ", nearest-even 0x"
                    << want;
    }
  }
  EXPECT_EQ(misses, 0u) << corpus << ": " << inputs.size() << " inputs";
}

TEST(Fp16FromDoubleOracle, EveryEncoding) {
  const Fp16NearestOracle oracle;
  std::vector<double> values;
  for (uint32_t raw = 0; raw < 0x10000; ++raw) {
    const Fp16 f = Fp16::from_bits(raw);
    if (f.is_nan()) {
      EXPECT_TRUE(Fp16::from_double(f.to_double()).is_nan()) << raw;
      continue;
    }
    values.push_back(f.to_double());
    EXPECT_EQ(oracle.encode(f.to_double()), raw);  // the oracle itself
  }
  expect_matches_oracle(oracle, values, "every encoding");
}

TEST(Fp16FromDoubleOracle, MidpointsAndTheirNeighbours) {
  const Fp16NearestOracle oracle;
  const std::vector<double>& m = oracle.mags();
  std::vector<double> values;
  for (size_t k = 0; k + 1 < m.size(); ++k) {
    const double mid = m[k] + (m[k + 1] - m[k]) / 2;  // exact
    for (double v : {mid, std::nextafter(mid, 0.0),
                     std::nextafter(mid, std::numeric_limits<double>::infinity())}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  expect_matches_oracle(oracle, values, "midpoints");
}

TEST(Fp16FromDoubleOracle, SubnormalDoublesAndSpecials) {
  const Fp16NearestOracle oracle;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, inf, -inf,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),  // smallest normal double
      65520.0, -65520.0,                   // the overflow tie
      std::nextafter(65520.0, 0.0), std::nextafter(65520.0, inf),
      65504.0, std::numeric_limits<double>::max()};
  Rng rng(0x5B);
  for (int i = 0; i < 4096; ++i) {  // random subnormal doubles, both signs
    const uint64_t man = rng.next_u64() & ((uint64_t{1} << 52) - 1);
    values.push_back(std::bit_cast<double>(man | (i % 2 == 0 ? 0 : uint64_t{1} << 63)));
  }
  values.push_back(std::bit_cast<double>((uint64_t{1} << 52) - 1));  // largest
  expect_matches_oracle(oracle, values, "subnormal doubles and specials");

  EXPECT_EQ(Fp16::from_double(65520.0).raw_bits(), 0x7C00u);
  EXPECT_EQ(Fp16::from_double(-65520.0).raw_bits(), 0xFC00u);
  EXPECT_EQ(Fp16::from_double(std::nextafter(65520.0, 0.0)).raw_bits(), 0x7BFFu);
  EXPECT_EQ(Fp16::from_double(-0.0).raw_bits(), 0x8000u);
  EXPECT_EQ(Fp16::from_double(-std::numeric_limits<double>::denorm_min()).raw_bits(),
            0x8000u);
  for (double nan : {std::numeric_limits<double>::quiet_NaN(),
                     -std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::signaling_NaN()}) {
    EXPECT_TRUE(Fp16::from_double(nan).is_nan());
  }
}

TEST(Fp16FromDoubleOracle, SeededRandomDoubles) {
  const Fp16NearestOracle oracle;
  Rng rng(0xF16);
  std::vector<double> values;
  for (int i = 0; i < 1 << 18; ++i) {  // raw bit patterns: every binade
    const double v = std::bit_cast<double>(rng.next_u64());
    if (!std::isnan(v)) values.push_back(v);
  }
  for (int i = 0; i < 1 << 19; ++i) {  // magnitudes around the FP16 range
    values.push_back(rng.log_uniform_signed(-27.0, 17.0));
  }
  for (int i = 0; i < 1 << 18; ++i) values.push_back(rng.normal(0.0, 0.05));
  expect_matches_oracle(oracle, values, "seeded random doubles");
}

TEST(MsbIndex, MatchesNaiveBitLoop) {
  const auto naive = [](uint128 v) {
    int idx = -1;
    for (; v != 0; v >>= 1) ++idx;
    return idx;
  };
  EXPECT_EQ(msb_index(0), naive(0));
  EXPECT_EQ(msb_index(0), -1);
  for (int i = 0; i < 128; ++i) {
    const uint128 bit = uint128{1} << i;
    EXPECT_EQ(msb_index(bit), naive(bit)) << "bit " << i;
    EXPECT_EQ(msb_index(bit), i);
  }
  for (int n = 0; n <= 128; ++n) {
    EXPECT_EQ(msb_index(low_mask(n)), naive(low_mask(n))) << n << " ones";
  }
}

// --- FixedPoint rounding path ----------------------------------------------

TEST(RoundFromFixed, ExactValuesUnchanged) {
  for (uint32_t raw = 0; raw < 0x10000; ++raw) {
    const Fp16 f = Fp16::from_bits(raw);
    // FixedPoint has no signed zero, so -0 legitimately round-trips to +0.
    if (!f.is_finite() || f.is_zero()) continue;
    EXPECT_EQ(Fp16::round_from_fixed(f.to_fixed()).raw_bits(), raw);
  }
}

TEST(RoundFromFixed, RoundsToNearestEven) {
  // 1 + 2^-11 is exactly between 1.0 and 1+2^-10: ties to even -> 1.0.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint((1 << 11) + 1, -11)).raw_bits(), 0x3C00u);
  // 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9: ties to even -> 1+2^-9.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint((1 << 11) + 3, -11)).raw_bits(), 0x3C02u);
  // Just above the tie rounds up.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint((1 << 12) + 3, -12)).raw_bits(), 0x3C01u);
}

TEST(RoundFromFixed, CarryPropagationRenormalizes) {
  // 1.1111111111|1 b (11 ones after implicit bit) rounds up to 2.0.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint((1 << 12) - 1, -11)).raw_bits(), 0x4000u);
  // Max finite + half ULP ties to even -> inf.
  const FixedPoint tie(0xFFF, 15 - 11);  // 2047.5 * 2^5
  EXPECT_TRUE(Fp16::round_from_fixed(tie).is_inf());
}

TEST(RoundFromFixed, SubnormalRange) {
  // 0.5 * min_subnormal ties to zero (even).
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint(1, -25)).raw_bits(), 0x0000u);
  // 0.75 * min_subnormal rounds to min_subnormal.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint(3, -26)).raw_bits(), 0x0001u);
  // 1.5 * min_subnormal ties to even -> 2 quanta.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint(3, -25)).raw_bits(), 0x0002u);
  // Max subnormal + half quantum ties up into min normal.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint((1 << 11) - 1, -25)).raw_bits(), 0x0400u);
}

TEST(RoundFromFixed, RandomAgainstHostDouble) {
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const int64_t mant = rng.uniform_int(-(1 << 30), 1 << 30);
    const int lsb = static_cast<int>(rng.uniform_int(-40, 10));
    const FixedPoint fx(mant, lsb);
    const double exact = fx.to_double_value();
    // Host double holds (31-bit mantissa, small exponent) exactly, and
    // from_double implements the same RNE: results must agree bit for bit.
    EXPECT_EQ(Fp16::round_from_fixed(fx).raw_bits(), Fp16::from_double(exact).raw_bits())
        << mant << " * 2^" << lsb;
    EXPECT_EQ(Fp32::round_from_fixed(fx).raw_bits(), Fp32::from_double(exact).raw_bits());
  }
}

// --- FixedPoint algebra ------------------------------------------------------

TEST(FixedPoint, AdditionAndAlignment) {
  const FixedPoint a(3, 2);    // 12
  const FixedPoint b(5, -1);   // 2.5
  EXPECT_EQ((a + b).to_double_value(), 14.5);
  EXPECT_EQ((a - b).to_double_value(), 9.5);
  EXPECT_TRUE(FixedPoint(4, 0) == FixedPoint(1, 2));
}

TEST(FixedPoint, TruncationFloors) {
  EXPECT_EQ(FixedPoint(7, 0).truncated_to_lsb(1).mantissa(), 3);
  EXPECT_EQ(FixedPoint(-7, 0).truncated_to_lsb(1).mantissa(), -4);  // floor
  EXPECT_EQ(FixedPoint(7, 0).truncated_to_lsb(-2).mantissa(), 28);  // exact
}

// --- Parameterized sweep over formats ---------------------------------------

template <typename T>
class SoftFormatTest : public ::testing::Test {};

using Formats = ::testing::Types<Fp16, Bf16, Tf32, Fp32>;
TYPED_TEST_SUITE(SoftFormatTest, Formats);

TYPED_TEST(SoftFormatTest, DecodeEncodeIdentityOnRandomFiniteValues) {
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    const auto raw = static_cast<uint32_t>(rng.next_u64());
    const TypeParam f = TypeParam::from_bits(raw);
    if (!f.is_finite()) continue;
    const Decoded d = f.decode();
    const double v = std::ldexp(static_cast<double>(d.signed_magnitude()),
                                d.exp - TypeParam::format.man_bits);
    EXPECT_EQ(v, f.to_double());
    EXPECT_EQ(TypeParam::round_from_fixed(f.to_fixed()).raw_bits(), f.raw_bits());
  }
}

TYPED_TEST(SoftFormatTest, OrderingOfMagnitudeMatchesDouble) {
  Rng rng(43);
  for (int i = 0; i < 20000; ++i) {
    const TypeParam a = TypeParam::from_bits(static_cast<uint32_t>(rng.next_u64()));
    const TypeParam b = TypeParam::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (!a.is_finite() || !b.is_finite()) continue;
    // FixedPoint is backed by int128: exact subtraction needs the two
    // values' significant bits to span < 128 bits.  (The datapath only ever
    // subtracts FP16-product-scale values, far inside that limit.)
    if (!a.is_zero() && !b.is_zero() &&
        std::abs(a.decode().exp - b.decode().exp) > 90) {
      continue;
    }
    const FixedPoint d = a.to_fixed() - b.to_fixed();
    const double dd = a.to_double() - b.to_double();
    EXPECT_EQ(d.mantissa() > 0, dd > 0);
    EXPECT_EQ(d.mantissa() == 0, dd == 0);
  }
}

}  // namespace
}  // namespace mpipu

// Tests for the §3.1 error metrics and the Theorem 1 analytical bound.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/error_metrics.h"
#include "common/rng.h"
#include "core/ipu.h"
#include "core/reference.h"

namespace mpipu {
namespace {

TEST(ErrorMetrics, AbsoluteError) {
  EXPECT_EQ(absolute_error(FixedPoint(5, 0), FixedPoint(3, 0)), 2.0);
  EXPECT_EQ(absolute_error(FixedPoint(3, 0), FixedPoint(5, 0)), 2.0);
  EXPECT_EQ(absolute_error(FixedPoint(7, -1), FixedPoint(7, -1)), 0.0);
  EXPECT_EQ(absolute_error(FixedPoint(1, 3), FixedPoint(1, 0)), 7.0);
}

TEST(ErrorMetrics, RelativeErrorPct) {
  EXPECT_EQ(absolute_relative_error_pct(FixedPoint(11, 0), FixedPoint(10, 0)), 10.0);
  EXPECT_EQ(absolute_relative_error_pct(FixedPoint(0, 0), FixedPoint(0, 0)), 0.0);
  EXPECT_TRUE(std::isinf(absolute_relative_error_pct(FixedPoint(1, 0), FixedPoint(0, 0))));
}

TEST(ErrorMetrics, ContaminatedBits) {
  const FpFormat f = kFp16Format;
  EXPECT_EQ(contaminated_bits(0x3C00, 0x3C00, f), 0);
  EXPECT_EQ(contaminated_bits(0x3C01, 0x3C00, f), 1);   // 1 ULP -> 1 bit
  EXPECT_EQ(contaminated_bits(0x3C02, 0x3C00, f), 2);   // 2 ULP -> 2 bits
  EXPECT_EQ(contaminated_bits(0x3C03, 0x3C00, f), 2);   // 3 ULP -> 2 bits
  EXPECT_EQ(contaminated_bits(0x3C04, 0x3C00, f), 3);
  // Sign straddle: +1ULP vs -1ULP around zero is 2 encoding steps.
  EXPECT_EQ(contaminated_bits(0x0001, 0x8001, f), 2);
  // Symmetric.
  EXPECT_EQ(contaminated_bits(0x3C00, 0x3C07, f), contaminated_bits(0x3C07, 0x3C00, f));
}

TEST(Theorem1, IterationBoundFormula) {
  // 225 * 2^(4(i+j)-22) * 2^(max-precision) * (n-1).
  EXPECT_DOUBLE_EQ(theorem1_iteration_bound(2, 2, 2, 16, 0),
                   225.0 * std::exp2(16 - 22) * std::exp2(-16));
  EXPECT_DOUBLE_EQ(theorem1_iteration_bound(0, 0, 17, 20, 5),
                   225.0 * std::exp2(-22) * std::exp2(5 - 20) * 16);
  EXPECT_EQ(theorem1_iteration_bound(1, 1, 1, 10, 0), 0.0);  // n=1: no error
}

TEST(Theorem1, MostSignificantIterationsDominate) {
  // Remark 1: iterations with the largest i+j contribute the largest bound.
  double prev = 0.0;
  for (int s = 0; s <= 4; ++s) {
    const double b = theorem1_iteration_bound(s / 2, s - s / 2, 8, 16, 0);
    EXPECT_GT(b, prev);
    prev = b;
  }
}

TEST(Theorem1, MeasuredIpuErrorNeverExceedsWindowBound) {
  // Property test: the single-cycle IPU(precision)'s absolute error against
  // the exact reference is always within the rigorous window-truncation
  // bound; the paper's Theorem 1 bound (tighter constant, see
  // error_metrics.h) should hold for the overwhelming majority of samples.
  Rng rng(55);
  int64_t paper_bound_violations = 0, samples = 0;
  for (int precision : {8, 12, 16, 20, 26}) {
    DatapathConfig cfg;
    cfg.n_inputs = 16;
    cfg.adder_tree_width = precision;
    cfg.software_precision = precision;
    cfg.multi_cycle = false;
    cfg.accumulator.frac_bits = 100;
    cfg.accumulator.lossless = true;
    Ipu ipu(cfg);
    for (int t = 0; t < 400; ++t) {
      std::vector<Fp16> a, b;
      for (int k = 0; k < 16; ++k) {
        a.push_back(Fp16::from_double(rng.laplace(0.0, 2.0)));
        b.push_back(Fp16::from_double(rng.laplace(0.0, 2.0)));
      }
      // max_exp exactly as the EHU sees it (exponent fields only; zeros
      // carry the subnormal exponent).
      int max_exp = INT32_MIN;
      for (int k = 0; k < 16; ++k) {
        max_exp = std::max(max_exp, a[static_cast<size_t>(k)].decode().exp +
                                        b[static_cast<size_t>(k)].decode().exp);
      }
      ipu.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
      const double err =
          absolute_error(ipu.read_raw(), exact_fp_inner_product<kFp16Format>(a, b));
      EXPECT_LE(err, window_truncation_operation_bound(16, precision, max_exp))
          << "precision=" << precision << " trial=" << t;
      paper_bound_violations += err > theorem1_operation_bound(16, precision, max_exp);
      ++samples;
    }
  }
  // The paper's published constant (225 = a fully dropped lane product)
  // under-counts partial floor truncation by up to 2^10/225 ~ 4.6x, so it
  // is exceeded on a sizable minority of samples; the corrected window
  // bound above is never exceeded.  Record that the paper bound still
  // holds for the majority (documented in EXPERIMENTS.md).
  EXPECT_LT(static_cast<double>(paper_bound_violations), 0.5 * static_cast<double>(samples));
  // And the two bounds differ by exactly the constant ratio.
  EXPECT_NEAR(window_truncation_operation_bound(16, 20, 0, 3) /
                  theorem1_operation_bound(16, 20, 0, 3),
              1024.0 / 225.0, 1e-9);
}

TEST(Stats, MedianMeanPercentile) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({7.0}), 7.0);
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(mean(v), 2.5);
  EXPECT_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 100.0), 5.0);
  EXPECT_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 50.0), 3.0);
}

TEST(Histogram, CountsAndFractions) {
  IntHistogram h(10);
  for (int i = 0; i < 8; ++i) h.add(0);
  h.add(5);
  h.add(30);  // overflow bin
  EXPECT_EQ(h.total(), 10);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.8);
  EXPECT_DOUBLE_EQ(h.fraction(5), 0.1);
  EXPECT_DOUBLE_EQ(h.fraction_above(8), 0.1);
  EXPECT_DOUBLE_EQ(h.fraction_above(0), 0.2);
  EXPECT_EQ(h.count(11), 1);  // overflow aggregates
}

}  // namespace
}  // namespace mpipu

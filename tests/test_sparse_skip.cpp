// Tests for the zero-skipping sparse extension (paper §5 future work):
// dynamically skipping nibble iterations whose lane products are all zero.
// The invariant: skipping changes cycle counts, never values.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/ipu.h"
#include "core/reference.h"

namespace mpipu {
namespace {

DatapathConfig base_cfg(bool skip) {
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  cfg.skip_zero_iterations = skip;
  return cfg;
}

TEST(SparseSkip, ValuesIdenticalWithAndWithoutSkipping) {
  Rng rng(71);
  Ipu plain(base_cfg(false)), skipping(base_cfg(true));
  for (int t = 0; t < 2000; ++t) {
    std::vector<Fp16> a, b;
    for (int k = 0; k < 16; ++k) {
      // Heavy sparsity: many exact zeros and small-magnitude values.
      const double va = rng.bernoulli(0.5) ? 0.0 : rng.normal(0.0, 1.0);
      const double vb = rng.bernoulli(0.3) ? 0.0 : rng.normal(0.0, 0.05);
      a.push_back(Fp16::from_double(va));
      b.push_back(Fp16::from_double(vb));
    }
    plain.reset_accumulator();
    skipping.reset_accumulator();
    plain.fp_accumulate<kFp16Format>(a, b);
    skipping.fp_accumulate<kFp16Format>(a, b);
    EXPECT_TRUE(plain.read_raw() == skipping.read_raw()) << t;
  }
  EXPECT_GT(skipping.stats().skipped_iterations, 0);
  EXPECT_EQ(plain.stats().skipped_iterations, 0);
  EXPECT_LT(skipping.stats().cycles, plain.stats().cycles);
}

TEST(SparseSkip, AllZeroVectorSkipsEverything) {
  Ipu ipu(base_cfg(true));
  const std::vector<Fp16> a(16, Fp16::zero());
  const std::vector<Fp16> b(16, Fp16::from_double(2.0));
  EXPECT_EQ(ipu.fp_accumulate<kFp16Format>(a, b), 0);
  EXPECT_EQ(ipu.stats().skipped_iterations, 9);
  EXPECT_TRUE(ipu.read_raw().is_zero());
}

TEST(SparseSkip, DenseDataSkipsNothing) {
  // Full-magnitude FP16 values have all three nibbles nonzero.
  Ipu ipu(base_cfg(true));
  const std::vector<Fp16> a(16, Fp16::from_bits(0x3FFF));  // 1.1111111111b
  const std::vector<Fp16> b(16, Fp16::from_bits(0x3FFF));
  EXPECT_EQ(ipu.fp_accumulate<kFp16Format>(a, b), 9);
  EXPECT_EQ(ipu.stats().skipped_iterations, 0);
}

TEST(SparseSkip, PowerOfTwoValuesSkipLowNibbles) {
  // 1.0 has magnitude 100_0000_0000b: only the top nibble is nonzero, so
  // only iteration (2,2) survives -- an 8/9 cycle saving.
  Ipu ipu(base_cfg(true));
  const std::vector<Fp16> a(16, Fp16::one()), b(16, Fp16::from_double(2.0));
  EXPECT_EQ(ipu.fp_accumulate<kFp16Format>(a, b), 1);
  EXPECT_EQ(ipu.stats().skipped_iterations, 8);
  EXPECT_EQ(ipu.read_fp32().to_double(), 32.0);
}

TEST(SparseSkip, IntModeSkipsZeroNibbles) {
  Ipu ipu(base_cfg(true));
  // Small positive INT8 values: the high nibble of every lane is zero,
  // so 3 of the 4 INT8xINT8 iterations vanish.
  std::vector<int32_t> a, b;
  int64_t expect = 0;
  Rng rng(72);
  for (int k = 0; k < 16; ++k) {
    a.push_back(static_cast<int32_t>(rng.uniform_int(0, 15)));
    b.push_back(static_cast<int32_t>(rng.uniform_int(0, 15)));
    expect += int64_t{a.back()} * b.back();
  }
  const int cycles = ipu.int_accumulate(a, b, 8, 8);
  EXPECT_EQ(cycles, 1);
  EXPECT_EQ(ipu.stats().skipped_iterations, 3);
  EXPECT_EQ(ipu.read_int(), expect);
}

TEST(SparseSkip, IntModeValuesUnchangedUnderRandomSparsity) {
  Rng rng(73);
  DatapathConfig cfg = base_cfg(true);
  Ipu ipu(cfg);
  for (int t = 0; t < 1000; ++t) {
    ipu.reset_accumulator();
    std::vector<int32_t> a, b;
    for (int k = 0; k < 16; ++k) {
      a.push_back(rng.bernoulli(0.6) ? 0
                                     : static_cast<int32_t>(rng.uniform_int(-128, 127)));
      b.push_back(rng.bernoulli(0.6) ? 0
                                     : static_cast<int32_t>(rng.uniform_int(-128, 127)));
    }
    ipu.int_accumulate(a, b, 8, 8);
    EXPECT_EQ(ipu.read_int(), exact_int_inner_product(a, b)) << t;
  }
}

TEST(SparseSkip, SkipRateGrowsWithSparsity) {
  Rng rng(74);
  double prev_rate = -1.0;
  for (double sparsity : {0.0, 0.3, 0.6, 0.9}) {
    Ipu ipu(base_cfg(true));
    for (int t = 0; t < 300; ++t) {
      std::vector<Fp16> a, b;
      for (int k = 0; k < 16; ++k) {
        a.push_back(Fp16::from_double(rng.bernoulli(sparsity) ? 0.0
                                                              : rng.normal(0.0, 1.0)));
        b.push_back(Fp16::from_double(rng.normal(0.0, 1.0)));
      }
      ipu.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
    }
    const double rate = static_cast<double>(ipu.stats().skipped_iterations) /
                        static_cast<double>(ipu.stats().nibble_iterations);
    // All-lane-zero nibbles are rare until sparsity is high (a skip needs
    // every one of the 16 lanes to vanish), so require monotone
    // non-decreasing rates and a substantial rate only at 90% sparsity.
    EXPECT_GE(rate, prev_rate) << sparsity;
    prev_rate = rate;
  }
  EXPECT_GT(prev_rate, 0.15);  // 90% sparsity skips a good share
}

}  // namespace
}  // namespace mpipu

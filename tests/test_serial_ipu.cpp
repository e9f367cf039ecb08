// Tests for the bit-serial MC-SER datapath (Table 1, §4.5).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/ipu.h"
#include "core/serial_ipu.h"

namespace mpipu {
namespace {

/// The serial preset at the window the Table 1 MC-SER design uses (w = 16,
/// sp = 4).
DatapathConfig serial_cfg() {
  DatapathConfig cfg = DatapathConfig::for_scheme(DecompositionScheme::kSerial);
  cfg.adder_tree_width = 16;
  return cfg;
}

DatapathConfig wide_cfg() {
  DatapathConfig cfg = serial_cfg();
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 80;
  cfg.software_precision = 58;
  cfg.multi_cycle = false;
  cfg.accumulator.frac_bits = 100;
  cfg.accumulator.lossless = true;
  return cfg;
}

std::vector<Fp16> random_fp16(Rng& rng, int n) {
  std::vector<Fp16> v;
  while (static_cast<int>(v.size()) < n) {
    const Fp16 f = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (f.is_finite()) v.push_back(f);
  }
  return v;
}

TEST(SerialIpu, IntModeBitExact) {
  Rng rng(61);
  SerialIpu ipu(serial_cfg());
  for (int trial = 0; trial < 500; ++trial) {
    ipu.reset_accumulator();
    std::vector<int32_t> a, b;
    for (int k = 0; k < 16; ++k) {
      a.push_back(static_cast<int32_t>(rng.uniform_int(-2048, 2047)));  // 12-bit
      b.push_back(static_cast<int32_t>(rng.uniform_int(-128, 127)));    // 8-bit
    }
    const int cycles = ipu.int_accumulate(a, b, 12, 8);
    EXPECT_EQ(cycles, 8);  // bit-serial over the weight
    EXPECT_EQ(ipu.read_int(), exact_int_inner_product(a, b));
  }
}

TEST(SerialIpu, IntModeCyclesScaleWithWeightBits) {
  SerialIpu ipu(serial_cfg());
  const std::vector<int32_t> a(4, 100), b4(4, 7), b16(4, 1234);
  EXPECT_EQ(ipu.int_accumulate(a, b4, 12, 4), 4);
  ipu.reset_accumulator();
  EXPECT_EQ(ipu.int_accumulate(a, b16, 12, 16), 16);
  EXPECT_EQ(ipu.read_int(), 4 * 100 * 1234);
}

TEST(SerialIpu, IntModeNegativeWeights) {
  SerialIpu ipu(serial_cfg());
  const std::vector<int32_t> a = {5, -7, 11, -13};
  const std::vector<int32_t> b = {-8, 7, -1, -128};
  ipu.int_accumulate(a, b, 12, 8);
  EXPECT_EQ(ipu.read_int(), exact_int_inner_product(a, b));
}

TEST(SerialIpu, FpWideDatapathMatchesExactReference) {
  Rng rng(62);
  SerialIpu ipu(wide_cfg());
  for (int t = 0; t < 2000; ++t) {
    const auto a = random_fp16(rng, 16);
    const auto b = random_fp16(rng, 16);
    ipu.reset_accumulator();
    const int cycles = ipu.fp_accumulate(a, b);
    EXPECT_EQ(cycles, 12);  // 12 serial steps, single alignment band
    EXPECT_TRUE(ipu.read_raw() == exact_fp_inner_product<kFp16Format>(a, b)) << t;
  }
}

TEST(SerialIpu, FpMcModeIsLossless) {
  // MC banding on the serial datapath is exact with an unbounded
  // accumulator, exactly like the nibble IPU.
  Rng rng(63);
  DatapathConfig cfg = wide_cfg();
  cfg.adder_tree_width = 16;  // sp = 4
  cfg.multi_cycle = true;
  SerialIpu ipu(cfg);
  for (int t = 0; t < 1000; ++t) {
    const auto a = random_fp16(rng, 16);
    const auto b = random_fp16(rng, 16);
    ipu.reset_accumulator();
    ipu.fp_accumulate(a, b);
    EXPECT_TRUE(ipu.read_raw() == exact_fp_inner_product<kFp16Format>(a, b)) << t;
  }
}

TEST(SerialIpu, FpCyclesAreTwelvePerBand) {
  // Two products with alignment D: bands = D / sp + 1, cycles = 12 * bands.
  DatapathConfig cfg = serial_cfg();
  cfg.n_inputs = 2;
  cfg.adder_tree_width = 16;  // sp = 4
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  SerialIpu ipu(cfg);
  for (int D = 0; D <= 24; D += 4) {
    const std::vector<Fp16> a = {Fp16::from_fields(false, 25, 0),
                                 Fp16::from_fields(false, static_cast<uint32_t>(25 - D), 0)};
    const std::vector<Fp16> b = {Fp16::one(), Fp16::one()};
    ipu.reset_accumulator();
    EXPECT_EQ(ipu.fp_accumulate(a, b), 12 * (D / 4 + 1)) << D;
  }
}

TEST(SerialIpu, FpMatchesNibbleIpuRoundedResults) {
  // Different decompositions, same arithmetic: serial and nibble datapaths
  // agree bit-for-bit when both are lossless.
  Rng rng(64);
  SerialIpu serial(wide_cfg());
  DatapathConfig ncfg;
  ncfg.n_inputs = 16;
  ncfg.adder_tree_width = 80;
  ncfg.software_precision = 58;
  ncfg.multi_cycle = false;
  ncfg.accumulator.frac_bits = 100;
  ncfg.accumulator.lossless = true;
  Ipu nibble(ncfg);
  for (int t = 0; t < 1000; ++t) {
    const auto a = random_fp16(rng, 16);
    const auto b = random_fp16(rng, 16);
    serial.reset_accumulator();
    nibble.reset_accumulator();
    serial.fp_accumulate(a, b);
    nibble.fp_accumulate<kFp16Format>(a, b);
    EXPECT_TRUE(serial.read_raw() == nibble.read_raw()) << t;
  }
}

TEST(SerialIpu, StatsAccumulate) {
  SerialIpu ipu(serial_cfg());
  const std::vector<Fp16> a(4, Fp16::one()), b(4, Fp16::one());
  const std::vector<int32_t> ia(4, 1), ib(4, 1);
  ipu.fp_accumulate(a, b);
  ipu.int_accumulate(ia, ib, 12, 4);
  EXPECT_EQ(ipu.stats().fp_ops, 1);
  EXPECT_EQ(ipu.stats().int_ops, 1);
  EXPECT_EQ(ipu.stats().cycles, 12 + 4);
}

}  // namespace
}  // namespace mpipu

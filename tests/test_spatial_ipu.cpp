// Tests for the spatially decomposed IPU: the §5 claim that the paper's
// alignment optimizations are orthogonal to the decomposition scheme.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/ipu.h"
#include "core/spatial_ipu.h"

namespace mpipu {
namespace {

AccumulatorConfig unbounded_acc() {
  AccumulatorConfig acc;
  acc.frac_bits = 100;
  acc.lossless = true;
  return acc;
}

std::vector<Fp16> random_fp16(Rng& rng, int n) {
  std::vector<Fp16> v;
  while (static_cast<int>(v.size()) < n) {
    const Fp16 f = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (f.is_finite()) v.push_back(f);
  }
  return v;
}

TEST(SpatialIpu, MultiplierCount) {
  // Spatial FP16 costs 9x the multipliers of the temporal design.
  EXPECT_EQ(SpatialIpu::multipliers_per_input<kFp16Format>(), 9);
  EXPECT_EQ(SpatialIpu::multipliers_per_input<kBf16Format>(), 4);
}

TEST(SpatialIpu, LosslessForAnyAdderWidth) {
  // Same invariant as the temporal MC-IPU: banding the *combined* shifts
  // loses nothing with an unbounded accumulator.
  Rng rng(301);
  for (int w : {10, 12, 16, 28, 40}) {
    DatapathConfig cfg =
        DatapathConfig::for_scheme(DecompositionScheme::kSpatial);
    cfg.n_inputs = 8;
    cfg.adder_tree_width = w;
    cfg.software_precision = 58;
    cfg.multi_cycle = true;
    cfg.accumulator = unbounded_acc();
    SpatialIpu ipu(cfg);
    for (int t = 0; t < 600; ++t) {
      const auto a = random_fp16(rng, 8);
      const auto b = random_fp16(rng, 8);
      ipu.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
      EXPECT_TRUE(ipu.read_raw() == exact_fp_inner_product<kFp16Format>(a, b))
          << "w=" << w << " t=" << t;
    }
  }
}

TEST(SpatialIpu, AgreesWithTemporalIpuBitForBit) {
  // Temporal and spatial decompositions of the same arithmetic: identical
  // results when both are lossless.
  Rng rng(302);
  DatapathConfig scfg =
      DatapathConfig::for_scheme(DecompositionScheme::kSpatial);
  scfg.n_inputs = 16;
  scfg.adder_tree_width = 16;
  scfg.software_precision = 28;
  scfg.accumulator = unbounded_acc();
  SpatialIpu spatial(scfg);
  DatapathConfig tcfg;
  tcfg.n_inputs = 16;
  tcfg.adder_tree_width = 16;
  tcfg.software_precision = 28;
  tcfg.multi_cycle = true;
  tcfg.accumulator = unbounded_acc();
  Ipu temporal(tcfg);
  for (int t = 0; t < 1500; ++t) {
    const auto a = random_fp16(rng, 16);
    const auto b = random_fp16(rng, 16);
    spatial.reset_accumulator();
    temporal.reset_accumulator();
    spatial.fp_accumulate<kFp16Format>(a, b);
    temporal.fp_accumulate<kFp16Format>(a, b);
    EXPECT_TRUE(spatial.read_raw() == temporal.read_raw()) << t;
  }
}

TEST(SpatialIpu, ConcentratedExponentsFinishInOneCycleAtWideTrees) {
  // With w = 28 (sp = 19), the nibble-significance span (14) plus small
  // alignments fits one band: single cycle -- 9x temporal throughput.
  DatapathConfig cfg =
      DatapathConfig::for_scheme(DecompositionScheme::kSpatial);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 28;
  cfg.software_precision = 28;
  SpatialIpu ipu(cfg);
  Rng rng(303);
  std::vector<Fp16> a, b;
  for (int k = 0; k < 16; ++k) {
    a.push_back(Fp16::from_double(1.0 + rng.uniform(0.0, 1.0)));  // exp 0..1
    b.push_back(Fp16::from_double(1.0 + rng.uniform(0.0, 1.0)));
  }
  EXPECT_EQ(ipu.fp_accumulate<kFp16Format>(a, b), 1);
}

TEST(SpatialIpu, NarrowTreesMultiCycleEvenWhenAligned) {
  // With w = 16 (sp = 7) the 14-bit significance span alone needs 3 bands:
  // the spatial design needs wider trees than the temporal one -- the
  // area/width trade-off between the two schemes.
  DatapathConfig cfg =
      DatapathConfig::for_scheme(DecompositionScheme::kSpatial);
  cfg.n_inputs = 4;
  cfg.adder_tree_width = 16;
  cfg.software_precision = 28;
  SpatialIpu ipu(cfg);
  const std::vector<Fp16> a(4, Fp16::from_bits(0x3FFF));  // dense mantissas
  const std::vector<Fp16> b(4, Fp16::from_bits(0x3FFF));
  const int cycles = ipu.fp_accumulate<kFp16Format>(a, b);
  EXPECT_EQ(cycles, 3);  // significance span 0..14 over sp=7 -> 3 bands
}

TEST(SpatialIpu, CyclesGrowWithAlignmentSpread) {
  DatapathConfig cfg =
      DatapathConfig::for_scheme(DecompositionScheme::kSpatial);
  cfg.n_inputs = 2;
  cfg.adder_tree_width = 28;  // sp = 19
  cfg.software_precision = 28;
  SpatialIpu ipu(cfg);
  int prev = 0;
  for (int D : {0, 10, 20, 28}) {
    const std::vector<Fp16> a = {Fp16::from_fields(false, 28, 0x3FF),
                                 Fp16::from_fields(false, static_cast<uint32_t>(28 - D), 0x3FF)};
    const std::vector<Fp16> b = {Fp16::from_bits(0x3FFF), Fp16::from_bits(0x3FFF)};
    ipu.reset_accumulator();
    const int cycles = ipu.fp_accumulate<kFp16Format>(a, b);
    EXPECT_GE(cycles, prev) << D;
    prev = cycles;
  }
  EXPECT_GE(prev, 2);
}

TEST(SpatialIpu, Bf16FourLanesExact) {
  Rng rng(304);
  DatapathConfig cfg =
      DatapathConfig::for_scheme(DecompositionScheme::kSpatial);
  cfg.n_inputs = 8;
  cfg.adder_tree_width = 30;
  cfg.software_precision = 40;
  cfg.accumulator = unbounded_acc();
  SpatialIpu ipu(cfg);
  for (int t = 0; t < 500; ++t) {
    std::vector<Bf16> a, b;
    for (int k = 0; k < 8; ++k) {
      a.push_back(Bf16::from_double(rng.laplace(0.0, 4.0)));
      b.push_back(Bf16::from_double(rng.laplace(0.0, 4.0)));
    }
    ipu.reset_accumulator();
    ipu.fp_accumulate<kBf16Format>(a, b);
    EXPECT_TRUE(ipu.read_raw() == exact_fp_inner_product<kBf16Format>(a, b)) << t;
  }
}

}  // namespace
}  // namespace mpipu

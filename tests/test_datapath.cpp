// Tests for the unified Datapath interface (core/datapath.h):
//
//  * each scheme class's prepared path (Datapath::dot) bit-matches its own
//    per-op oracle (fp_accumulate) on values AND cycles, on one object;
//  * the construction contract: a unit rejects another scheme's config and
//    a config with fewer than one input lane;
//  * cross-scheme agreement: with an exact accumulator and MC banding all
//    three schemes reproduce reference.h's exact inner product bit for bit
//    (the §5 orthogonality claim at the value level);
//  * the scheme-generic service-cycle model used for tile costing matches
//    the cycles the bit-accurate units actually report;
//  * ThreadPool partition correctness.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/datapath.h"
#include "core/ipu.h"
#include "core/reference.h"
#include "core/serial_ipu.h"
#include "core/spatial_ipu.h"

namespace mpipu {
namespace {

constexpr auto kAllSchemes = {DecompositionScheme::kTemporal,
                              DecompositionScheme::kSerial,
                              DecompositionScheme::kSpatial};

std::vector<Fp16> random_fp16_bits(Rng& rng, int n) {
  std::vector<Fp16> v;
  while (static_cast<int>(v.size()) < n) {
    const Fp16 f = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (f.is_finite()) v.push_back(f);
  }
  return v;
}

AccumulatorConfig unbounded_acc() {
  AccumulatorConfig acc;
  acc.frac_bits = 100;
  acc.lossless = true;
  return acc;
}

DatapathConfig base_config(DecompositionScheme scheme, int w) {
  // for_scheme is each scheme's customary preset (spatial counts occupied
  // bands only).
  DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = w;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  return cfg;
}

// --- Prepared path vs the scheme's per-op oracle, on one object -------------

TEST(DatapathUnits, TemporalPreparedMatchesPerOpOracle) {
  Rng rng(1);
  for (int w : {12, 16, 28}) {
    Ipu ipu(base_config(DecompositionScheme::kTemporal, w));
    for (int t = 0; t < 500; ++t) {
      const auto a = random_fp16_bits(rng, 16);
      const auto b = random_fp16_bits(rng, 16);
      const DotResult r = ipu.dot(a, b);
      ipu.reset_accumulator();
      const int cycles = ipu.fp_accumulate<kFp16Format>(a, b);
      EXPECT_TRUE(r.raw == ipu.read_raw()) << "w=" << w << " trial " << t;
      EXPECT_EQ(r.cycles, cycles) << "w=" << w << " trial " << t;
    }
  }
}

TEST(DatapathUnits, SerialPreparedMatchesPerOpOracle) {
  Rng rng(2);
  for (int w : {13, 16, 28}) {
    SerialIpu ipu(base_config(DecompositionScheme::kSerial, w));
    for (int t = 0; t < 500; ++t) {
      const auto a = random_fp16_bits(rng, 16);
      const auto b = random_fp16_bits(rng, 16);
      const DotResult r = ipu.dot(a, b);
      ipu.reset_accumulator();
      const int cycles = ipu.fp_accumulate(a, b);
      EXPECT_TRUE(r.raw == ipu.read_raw()) << "w=" << w << " trial " << t;
      EXPECT_EQ(r.cycles, cycles) << "w=" << w << " trial " << t;
    }
  }
}

TEST(DatapathUnits, SpatialPreparedMatchesPerOpOracle) {
  Rng rng(3);
  for (int w : {16, 28, 40}) {
    const DatapathConfig cfg = base_config(DecompositionScheme::kSpatial, w);
    EXPECT_TRUE(cfg.skip_empty_bands);
    SpatialIpu ipu(cfg);
    for (int t = 0; t < 500; ++t) {
      const auto a = random_fp16_bits(rng, 16);
      const auto b = random_fp16_bits(rng, 16);
      const DotResult r = ipu.dot(a, b);
      ipu.reset_accumulator();
      const int cycles = ipu.fp_accumulate<kFp16Format>(a, b);
      EXPECT_TRUE(r.raw == ipu.read_raw()) << "w=" << w << " trial " << t;
      EXPECT_EQ(r.cycles, cycles) << "w=" << w << " trial " << t;
    }
  }
}

TEST(DatapathUnits, SerialWidthIsClampedToProductWidth) {
  DatapathConfig cfg = base_config(DecompositionScheme::kSerial, 10);
  EXPECT_EQ(cfg.effective_adder_tree_width(), 13);
  EXPECT_EQ(cfg.safe_precision(), 1);
  auto dp = make_datapath(cfg);  // serves on the clamped 13-bit window
  Rng rng(4);
  const auto a = random_fp16_bits(rng, 16);
  const auto b = random_fp16_bits(rng, 16);
  EXPECT_GE(dp->dot(a, b).cycles, 12);
}

// --- Construction contract ---------------------------------------------------

TEST(DatapathUnits, SchemeClassRejectsAnotherSchemesConfig) {
  // Each class serves only the scheme it models: a temporal unit built from
  // a serial config, say, would skip the INT digit planes its serve loop
  // reads (the compatibility entry packs per cfg.scheme).
  for (auto scheme : kAllSchemes) {
    const DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
    const auto throws_unless = [&](DecompositionScheme own, auto build) {
      if (scheme == own) {
        EXPECT_NO_THROW(build()) << scheme_name(scheme);
      } else {
        EXPECT_THROW(build(), std::invalid_argument)
            << scheme_name(own) << " unit from a " << scheme_name(scheme)
            << " config";
      }
    };
    throws_unless(DecompositionScheme::kTemporal, [&] { Ipu u(cfg); });
    throws_unless(DecompositionScheme::kSerial, [&] { SerialIpu u(cfg); });
    throws_unless(DecompositionScheme::kSpatial, [&] { SpatialIpu u(cfg); });
    EXPECT_EQ(make_datapath(cfg)->config().scheme, scheme);
  }
}

TEST(DatapathUnits, RejectsFewerThanOneInput) {
  // Checked in every build mode: the executor chunks by n_inputs, so a unit
  // with no lanes must never be built.
  for (auto scheme : kAllSchemes) {
    for (int n : {0, -1}) {
      DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
      cfg.n_inputs = n;
      EXPECT_THROW(make_datapath(cfg), std::invalid_argument)
          << scheme_name(scheme) << " n_inputs=" << n;
    }
  }
}

TEST(DatapathPresets, ForSchemeMatchesStandaloneDefaults) {
  EXPECT_FALSE(DatapathConfig::for_scheme(DecompositionScheme::kTemporal)
                   .skip_empty_bands);
  EXPECT_FALSE(DatapathConfig::for_scheme(DecompositionScheme::kSerial)
                   .skip_empty_bands);
  const DatapathConfig sp =
      DatapathConfig::for_scheme(DecompositionScheme::kSpatial);
  EXPECT_EQ(sp.scheme, DecompositionScheme::kSpatial);
  EXPECT_TRUE(sp.skip_empty_bands);
}

// --- Cross-scheme agreement (§5 orthogonality at the value level) ------------

TEST(DatapathCrossScheme, AllSchemesMatchExactReferenceWithUnboundedAccumulator) {
  // MC banding is lossless for every scheme when the accumulator keeps all
  // bits and the software precision covers the FP16 worst case (58).
  Rng rng(5);
  for (auto scheme : kAllSchemes) {
    DatapathConfig cfg = base_config(scheme, 14);
    cfg.software_precision = 58;
    cfg.accumulator = unbounded_acc();
    auto dp = make_datapath(cfg);
    for (int t = 0; t < 800; ++t) {
      const auto a = random_fp16_bits(rng, 16);
      const auto b = random_fp16_bits(rng, 16);
      const FixedPoint exact = exact_fp_inner_product<kFp16Format>(a, b);
      EXPECT_TRUE(dp->dot(a, b).raw == exact)
          << scheme_name(scheme) << " trial " << t;
    }
  }
}

TEST(DatapathCrossScheme, SchemesAgreeBitForBitUnderSharedMasking) {
  // Same software precision, exact accumulator, MC mode: all three schemes
  // mask the same products and lose nothing else, so they agree exactly --
  // on values; cycle counts are where the schemes differ.
  Rng rng(6);
  DatapathConfig cfg = base_config(DecompositionScheme::kTemporal, 16);
  cfg.software_precision = 16;  // FP16-accumulation masking regime
  cfg.accumulator = unbounded_acc();
  std::vector<std::unique_ptr<Datapath>> dps;
  for (auto scheme : kAllSchemes) {
    cfg.scheme = scheme;
    dps.push_back(make_datapath(cfg));
  }
  for (int t = 0; t < 1500; ++t) {
    const auto a = random_fp16_bits(rng, 16);
    const auto b = random_fp16_bits(rng, 16);
    const DotResult r0 = dps[0]->dot(a, b);
    for (size_t s = 1; s < dps.size(); ++s) {
      const DotResult rs = dps[s]->dot(a, b);
      EXPECT_TRUE(rs.raw == r0.raw)
          << scheme_name(dps[s]->config().scheme) << " trial " << t;
    }
  }
}

TEST(DatapathCrossScheme, IntModeExactWhereSupported) {
  Rng rng(7);
  for (auto scheme : {DecompositionScheme::kTemporal, DecompositionScheme::kSerial}) {
    auto dp = make_datapath(base_config(scheme, 16));
    ASSERT_TRUE(dp->supports_int(8, 8));
    for (int t = 0; t < 300; ++t) {
      std::vector<int32_t> a, b;
      for (int k = 0; k < 16; ++k) {
        a.push_back(static_cast<int32_t>(rng.uniform_int(-128, 127)));
        b.push_back(static_cast<int32_t>(rng.uniform_int(-128, 127)));
      }
      dp->reset_accumulator();
      dp->int_accumulate(a, b, 8, 8);
      EXPECT_EQ(dp->read_int(), exact_int_inner_product(a, b))
          << scheme_name(scheme) << " trial " << t;
    }
  }
  EXPECT_FALSE(make_datapath(base_config(DecompositionScheme::kSpatial, 16))
                   ->supports_int(8, 8));
}

// --- Tile-costing model vs bit-accurate cycles -------------------------------

TEST(DatapathCostModel, ServiceCyclesMatchBitAccurateUnits) {
  // The exponent-only service model (fp16_op_service_cycles) drives the
  // cycle simulator's tile costing; it must agree with what the bit-level
  // units actually charge, for every scheme.
  Rng rng(8);
  for (auto scheme : kAllSchemes) {
    for (int w : {14, 16, 28}) {
      const DatapathConfig cfg = base_config(scheme, w);
      auto dp = make_datapath(cfg);
      std::vector<int> exps(16);
      for (int t = 0; t < 400; ++t) {
        const auto a = random_fp16_bits(rng, 16);
        const auto b = random_fp16_bits(rng, 16);
        for (int k = 0; k < 16; ++k) {
          exps[static_cast<size_t>(k)] =
              a[static_cast<size_t>(k)].decode().exp + b[static_cast<size_t>(k)].decode().exp;
        }
        EXPECT_EQ(fp16_op_service_cycles(exps, cfg), dp->dot(a, b).cycles)
            << scheme_name(scheme) << " w=" << w << " trial " << t;
      }
    }
  }
}

// --- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, PartitionCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (int64_t total : {0, 1, 3, 7, 100, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(total));
      pool.parallel_for(total, [&](int64_t begin, int64_t end, int slot) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, threads);
        for (int64_t i = begin; i < end; ++i) {
          hits[static_cast<size_t>(i)].fetch_add(1);
        }
      });
      for (int64_t i = 0; i < total; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "threads=" << threads << " total=" << total << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.parallel_for(100, [&](int64_t begin, int64_t end, int) {
      for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
  }
}

}  // namespace
}  // namespace mpipu

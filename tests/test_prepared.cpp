// Differential tests for the prepared-operand fast path (core/prepared.h):
// the prepared pipeline must be bit- AND cycle-identical to the per-op
// reference paths it replaces, for
//
//   * all three decomposition schemes x {FP16, FP32} accumulation regimes
//     (software precision 16 / 28 with the matching readout),
//   * INT mode (temporal digit planes, serial raw-value streaming),
//   * full convolutions (a one-conv GraphModel through Session::run, at 1, 3
//     and 5 threads) including border-pixel clip classes (pad/stride
//     combinations), output maps with fewer pixels than pool slots, and
//     the skip_zero_iterations sparse ablation,
//   * the allocation-free EHU overloads (Decoded spans, exponent planes,
//     and scratch reuse across calls) against the allocating one.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/rng.h"
#include "core/datapath.h"
#include "core/ipu.h"
#include "core/serial_ipu.h"
#include "core/spatial_ipu.h"
#include "nn/conv.h"
#include "single_conv.h"
#include "workload/quantizer.h"

namespace mpipu {
namespace {

constexpr auto kAllSchemes = {DecompositionScheme::kTemporal,
                              DecompositionScheme::kSerial,
                              DecompositionScheme::kSpatial};

std::vector<Fp16> random_fp16_bits(Rng& rng, int n, double zero_prob = 0.0) {
  std::vector<Fp16> v;
  while (static_cast<int>(v.size()) < n) {
    if (zero_prob > 0.0 && rng.uniform(0.0, 1.0) < zero_prob) {
      v.push_back(Fp16::zero(rng.uniform(0.0, 1.0) < 0.5));
      continue;
    }
    const Fp16 f = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (f.is_finite()) v.push_back(f);
  }
  return v;
}

DatapathConfig base_config(DecompositionScheme scheme, int w, int software_precision) {
  DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = w;
  cfg.software_precision = software_precision;
  cfg.multi_cycle = true;
  return cfg;
}

// --- EHU overloads -----------------------------------------------------------

Decoded dec(int exp) {
  Decoded d;
  d.exp = exp;
  d.magnitude = 1;
  return d;
}

TEST(PreparedEhu, ScratchAndPlaneOverloadsMatchAllocating) {
  Rng rng(21);
  EhuResult scratch;  // deliberately reused across trials: stale state must
                      // never leak into a later, smaller op
  for (int t = 0; t < 2000; ++t) {
    const int n = static_cast<int>(rng.uniform_int(1, 16));
    std::vector<Decoded> a, b;
    std::vector<int32_t> ea, eb;
    for (int k = 0; k < n; ++k) {
      a.push_back(dec(static_cast<int>(rng.uniform_int(-28, 16))));
      b.push_back(dec(static_cast<int>(rng.uniform_int(-28, 16))));
      ea.push_back(a.back().exp);
      eb.push_back(b.back().exp);
    }
    EhuOptions opts;
    opts.software_precision = static_cast<int>(rng.uniform_int(4, 32));
    opts.safe_precision = static_cast<int>(rng.uniform_int(1, 20));

    const EhuResult ref = run_ehu(a, b, opts);
    run_ehu(std::span<const Decoded>(a), std::span<const Decoded>(b), opts,
            scratch);
    EXPECT_EQ(scratch.product_exp, ref.product_exp);
    EXPECT_EQ(scratch.max_exp, ref.max_exp);
    EXPECT_EQ(scratch.align, ref.align);
    EXPECT_EQ(scratch.masked, ref.masked);
    EXPECT_EQ(scratch.band, ref.band);
    EXPECT_EQ(scratch.mc_cycles, ref.mc_cycles);
    EXPECT_EQ(scratch.mc_cycles_skip_empty, ref.mc_cycles_skip_empty);

    run_ehu(std::span<const int32_t>(ea), std::span<const int32_t>(eb), opts,
            scratch);
    EXPECT_EQ(scratch.product_exp, ref.product_exp);
    EXPECT_EQ(scratch.max_exp, ref.max_exp);
    EXPECT_EQ(scratch.align, ref.align);
    EXPECT_EQ(scratch.masked, ref.masked);
    EXPECT_EQ(scratch.band, ref.band);
    EXPECT_EQ(scratch.mc_cycles, ref.mc_cycles);
    EXPECT_EQ(scratch.mc_cycles_skip_empty, ref.mc_cycles_skip_empty);
  }
}

TEST(PreparedEhu, ProductAlignmentsMatchesRunEhuStages) {
  Rng rng(22);
  for (int t = 0; t < 500; ++t) {
    const int n = static_cast<int>(rng.uniform_int(1, 16));
    std::vector<Decoded> a, b;
    for (int k = 0; k < n; ++k) {
      a.push_back(dec(static_cast<int>(rng.uniform_int(-28, 16))));
      b.push_back(dec(static_cast<int>(rng.uniform_int(-28, 16))));
    }
    EhuOptions opts;  // defaults; alignments do not depend on the options
    EXPECT_EQ(product_alignments(a, b), run_ehu(a, b, opts).align);
  }
}

// --- Datapath prepared vs per-op, all schemes x accumulation regimes --------

/// Per-op reference driven through the original (template) entry points of
/// the directly constructed scheme units.
struct PerOpRef {
  std::function<void()> reset;
  std::function<int(std::span<const Fp16>, std::span<const Fp16>)> accumulate;
  std::function<FixedPoint()> raw;
};

// Scheme-config mappers mirroring make_datapath's (kept local: the wrapped
// configs are an implementation detail of datapath.cpp).
IpuConfig TemporalOnly(const DatapathConfig& cfg) {
  IpuConfig c;
  c.n_inputs = cfg.n_inputs;
  c.adder_tree_width = cfg.effective_adder_tree_width();
  c.software_precision = cfg.software_precision;
  c.multi_cycle = cfg.multi_cycle;
  c.skip_empty_bands = cfg.skip_empty_bands;
  c.skip_zero_iterations = cfg.skip_zero_iterations;
  return c;
}

SerialIpuConfig SerialOnly(const DatapathConfig& cfg) {
  SerialIpuConfig c;
  c.n_inputs = cfg.n_inputs;
  c.adder_tree_width =
      cfg.scheme == DecompositionScheme::kSerial ? cfg.effective_adder_tree_width() : 16;
  c.software_precision = cfg.software_precision;
  c.multi_cycle = cfg.multi_cycle;
  return c;
}

SpatialIpuConfig SpatialOnly(const DatapathConfig& cfg) {
  SpatialIpuConfig c;
  c.n_inputs = cfg.n_inputs;
  c.adder_tree_width = cfg.effective_adder_tree_width();
  c.software_precision = cfg.software_precision;
  c.multi_cycle = cfg.multi_cycle;
  c.skip_empty_bands = cfg.skip_empty_bands;
  return c;
}

PerOpRef make_ref(DecompositionScheme scheme, Ipu& ipu, SerialIpu& serial,
                  SpatialIpu& spatial) {
  switch (scheme) {
    case DecompositionScheme::kTemporal:
      return {[&] { ipu.reset_accumulator(); },
              [&](std::span<const Fp16> a, std::span<const Fp16> b) {
                return ipu.fp_accumulate<kFp16Format>(a, b);
              },
              [&] { return ipu.read_raw(); }};
    case DecompositionScheme::kSerial:
      return {[&] { serial.reset_accumulator(); },
              [&](std::span<const Fp16> a, std::span<const Fp16> b) {
                return serial.fp_accumulate(a, b);
              },
              [&] { return serial.read_raw(); }};
    case DecompositionScheme::kSpatial:
      return {[&] { spatial.reset_accumulator(); },
              [&](std::span<const Fp16> a, std::span<const Fp16> b) {
                return spatial.fp_accumulate<kFp16Format>(a, b);
              },
              [&] { return spatial.read_raw(); }};
  }
  return {};
}

TEST(PreparedDatapath, BitAndCycleIdenticalToPerOpAllSchemesBothRegimes) {
  Rng rng(23);
  for (auto scheme : kAllSchemes) {
    for (int w : {13, 16, 28}) {
      for (int soft_prec : {16, 28}) {  // FP16- vs FP32-accumulation regime
        const DatapathConfig cfg = base_config(scheme, w, soft_prec);
        auto dp = make_datapath(cfg);

        Ipu ipu(TemporalOnly(cfg));
        SerialIpu serial(SerialOnly(cfg));
        SpatialIpu spatial(SpatialOnly(cfg));
        PerOpRef ref = make_ref(scheme, ipu, serial, spatial);

        for (int t = 0; t < 150; ++t) {
          // Multi-op accumulation chains exercise the accumulator hand-off
          // between prepared ops (2 chunks of 16 without reset).
          const auto a = random_fp16_bits(rng, 32);
          const auto b = random_fp16_bits(rng, 32);
          PreparedFp16 pa(a), pb(b);
          dp->reset_accumulator();
          ref.reset();
          int prep_cycles = 0, ref_cycles = 0;
          for (size_t c0 = 0; c0 < a.size(); c0 += 16) {
            prep_cycles +=
                dp->fp16_accumulate_prepared(pa.view(c0, 16), pb.view(c0, 16));
            ref_cycles += ref.accumulate(
                std::span<const Fp16>(a).subspan(c0, 16),
                std::span<const Fp16>(b).subspan(c0, 16));
          }
          EXPECT_TRUE(dp->read_raw() == ref.raw())
              << scheme_name(scheme) << " w=" << w << " sp=" << soft_prec
              << " trial " << t;
          EXPECT_EQ(prep_cycles, ref_cycles)
              << scheme_name(scheme) << " w=" << w << " sp=" << soft_prec
              << " trial " << t;
          // Both accumulation destinations round from the same raw bits.
          EXPECT_EQ(dp->read_fp16().raw_bits(),
                    Fp16::round_from_fixed(ref.raw()).raw_bits());
          EXPECT_EQ(dp->read_fp32().raw_bits(),
                    Fp32::round_from_fixed(ref.raw()).raw_bits());
        }
      }
    }
  }
}

// --- Sparse ablation ---------------------------------------------------------

TEST(PreparedDatapath, SkipZeroIterationsAblationMatchesTemplatePath) {
  Rng rng(24);
  IpuConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.skip_zero_iterations = true;
  Ipu template_path(cfg);
  Ipu prepared_path(cfg);
  for (int t = 0; t < 400; ++t) {
    const auto a = random_fp16_bits(rng, 16, /*zero_prob=*/0.6);
    const auto b = random_fp16_bits(rng, 16, /*zero_prob=*/0.6);
    PreparedFp16 pa(a), pb(b);
    template_path.reset_accumulator();
    prepared_path.reset_accumulator();
    const int ct = template_path.fp_accumulate<kFp16Format>(a, b);
    const int cp = prepared_path.fp16_accumulate_prepared(pa.view(), pb.view());
    EXPECT_EQ(cp, ct) << t;
    EXPECT_TRUE(prepared_path.read_raw() == template_path.read_raw()) << t;
  }
  // Whole-run statistics agree counter for counter (including the skipped-
  // iteration and masked-product counts the ablation is about).
  EXPECT_EQ(prepared_path.stats().skipped_iterations,
            template_path.stats().skipped_iterations);
  EXPECT_GT(prepared_path.stats().skipped_iterations, 0);
  EXPECT_EQ(prepared_path.stats().cycles, template_path.stats().cycles);
  EXPECT_EQ(prepared_path.stats().nibble_iterations,
            template_path.stats().nibble_iterations);
  EXPECT_EQ(prepared_path.stats().masked_products,
            template_path.stats().masked_products);
  EXPECT_EQ(prepared_path.stats().multi_cycle_iterations,
            template_path.stats().multi_cycle_iterations);
  EXPECT_EQ(prepared_path.stats().max_alignment_seen,
            template_path.stats().max_alignment_seen);
}

// --- INT mode ----------------------------------------------------------------

TEST(PreparedDatapath, IntPreparedMatchesPerOpTemporalAndSerial) {
  Rng rng(25);
  for (auto scheme :
       {DecompositionScheme::kTemporal, DecompositionScheme::kSerial}) {
    for (bool skip_zero : {false, true}) {
      DatapathConfig cfg = base_config(scheme, 16, 28);
      cfg.skip_zero_iterations = skip_zero;
      auto dp = make_datapath(cfg);
      Ipu ipu(TemporalOnly(cfg));
      SerialIpu serial(SerialOnly(cfg));
      for (int t = 0; t < 300; ++t) {
        std::vector<int32_t> a, b;
        for (int k = 0; k < 16; ++k) {
          // Mix in zeros so the temporal skip-zero ablation actually skips.
          a.push_back(rng.uniform(0.0, 1.0) < 0.3
                          ? 0
                          : static_cast<int32_t>(rng.uniform_int(-128, 127)));
          b.push_back(rng.uniform(0.0, 1.0) < 0.3
                          ? 0
                          : static_cast<int32_t>(rng.uniform_int(-128, 127)));
        }
        PreparedInt pa, pb;
        pa.assign(a, 8);
        pb.assign(b, 8);
        dp->reset_accumulator();
        const int cp = dp->int_accumulate_prepared(pa.view(), pb.view(), 8, 8);
        int cr;
        int64_t ref_val;
        if (scheme == DecompositionScheme::kTemporal) {
          ipu.reset_accumulator();
          cr = ipu.int_accumulate(a, b, 8, 8);
          ref_val = ipu.read_int();
        } else {
          serial.reset_accumulator();
          cr = serial.int_accumulate(a, b, 12, 8);
          ref_val = serial.read_int();
        }
        if (scheme == DecompositionScheme::kSerial) {
          // The serial unit charges b_bits cycles regardless of a_bits.
          EXPECT_EQ(cp, cr) << t;
        } else {
          EXPECT_EQ(cp, cr) << "skip_zero=" << skip_zero << " trial " << t;
        }
        EXPECT_EQ(dp->read_int(), ref_val) << scheme_name(scheme) << " " << t;
      }
    }
  }
}

// --- Convolution: clip classes, strides, both accumulation destinations -----

/// Single-threaded per-op convolution reference (the PR 2 engine loop):
/// per-pixel Fp16 gather + the scheme's original per-op entry points.
Tensor per_op_conv_fp16(const PerOpRef& ref,
                        std::function<double()> read_out, int n_inputs,
                        const Tensor& input, const FilterBank& filters,
                        const ConvSpec& spec, int64_t* cycles_out) {
  std::vector<Fp16> in16(input.data.size()), flt16(filters.data.size());
  for (size_t i = 0; i < input.data.size(); ++i) {
    in16[i] = Fp16::from_double(input.data[i]);
  }
  for (size_t i = 0; i < filters.data.size(); ++i) {
    flt16[i] = Fp16::from_double(filters.data[i]);
  }
  const int ho = spec.out_dim(input.h, filters.kh);
  const int wo = spec.out_dim(input.w, filters.kw);
  Tensor out(filters.cout, ho, wo);
  int64_t cycles = 0;
  std::vector<Fp16> pa, pb;
  for (int y = 0; y < ho; ++y) {
    for (int x = 0; x < wo; ++x) {
      pa.clear();
      pb.clear();
      std::vector<int32_t> filter_off;
      for (int ky = 0; ky < filters.kh; ++ky) {
        for (int kx = 0; kx < filters.kw; ++kx) {
          const int iy = y * spec.stride + ky - spec.pad;
          const int ix = x * spec.stride + kx - spec.pad;
          if (iy < 0 || iy >= input.h || ix < 0 || ix >= input.w) continue;
          for (int ci = 0; ci < input.c; ++ci) {
            pa.push_back(in16[(static_cast<size_t>(ci) * input.h + iy) *
                                  static_cast<size_t>(input.w) +
                              ix]);
            filter_off.push_back(static_cast<int32_t>(
                (static_cast<size_t>(ci) * filters.kh + ky) *
                    static_cast<size_t>(filters.kw) +
                kx));
          }
        }
      }
      const int len = static_cast<int>(pa.size());
      const size_t block =
          static_cast<size_t>(filters.cin) * filters.kh * filters.kw;
      for (int co = 0; co < filters.cout; ++co) {
        pb.resize(static_cast<size_t>(len));
        for (int t = 0; t < len; ++t) {
          pb[static_cast<size_t>(t)] =
              flt16[static_cast<size_t>(co) * block +
                    static_cast<size_t>(filter_off[static_cast<size_t>(t)])];
        }
        ref.reset();
        for (int c0 = 0; c0 < len; c0 += n_inputs) {
          const auto chunk = static_cast<size_t>(std::min(n_inputs, len - c0));
          cycles += ref.accumulate(
              std::span<const Fp16>(pa).subspan(static_cast<size_t>(c0), chunk),
              std::span<const Fp16>(pb).subspan(static_cast<size_t>(c0), chunk));
        }
        out.at(co, y, x) = read_out();
      }
    }
  }
  if (cycles_out) *cycles_out = cycles;
  return out;
}

TEST(PreparedConv, BorderClipClassesAndStridesMatchPerOpAllSchemes) {
  Rng rng(26);
  const FilterBank filters =
      random_filters(rng, 4, 5, 3, 3, ValueDist::kNormal, 0.3);
  // 7x9 inputs give maps with more pixels than pool slots; the 1x1, 1x2 and
  // 2x2 output maps have fewer, so 3 and 5 slots split pixels across output
  // channels (cout 4 < 5 slots leaves a slot idle on the 1x1 map).
  struct Geometry {
    int h, w, stride, pad;
  };
  for (const Geometry g : {Geometry{7, 9, 1, 0}, Geometry{7, 9, 1, 1},
                           Geometry{7, 9, 1, 2}, Geometry{7, 9, 2, 1},
                           Geometry{1, 1, 1, 1}, Geometry{1, 2, 1, 1},
                           Geometry{4, 4, 2, 1}}) {
    const Tensor input =
        random_tensor(rng, 5, g.h, g.w, ValueDist::kNormal, 1.0);
    ConvSpec spec;
    spec.stride = g.stride;
    spec.pad = g.pad;
    for (auto scheme : kAllSchemes) {
      for (AccumKind accum : {AccumKind::kFp16, AccumKind::kFp32}) {
        const DatapathConfig cfg = base_config(scheme, 16, 28);
        Ipu ipu(TemporalOnly(cfg));
        SerialIpu serial(SerialOnly(cfg));
        SpatialIpu spatial(SpatialOnly(cfg));
        PerOpRef ref = make_ref(scheme, ipu, serial, spatial);
        auto read_out = [&]() {
          const FixedPoint raw = ref.raw();
          return accum == AccumKind::kFp16
                     ? Fp16::round_from_fixed(raw).to_double()
                     : Fp32::round_from_fixed(raw).to_double();
        };
        int64_t ref_cycles = 0;
        const Tensor expect = per_op_conv_fp16(ref, read_out, cfg.n_inputs,
                                               input, filters, spec, &ref_cycles);

        for (int threads : {1, 3, 5}) {
          const RunReport run =
              run_single_conv(input, filters, spec, cfg,
                              LayerPrecision::fp16(accum), threads);
          const Tensor& got = run.output;
          ASSERT_EQ(got.data.size(), expect.data.size());
          for (size_t i = 0; i < got.data.size(); ++i) {
            EXPECT_EQ(got.data[i], expect.data[i])
                << scheme_name(scheme) << " " << g.h << "x" << g.w
                << " stride=" << g.stride << " pad=" << g.pad
                << " threads=" << threads << " elt " << i;
          }
          EXPECT_EQ(run.totals.cycles, ref_cycles)
              << scheme_name(scheme) << " " << g.h << "x" << g.w
              << " stride=" << g.stride << " pad=" << g.pad
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(PreparedConv, SparseAblationConvMatchesPerOp) {
  Rng rng(27);
  // Half the activations are exactly zero (post-ReLU-style sparsity).
  Tensor input = random_tensor(rng, 4, 6, 6, ValueDist::kNormal, 1.0);
  for (auto& v : input.data) {
    if (rng.uniform(0.0, 1.0) < 0.5) v = 0.0;
  }
  const FilterBank filters =
      random_filters(rng, 3, 4, 3, 3, ValueDist::kNormal, 0.3);
  ConvSpec spec;
  spec.pad = 1;
  DatapathConfig cfg = base_config(DecompositionScheme::kTemporal, 16, 28);
  cfg.skip_zero_iterations = true;

  Ipu ipu(TemporalOnly(cfg));
  SerialIpu serial(SerialOnly(cfg));
  SpatialIpu spatial(SpatialOnly(cfg));
  PerOpRef ref = make_ref(cfg.scheme, ipu, serial, spatial);
  int64_t ref_cycles = 0;
  const Tensor expect = per_op_conv_fp16(
      ref, [&] { return Fp32::round_from_fixed(ref.raw()).to_double(); },
      cfg.n_inputs, input, filters, spec, &ref_cycles);

  for (int threads : {1, 3}) {
    const RunReport run =
        run_single_conv(input, filters, spec, cfg,
                        LayerPrecision::fp16(AccumKind::kFp32), threads);
    for (size_t i = 0; i < run.output.data.size(); ++i) {
      EXPECT_EQ(run.output.data[i], expect.data[i]) << threads << " " << i;
    }
    EXPECT_EQ(run.totals.cycles, ref_cycles) << threads;
    EXPECT_EQ(run.totals.skipped_iterations, ipu.stats().skipped_iterations)
        << threads;
  }
  EXPECT_GT(ipu.stats().skipped_iterations, 0);
}

TEST(PreparedConv, IntConvMatchesPerOpQuantizedLoop) {
  Rng rng(28);
  const FilterBank filters =
      random_filters(rng, 3, 4, 3, 3, ValueDist::kNormal, 0.2);
  // A 6x7 map plus 1x1, 1x2 and 2x2 maps with fewer pixels than 3 or 5
  // pool slots, which the executor splits across output channels.
  struct Geometry {
    int h, w, stride;
  };
  for (const Geometry g : {Geometry{6, 7, 1}, Geometry{1, 1, 1},
                           Geometry{1, 2, 1}, Geometry{4, 4, 2}}) {
    for (auto scheme :
         {DecompositionScheme::kTemporal, DecompositionScheme::kSerial}) {
      const Tensor input =
          random_tensor(rng, 4, g.h, g.w, ValueDist::kHalfNormal, 1.0);
      ConvSpec spec;
      spec.stride = g.stride;
      spec.pad = 1;
      const DatapathConfig cfg = base_config(scheme, 16, 28);

      // Per-op reference: quantize once, gather per pixel, INT-accumulate per
      // op through the direct units.
      const QuantParams qa = fit_symmetric(input.data, 8);
      const QuantParams qw = fit_symmetric(filters.data, 8);
      const std::vector<int32_t> in_q = quantize(input.data, qa);
      const std::vector<int32_t> flt_q = quantize(filters.data, qw);
      Ipu ipu(TemporalOnly(cfg));
      SerialIpu serial(SerialOnly(cfg));
      const int ho = spec.out_dim(input.h, filters.kh);
      const int wo = spec.out_dim(input.w, filters.kw);
      Tensor expect(filters.cout, ho, wo);
      std::vector<int32_t> pa, pb;
      for (int y = 0; y < ho; ++y) {
        for (int x = 0; x < wo; ++x) {
          pa.clear();
          std::vector<int32_t> filter_off;
          for (int ky = 0; ky < filters.kh; ++ky) {
            for (int kx = 0; kx < filters.kw; ++kx) {
              const int iy = y * spec.stride + ky - spec.pad;
              const int ix = x * spec.stride + kx - spec.pad;
              if (iy < 0 || iy >= input.h || ix < 0 || ix >= input.w) continue;
              for (int c = 0; c < input.c; ++c) {
                pa.push_back(in_q[(static_cast<size_t>(c) * input.h + iy) *
                                      static_cast<size_t>(input.w) +
                                  ix]);
                filter_off.push_back(static_cast<int32_t>(
                    (static_cast<size_t>(c) * filters.kh + ky) *
                        static_cast<size_t>(filters.kw) +
                    kx));
              }
            }
          }
          const int len = static_cast<int>(pa.size());
          const size_t block =
              static_cast<size_t>(filters.cin) * filters.kh * filters.kw;
          for (int co = 0; co < filters.cout; ++co) {
            pb.resize(static_cast<size_t>(len));
            for (int t = 0; t < len; ++t) {
              const auto off =
                  static_cast<size_t>(filter_off[static_cast<size_t>(t)]);
              pb[static_cast<size_t>(t)] =
                  flt_q[static_cast<size_t>(co) * block + off];
            }
            int64_t acc = 0;
            for (int c0 = 0; c0 < len; c0 += cfg.n_inputs) {
              const auto chunk =
                  static_cast<size_t>(std::min(cfg.n_inputs, len - c0));
              const auto sa = std::span<const int32_t>(pa).subspan(
                  static_cast<size_t>(c0), chunk);
              const auto sb = std::span<const int32_t>(pb).subspan(
                  static_cast<size_t>(c0), chunk);
              if (scheme == DecompositionScheme::kTemporal) {
                ipu.reset_accumulator();
                ipu.int_accumulate(sa, sb, 8, 8);
                acc += ipu.read_int();
              } else {
                serial.reset_accumulator();
                serial.int_accumulate(sa, sb, 8, 8);
                acc += serial.read_int();
              }
            }
            expect.at(co, y, x) = dequantize_accumulator(acc, qa, qw);
          }
        }
      }

      const bool temporal = scheme == DecompositionScheme::kTemporal;
      const int64_t ref_ops =
          temporal ? ipu.stats().int_ops : serial.stats().int_ops;
      const int64_t ref_cycles =
          temporal ? ipu.stats().cycles : serial.stats().cycles;
      for (int threads : {1, 3, 5}) {
        const RunReport run = run_single_conv(
            input, filters, spec, cfg, LayerPrecision::int_bits(8, 8), threads);
        ASSERT_EQ(run.output.data.size(), expect.data.size());
        for (size_t i = 0; i < run.output.data.size(); ++i) {
          EXPECT_EQ(run.output.data[i], expect.data[i])
              << scheme_name(scheme) << " " << g.h << "x" << g.w
              << " threads=" << threads << " " << i;
        }
        EXPECT_EQ(run.totals.int_ops, ref_ops)
            << scheme_name(scheme) << " " << g.h << "x" << g.w;
        EXPECT_EQ(run.totals.cycles, ref_cycles)
            << scheme_name(scheme) << " " << g.h << "x" << g.w;
      }
    }
  }
}

// --- Prepared plane plumbing -------------------------------------------------

TEST(PreparedPlanes, GatherMatchesDirectPreparation) {
  Rng rng(29);
  const auto pool = random_fp16_bits(rng, 256);
  PreparedFp16 planes(pool);
  Ipu a_path{IpuConfig{}}, b_path{IpuConfig{}};
  for (int t = 0; t < 200; ++t) {
    std::vector<int32_t> rel;
    std::vector<Fp16> direct;
    const int32_t base = static_cast<int32_t>(rng.uniform_int(0, 64));
    for (int k = 0; k < 16; ++k) {
      rel.push_back(static_cast<int32_t>(rng.uniform_int(0, 191)));
      direct.push_back(pool[static_cast<size_t>(base + rel.back())]);
    }
    PreparedFp16 gathered;
    gathered.resize(16);
    gathered.gather(planes, rel, base);
    const PreparedFp16 prepared(direct);
    a_path.reset_accumulator();
    b_path.reset_accumulator();
    const int ca = a_path.fp16_accumulate_prepared(gathered.view(), gathered.view());
    const int cb = b_path.fp16_accumulate_prepared(prepared.view(), prepared.view());
    EXPECT_EQ(ca, cb) << t;
    EXPECT_TRUE(a_path.read_raw() == b_path.read_raw()) << t;
  }
}

}  // namespace
}  // namespace mpipu

// The exact reference conv (byte-identical to the naive loop of
// tests/conv_oracle.h for any pool size, typed errors on bad geometry) and
// integration tests: convolution on the bit-accurate IPU datapath (a
// one-conv GraphModel through Session::run) vs the exact reference -- the
// mechanism behind the paper's §3.1 accuracy claims.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "conv_oracle.h"
#include "nn/conv.h"
#include "single_conv.h"
#include "workload/quantizer.h"

namespace mpipu {
namespace {

const LayerPrecision kFp32Acc = LayerPrecision::fp16(AccumKind::kFp32);

DatapathConfig wide_ipu() {
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 38;
  cfg.software_precision = 58;
  cfg.multi_cycle = false;
  cfg.accumulator.frac_bits = 100;
  cfg.accumulator.lossless = true;
  return cfg;
}

TEST(ConvReference, KnownTinyCase) {
  Tensor in(1, 3, 3);
  for (int i = 0; i < 9; ++i) in.data[static_cast<size_t>(i)] = i + 1;
  FilterBank f(1, 1, 2, 2);
  f.at(0, 0, 0, 0) = 1.0;
  f.at(0, 0, 0, 1) = 2.0;
  f.at(0, 0, 1, 0) = 3.0;
  f.at(0, 0, 1, 1) = 4.0;
  const Tensor out = conv_reference(in, f, ConvSpec{});
  ASSERT_EQ(out.h, 2);
  ASSERT_EQ(out.w, 2);
  // top-left: 1*1 + 2*2 + 4*3 + 5*4 = 37
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0), 37.0);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 1), 47.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1, 0), 67.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1, 1), 77.0);
}

TEST(ConvReference, PaddingAndStride) {
  Tensor in(1, 4, 4);
  for (auto& v : in.data) v = 1.0;
  FilterBank f(1, 1, 3, 3);
  for (auto& v : f.data) v = 1.0;
  ConvSpec spec;
  spec.pad = 1;
  spec.stride = 2;
  const Tensor out = conv_reference(in, f, spec);
  ASSERT_EQ(out.h, 2);
  ASSERT_EQ(out.w, 2);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0), 4.0);  // corner sees 2x2 of ones
  EXPECT_DOUBLE_EQ(out.at(0, 1, 1), 9.0);  // interior sees full 3x3
}

/// Normal values of which about a third are exact +0.0 or -0.0, so some
/// windows (small kernels, few channels) sum nothing but signed zeros.
void fill_with_signed_zeros(Rng& rng, std::vector<double>& v) {
  for (double& x : v) {
    const double u = rng.uniform(0.0, 1.0);
    x = u < 0.17 ? 0.0 : u < 0.34 ? -0.0 : rng.normal(0.0, 1.0);
  }
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.c == b.c && a.h == b.h && a.w == b.w &&
         a.data.size() == b.data.size() &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(double)) == 0;
}

TEST(ConvReference, BitIdenticalToNaiveLoop) {
  // Every kernel size, stride and pad -- pad k leaves border outputs with
  // no in-bounds tap -- over maps smaller than a window and larger, channel
  // counts below, at and around the 8-channel block, and pools that split
  // pixels across slots.  Where the spec is a stride-1 pad < k one, the
  // filters are a transposed forward bank, so dgrad_reference is checked
  // against the same naive output.
  ThreadPool pool1(1), pool3(3), pool5(5);
  const std::pair<int, int> maps[] = {{1, 1}, {1, 2}, {2, 2}, {5, 7}, {17, 16}};
  Rng rng(0xC0DE15);
  int compared = 0, dgrads = 0, collapsed = 0;
  for (const int k : {1, 3, 5, 7}) {
    std::vector<int> pads = {0, 1, k / 2, k};
    std::sort(pads.begin(), pads.end());
    pads.erase(std::unique(pads.begin(), pads.end()), pads.end());
    for (const int stride : {1, 2}) {
      for (const int pad : pads) {
        const ConvSpec spec{stride, pad};
        for (const auto& [h, w] : maps) {
          for (const int cin : {1, 3, 33}) {
            Tensor in(cin, h, w);
            fill_with_signed_zeros(rng, in.data);
            if (spec.out_dim(h, k) <= 0 || spec.out_dim(w, k) <= 0) {
              EXPECT_THROW(conv_reference(in, FilterBank(1, cin, k, k), spec),
                           std::invalid_argument);
              ++collapsed;
              continue;
            }
            for (const int cout : {1, 7, 8, 9, 20}) {
              FilterBank fwd(cin, cout, k, k);
              fill_with_signed_zeros(rng, fwd.data);
              const FilterBank f = transpose_for_dgrad(fwd);
              const Tensor want = oracle::naive_conv_reference(in, f, spec);
              const auto where = [&] {
                return "k " + std::to_string(k) + " stride " +
                       std::to_string(stride) + " pad " + std::to_string(pad) +
                       " map " + std::to_string(h) + "x" + std::to_string(w) +
                       " cin " + std::to_string(cin) + " cout " +
                       std::to_string(cout);
              };
              EXPECT_TRUE(same_bytes(conv_reference(in, f, spec), want))
                  << where() << ", 3-argument overload";
              for (ThreadPool* pool : {&pool1, &pool3, &pool5}) {
                EXPECT_TRUE(
                    same_bytes(conv_reference(in, f, spec, *pool), want))
                    << where() << ", pool of " << pool->size();
              }
              ++compared;
              if (stride == 1 && pad < k) {
                EXPECT_TRUE(
                    same_bytes(dgrad_reference(in, fwd, k - 1 - pad), want))
                    << where() << ", dgrad_reference";
                ++dgrads;
              }
            }
          }
        }
      }
    }
  }
  // The grid reaches every branch it was built for.
  EXPECT_EQ(compared, 1500);
  EXPECT_EQ(dgrads, 435);
  EXPECT_EQ(collapsed, 90);
}

TEST(ConvReference, RejectsInvalidGeometryInEveryBuildMode) {
  ThreadPool pool(3);
  const Tensor in(3, 8, 8);
  const FilterBank f(4, 3, 3, 3);
  for (const ConvSpec bad : {ConvSpec{0, 1}, ConvSpec{-1, 1}, ConvSpec{1, -1}}) {
    EXPECT_THROW(conv_reference(in, f, bad), std::invalid_argument)
        << "stride " << bad.stride << " pad " << bad.pad;
    EXPECT_THROW(conv_reference(in, f, bad, pool), std::invalid_argument);
  }
  // Channel mismatch: the filters expect 4 input channels, the input has 3.
  EXPECT_THROW(conv_reference(in, FilterBank(4, 4, 3, 3), ConvSpec{}),
               std::invalid_argument);
  // Collapsed output: a 3x3 / pad-0 kernel over a 1x1 input.
  EXPECT_THROW(conv_reference(Tensor(3, 1, 1), f, ConvSpec{}),
               std::invalid_argument);
  EXPECT_THROW(conv_reference(Tensor(3, 1, 1), f, ConvSpec{}, pool),
               std::invalid_argument);
  // The gradient of a 4-output-channel conv has 4 channels, not 3.
  EXPECT_THROW(dgrad_reference(Tensor(3, 8, 8), FilterBank(4, 3, 3, 3), 1),
               std::invalid_argument);
}

TEST(CompareOutputs, RejectsSizeMismatch) {
  const Tensor a(2, 3, 3), b(2, 3, 4);
  EXPECT_THROW(compare_outputs(a, b), std::invalid_argument);
  EXPECT_THROW(compare_outputs(b, a), std::invalid_argument);
  EXPECT_EQ(compare_outputs(a, a).total, 18);
}

TEST(ConvIpu, WideIpuConvIsExactOnFp16Inputs) {
  // With FP16-rounded inputs and a lossless datapath, the IPU conv must
  // agree with the double reference exactly up to one final FP32 rounding.
  Rng rng(21);
  Tensor in = random_tensor(rng, 8, 6, 6, ValueDist::kNormal, 1.0).rounded_to_fp16();
  FilterBank f =
      random_filters(rng, 4, 8, 3, 3, ValueDist::kNormal, 0.1).rounded_to_fp16();
  const Tensor ref = conv_reference(in, f, ConvSpec{});
  const Tensor got =
      run_single_conv(in, f, ConvSpec{}, wide_ipu(), kFp32Acc).output;
  const AgreementStats s = compare_outputs(got, ref);
  // Every output within half an FP32 ULP of the exact value.
  EXPECT_EQ(s.mismatched_fp16, 0);
  EXPECT_LT(s.max_rel_err, 1e-6);
}

TEST(ConvIpu, Precision16MatchesReferenceThroughFp16Rounding) {
  // §3.1: 16-bit IPU precision with FP16 accumulation maintains agreement.
  Rng rng(22);
  Tensor in = random_tensor(rng, 16, 8, 8, ValueDist::kHalfNormal, 1.0).rounded_to_fp16();
  FilterBank f =
      random_filters(rng, 8, 16, 3, 3, ValueDist::kNormal, 0.05).rounded_to_fp16();
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 28;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  const Tensor ref = conv_reference(in, f, ConvSpec{});
  const Tensor got = run_single_conv(in, f, ConvSpec{}, cfg, kFp32Acc).output;
  const AgreementStats s = compare_outputs(got, ref);
  EXPECT_GT(s.snr_db, 55.0);
  EXPECT_LT(static_cast<double>(s.mismatched_fp16) / static_cast<double>(s.total), 0.02);
}

TEST(ConvIpu, LowPrecisionDegradesGracefully) {
  Rng rng(23);
  Tensor in = random_tensor(rng, 16, 6, 6, ValueDist::kHalfNormal, 1.0).rounded_to_fp16();
  FilterBank f =
      random_filters(rng, 4, 16, 3, 3, ValueDist::kNormal, 0.05).rounded_to_fp16();
  const Tensor ref = conv_reference(in, f, ConvSpec{});
  double prev_snr = -100.0;
  for (int w : {8, 12, 16, 24}) {
    DatapathConfig cfg;
    cfg.n_inputs = 16;
    cfg.adder_tree_width = w;
    cfg.software_precision = w;
    cfg.multi_cycle = false;
    const Tensor got = run_single_conv(in, f, ConvSpec{}, cfg, kFp32Acc).output;
    const double snr = compare_outputs(got, ref).snr_db;
    EXPECT_GE(snr, prev_snr - 3.0) << w;  // approximately monotone
    prev_snr = snr;
  }
  EXPECT_GT(prev_snr, 50.0);
}

TEST(ConvIpu, IntConvMatchesQuantizedReference) {
  Rng rng(24);
  Tensor in = random_tensor(rng, 8, 5, 5, ValueDist::kHalfNormal, 1.0);
  FilterBank f = random_filters(rng, 4, 8, 3, 3, ValueDist::kNormal, 0.1);
  DatapathConfig cfg;
  cfg.n_inputs = 8;
  cfg.adder_tree_width = 12;
  for (int bits : {4, 8}) {
    const Tensor got = run_single_conv(in, f, ConvSpec{}, cfg,
                                       LayerPrecision::int_bits(bits, bits))
                           .output;
    // Build the quantized reference by hand.
    const QuantParams qa = fit_symmetric(in.data, bits);
    const QuantParams qw = fit_symmetric(f.data, bits);
    Tensor in_q = in;
    in_q.data = dequantize(quantize(in.data, qa), qa);
    FilterBank f_q = f;
    f_q.data = dequantize(quantize(f.data, qw), qw);
    const Tensor ref = conv_reference(in_q, f_q, ConvSpec{});
    const AgreementStats s = compare_outputs(got, ref);
    EXPECT_LT(s.max_abs_err, 1e-9) << bits;  // INT mode is exact
  }
}

TEST(ConvIpu, Int4CoarserThanInt8) {
  Rng rng(25);
  Tensor in = random_tensor(rng, 8, 6, 6, ValueDist::kHalfNormal, 1.0);
  FilterBank f = random_filters(rng, 4, 8, 3, 3, ValueDist::kNormal, 0.1);
  DatapathConfig cfg;
  cfg.n_inputs = 8;
  const Tensor ref = conv_reference(in, f, ConvSpec{});
  auto int_snr = [&](int bits) {
    const Tensor got = run_single_conv(in, f, ConvSpec{}, cfg,
                                       LayerPrecision::int_bits(bits, bits))
                           .output;
    return compare_outputs(got, ref).snr_db;
  };
  const double snr4 = int_snr(4);
  const double snr8 = int_snr(8);
  EXPECT_GT(snr8, snr4 + 10.0);
  EXPECT_GT(snr4, 10.0);
}

TEST(ConvIpu, CyclesAccountNineIterationsPerOp) {
  Rng rng(26);
  Tensor in = random_tensor(rng, 16, 4, 4, ValueDist::kNormal, 1.0).rounded_to_fp16();
  FilterBank f =
      random_filters(rng, 2, 16, 1, 1, ValueDist::kNormal, 0.1).rounded_to_fp16();
  const DatapathStats stats =
      run_single_conv(in, f, ConvSpec{}, wide_ipu(), kFp32Acc).totals;
  // 2 cout * 16 pixels * 1 chunk = 32 ops, 9 cycles each (single-cycle IPU).
  EXPECT_EQ(stats.fp_ops, 32);
  EXPECT_EQ(stats.cycles, 32 * 9);
}

TEST(Pooling, ReluAndMaxpool) {
  Tensor t(1, 2, 2);
  t.data = {-1.0, 2.0, 3.0, -4.0};
  const Tensor r = relu(t);
  EXPECT_EQ(r.data[0], 0.0);
  EXPECT_EQ(r.data[1], 2.0);
  const Tensor p = maxpool2(t);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.data[0], 3.0);
}

}  // namespace
}  // namespace mpipu

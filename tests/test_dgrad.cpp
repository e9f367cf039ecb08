// Tests for the data-gradient (backward) convolution path: the bit-level
// counterpart of the simulator's backward workload (§4.3, Fig. 9(b)).
#include <gtest/gtest.h>

#include <cmath>

#include "nn/conv.h"
#include "single_conv.h"

namespace mpipu {
namespace {

const LayerPrecision kFp32Acc = LayerPrecision::fp16(AccumKind::kFp32);

/// Data-gradient conv of a stride-1 layer with forward padding `fwd_pad` on
/// the datapath: one compiled layer over transpose_for_dgrad(filters) with
/// pad k - 1 - fwd_pad (what dgrad_reference computes exactly).
RunReport run_dgrad(const Tensor& grad_out, const FilterBank& filters,
                    int fwd_pad, const DatapathConfig& cfg) {
  ConvSpec spec;
  spec.pad = filters.kh - 1 - fwd_pad;
  return run_single_conv(grad_out, transpose_for_dgrad(filters), spec, cfg,
                         kFp32Acc);
}

TEST(Dgrad, TransposeIsAnInvolutionOnShapes) {
  Rng rng(91);
  const FilterBank f = random_filters(rng, 6, 4, 3, 3, ValueDist::kNormal, 0.1);
  const FilterBank t = transpose_for_dgrad(f);
  EXPECT_EQ(t.cout, 4);
  EXPECT_EQ(t.cin, 6);
  const FilterBank tt = transpose_for_dgrad(t);
  EXPECT_EQ(tt.data, f.data);
}

TEST(Dgrad, ShapeInvertsStride1Conv) {
  Rng rng(92);
  const Tensor x = random_tensor(rng, 4, 9, 9, ValueDist::kNormal, 1.0);
  const FilterBank f = random_filters(rng, 6, 4, 3, 3, ValueDist::kNormal, 0.1);
  for (int pad : {0, 1}) {
    ConvSpec spec;
    spec.pad = pad;
    const Tensor y = conv_reference(x, f, spec);
    const Tensor gx = dgrad_reference(y, f, pad);
    EXPECT_EQ(gx.c, x.c) << pad;
    EXPECT_EQ(gx.h, x.h) << pad;
    EXPECT_EQ(gx.w, x.w) << pad;
  }
}

TEST(Dgrad, MatchesManualAdjointOnTinyCase) {
  // For y = conv(x, w), the adjoint satisfies <y, conv(x, w)> = <dgrad(y), x>
  // for any gradient tensor g:  sum(g * conv(x,w)) == sum(dgrad(g) * x).
  Rng rng(93);
  const Tensor x = random_tensor(rng, 3, 6, 6, ValueDist::kNormal, 1.0);
  const FilterBank f = random_filters(rng, 2, 3, 3, 3, ValueDist::kNormal, 0.5);
  ConvSpec spec;
  spec.pad = 1;
  const Tensor y = conv_reference(x, f, spec);
  const Tensor g = random_tensor(rng, 2, 6, 6, ValueDist::kNormal, 1.0);
  const Tensor gx = dgrad_reference(g, f, 1);
  double lhs = 0.0, rhs = 0.0;
  for (size_t i = 0; i < y.data.size(); ++i) lhs += g.data[i] * y.data[i];
  for (size_t i = 0; i < x.data.size(); ++i) rhs += gx.data[i] * x.data[i];
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(std::fabs(lhs), 1.0));
}

TEST(Dgrad, IpuPathAgreesWithReference) {
  Rng rng(94);
  const Tensor g =
      random_tensor(rng, 8, 7, 7, ValueDist::kBackwardWide, 1.0).rounded_to_fp16();
  const FilterBank f =
      random_filters(rng, 8, 4, 3, 3, ValueDist::kNormal, 0.1).rounded_to_fp16();
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 28;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  const Tensor ref = dgrad_reference(g, f, 1);
  const Tensor got = run_dgrad(g, f, 1, cfg).output;
  const AgreementStats s = compare_outputs(got, ref);
  EXPECT_GT(s.snr_db, 50.0);
}

TEST(Dgrad, BackwardTensorsCostMoreAlignmentCyclesThanForward) {
  // The bit-level confirmation of Fig. 9: gradient-like values multi-cycle
  // far more often than activation-like ones on a narrow MC-IPU.
  Rng rng(95);
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 12;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  const FilterBank f =
      random_filters(rng, 4, 8, 3, 3, ValueDist::kNormal, 0.1).rounded_to_fp16();
  const Tensor act =
      random_tensor(rng, 8, 7, 7, ValueDist::kHalfNormal, 1.0).rounded_to_fp16();
  const DatapathStats fwd_stats =
      run_single_conv(act, f, ConvSpec{}, cfg, kFp32Acc).totals;
  const Tensor grad =
      random_tensor(rng, 4, 7, 7, ValueDist::kBackwardWide, 1.0).rounded_to_fp16();
  const DatapathStats bwd_stats = run_dgrad(grad, f, 0, cfg).totals;
  const double fwd_cpi = static_cast<double>(fwd_stats.cycles) /
                         static_cast<double>(fwd_stats.fp_ops);
  const double bwd_cpi = static_cast<double>(bwd_stats.cycles) /
                         static_cast<double>(bwd_stats.fp_ops);
  EXPECT_GT(bwd_cpi, fwd_cpi * 1.2);
}

}  // namespace
}  // namespace mpipu

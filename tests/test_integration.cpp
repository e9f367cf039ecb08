// Cross-module integration tests: full pipelines spanning workload ->
// datapath -> analysis -> simulator -> model, i.e. the paths the benchmark
// harnesses exercise, locked down at small scale.
#include <gtest/gtest.h>

#include "analysis/error_metrics.h"
#include "core/ipu.h"
#include "model/hw_model.h"
#include "nn/conv.h"
#include "sim/cycle_sim.h"
#include "single_conv.h"

namespace mpipu {
namespace {

TEST(Integration, QuantizedIntConvTracksFp16ConvAsBitsGrow) {
  // quantize -> INT conv on the datapath -> dequantize must approach the
  // FP16 datapath conv as the integer width grows.
  Rng rng(81);
  Tensor in = random_tensor(rng, 8, 6, 6, ValueDist::kHalfNormal, 1.0);
  FilterBank f = random_filters(rng, 4, 8, 3, 3, ValueDist::kNormal, 0.1);
  DatapathConfig cfg;
  cfg.n_inputs = 8;
  cfg.adder_tree_width = 28;
  cfg.software_precision = 28;
  const Tensor fp_out =
      run_single_conv(in.rounded_to_fp16(), f.rounded_to_fp16(), ConvSpec{},
                      cfg, LayerPrecision::fp16(AccumKind::kFp32))
          .output;
  double prev_snr = -100.0;
  for (int bits : {4, 8, 12}) {
    const Tensor int_out = run_single_conv(in, f, ConvSpec{}, cfg,
                                           LayerPrecision::int_bits(bits, bits))
                               .output;
    const double snr = compare_outputs(int_out, fp_out).snr_db;
    EXPECT_GT(snr, prev_snr);
    prev_snr = snr;
  }
  EXPECT_GT(prev_snr, 45.0);  // INT12 ~ FP16-grade
}

TEST(Integration, PaperStudyCasesSimulateEndToEnd) {
  // Smoke the full Fig. 8 pipeline at tiny sampling: all four networks,
  // both tiles, sane normalized results.
  SimOptions opts;
  opts.sampled_steps = 60;
  for (const auto& net : paper_study_cases()) {
    const auto base = simulate_network(net, baseline2(), opts);
    EXPECT_GT(base.total_cycles, 0.0);
    EXPECT_EQ(base.layers.size(), net.layers.size());
    const auto mc = simulate_network(net, big_tile(16, 28, 8), opts);
    const double norm = mc.normalized_to(base);
    EXPECT_GE(norm, 0.99) << net.name;
    EXPECT_LT(norm, 10.0) << net.name;
  }
}

TEST(Integration, SimulatedSlowdownFeedsEfficiencyModel) {
  // Fig. 10 pipeline: simulator slowdown -> effective TFLOPS -> efficiency.
  SimOptions opts;
  opts.sampled_steps = 100;
  const Network net = resnet18_forward();
  const auto base = simulate_network(net, baseline2(), opts);
  DesignConfig d = proposed_design(16, 4, /*big=*/true);
  const auto run = simulate_network(net, d.tile, opts);
  const double slowdown = run.normalized_to(base);
  EXPECT_GT(slowdown, 1.0);
  const double eff = tflops_per_mm2(d, slowdown);
  const double peak_eff = tflops_per_mm2(d, 1.0);
  EXPECT_GT(eff, 0.0);
  EXPECT_LT(eff, peak_eff);
  EXPECT_NEAR(eff * slowdown, peak_eff, 1e-9);
}

TEST(Integration, DatapathErrorWithinAnalyticBoundOnWorkloadTensors) {
  // Workload generator -> datapath -> Theorem-1-style bound, end to end.
  Rng rng(82);
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.software_precision = 16;
  cfg.multi_cycle = false;
  cfg.accumulator.frac_bits = 100;
  cfg.accumulator.lossless = true;
  Ipu ipu(cfg);
  for (int t = 0; t < 500; ++t) {
    const auto a = sample_fp16(rng, ValueDist::kHalfNormal, 1.0, 16);
    const auto b = sample_fp16(rng, ValueDist::kNormal, 0.05, 16);
    int max_exp = INT32_MIN;
    for (int k = 0; k < 16; ++k) {
      max_exp = std::max(max_exp, a[static_cast<size_t>(k)].decode().exp +
                                      b[static_cast<size_t>(k)].decode().exp);
    }
    ipu.reset_accumulator();
    ipu.fp_accumulate<kFp16Format>(a, b);
    const double err =
        absolute_error(ipu.read_raw(), exact_fp_inner_product<kFp16Format>(a, b));
    EXPECT_LE(err, window_truncation_operation_bound(16, 16, max_exp)) << t;
  }
}

TEST(Integration, AlignmentHistogramPredictsSimulatorCycles) {
  // Consistency between the two Fig. 9 consumers: if the histogram says
  // alignments rarely exceed sp, the simulator should report few
  // multi-cycle iterations, and vice versa for backward.
  SimOptions opts;
  opts.sampled_steps = 150;
  const TileConfig tile = big_tile(20, 28, 64);  // sp = 11
  const auto fwd_hist = alignment_histogram(resnet18_forward(), 16, 1500);
  const auto fwd_run = simulate_network(resnet18_forward(), tile, opts);
  const auto bwd_hist = alignment_histogram(resnet18_backward(), 16, 1500);
  const auto bwd_run = simulate_network(resnet18_backward(), tile, opts);
  double fwd_cycles = 0.0, bwd_cycles = 0.0;
  for (const auto& l : fwd_run.layers) fwd_cycles += l.avg_iteration_cycles;
  for (const auto& l : bwd_run.layers) bwd_cycles += l.avg_iteration_cycles;
  fwd_cycles /= static_cast<double>(fwd_run.layers.size());
  bwd_cycles /= static_cast<double>(bwd_run.layers.size());
  EXPECT_GT(bwd_hist.fraction_above(11), fwd_hist.fraction_above(11));
  EXPECT_GT(bwd_cycles, fwd_cycles);
}

TEST(Integration, ModelAndSimulatorAgreeOnBaselineFlops) {
  // 455 GFLOPS for Baseline2 implies exactly 9 cycles/op in the simulator.
  SimOptions opts;
  opts.sampled_steps = 100;
  Network net;
  net.name = "x";
  net.tensor_stats = forward_stats();
  ConvLayer l;
  l.name = "l";
  l.cin = l.cout = 64;
  l.kh = l.kw = 1;
  l.hout = l.wout = 8;
  net.layers = {l};
  const auto run = simulate_network(net, baseline2(), opts);
  EXPECT_NEAR(run.layers[0].cycles_per_step, 9.0, 0.2);
  EXPECT_NEAR(fp16_tflops(nvdla_like_design(), 1.0) * 9.0,
              peak_tops(nvdla_like_design(), 4, 4), 1e-9);
}

}  // namespace
}  // namespace mpipu

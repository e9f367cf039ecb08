// Tests for the cycle-accurate tile simulator: mapping arithmetic, stall
// behaviour, clustering benefits, precision/cycle monotonicity.
#include <gtest/gtest.h>

#include <type_traits>

#include "sim/cycle_sim.h"

namespace mpipu {
namespace {

ConvLayer simple_layer(int cin, int cout, int k, int hw) {
  ConvLayer l;
  l.name = "L";
  l.cin = cin;
  l.cout = cout;
  l.kh = l.kw = k;
  l.hout = l.wout = hw;
  return l;
}

Network tiny_net(LayerTensorStats stats) {
  Network n;
  n.name = "tiny";
  n.tensor_stats = stats;
  n.layers = {simple_layer(64, 64, 3, 14)};
  return n;
}

TEST(Mapping, BroadcastStepArithmetic) {
  const TileConfig big = baseline2();  // (16,16,2,2) x 4 tiles
  // 64 cin -> 4 chunks of 16; 64 cout over 4 tiles -> 16/tile -> 1 K-group;
  // 14x14 output over 2x2 -> 7*7 = 49 groups; 3x3 kernel -> 9 positions.
  EXPECT_EQ(layer_broadcast_steps(simple_layer(64, 64, 3, 14), big), 9 * 4 * 1 * 49);
  // Partial channel chunk rounds up.
  EXPECT_EQ(layer_broadcast_steps(simple_layer(3, 64, 7, 112), big),
            49LL * 1 * 1 * 56 * 56);
  // cout = 128 over 4 tiles = 32 -> 2 K-groups.
  EXPECT_EQ(layer_broadcast_steps(simple_layer(16, 128, 1, 4), big), 1 * 1 * 2 * 4);
}

TEST(Mapping, SmallTileHasMoreSteps) {
  const ConvLayer l = simple_layer(64, 64, 3, 28);
  const int64_t big = layer_broadcast_steps(l, baseline2());
  const int64_t small = layer_broadcast_steps(l, baseline1());
  // Small tile has 1/4 the multipliers -> 4x the steps.
  EXPECT_EQ(small, big * 4);
}

TEST(CycleSim, BaselineRunsNineCyclesPerStep) {
  // 38b adder tree, single-cycle: every op is 9 nibble iterations, so the
  // steady-state rate is exactly 9 cycles/step regardless of data.
  SimOptions opts;
  opts.sampled_steps = 400;
  const auto r = simulate_network(tiny_net(forward_stats()), baseline2(), opts);
  ASSERT_EQ(r.layers.size(), 1u);
  EXPECT_NEAR(r.layers[0].cycles_per_step, 9.0, 0.1);
  EXPECT_NEAR(r.layers[0].avg_iteration_cycles, 1.0, 1e-9);
}

TEST(CycleSim, NarrowAdderTreeIsSlowerAndWideIsBaselineEqual) {
  SimOptions opts;
  opts.sampled_steps = 400;
  const Network net = tiny_net(forward_stats());
  const auto base = simulate_network(net, baseline2(), opts);
  double prev = 1e18;
  for (int w : {12, 16, 20, 28}) {
    const auto r = simulate_network(net, big_tile(w, 28), opts);
    EXPECT_GE(r.total_cycles, base.total_cycles * 0.999) << w;
    // Monotone: wider trees are never slower.
    EXPECT_LE(r.total_cycles, prev * 1.02) << w;
    prev = r.total_cycles;
  }
  // w=38 covers the 28b software precision in one cycle: equals baseline.
  const auto wide = simulate_network(net, big_tile(38, 28), opts);
  EXPECT_NEAR(wide.normalized_to(base), 1.0, 1e-6);
}

TEST(CycleSim, ClusteringReducesExecutionTime) {
  SimOptions opts;
  opts.sampled_steps = 600;
  const Network net = tiny_net(backward_stats());  // wide alignments: stalls
  const auto whole_tile = simulate_network(net, big_tile(16, 28, 64), opts);
  const auto clustered = simulate_network(net, big_tile(16, 28, 4), opts);
  EXPECT_LT(clustered.total_cycles, whole_tile.total_cycles);
}

TEST(CycleSim, ClusterSizeMonotonicity) {
  SimOptions opts;
  opts.sampled_steps = 500;
  const Network net = tiny_net(forward_stats());
  double prev = 0.0;
  for (int cluster : {4, 8, 16, 32, 64}) {
    const auto r = simulate_network(net, big_tile(16, 28, cluster), opts);
    EXPECT_GE(r.total_cycles, prev * 0.98) << cluster;  // bigger cluster, slower
    prev = r.total_cycles;
  }
}

TEST(CycleSim, BackwardWorkloadCostsMoreThanForward) {
  SimOptions opts;
  opts.sampled_steps = 500;
  const TileConfig tile = big_tile(16, 28, 64);
  const auto fwd = simulate_network(tiny_net(forward_stats()), tile, opts);
  const auto bwd = simulate_network(tiny_net(backward_stats()), tile, opts);
  EXPECT_GT(bwd.layers[0].avg_iteration_cycles, fwd.layers[0].avg_iteration_cycles);
}

TEST(CycleSim, EightInputIpusNeedFewerCyclesPerIterationThanSixteen) {
  // Fewer products per IPU -> smaller max alignment (paper §4.3).
  SimOptions opts;
  opts.sampled_steps = 500;
  const Network net = tiny_net(forward_stats());
  const auto small = simulate_network(net, small_tile(12, 28, 32), opts);
  const auto big = simulate_network(net, big_tile(12, 28, 64), opts);
  EXPECT_LT(small.layers[0].avg_iteration_cycles, big.layers[0].avg_iteration_cycles);
}

TEST(CycleSim, DeterministicForFixedSeed) {
  SimOptions opts;
  opts.sampled_steps = 200;
  const Network net = tiny_net(forward_stats());
  const auto a = simulate_network(net, big_tile(16, 28, 16), opts);
  const auto b = simulate_network(net, big_tile(16, 28, 16), opts);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

TEST(CycleSim, TotalCyclesScaleWithSteps) {
  SimOptions opts;
  opts.sampled_steps = 300;
  Network net = tiny_net(forward_stats());
  const auto r1 = simulate_network(net, baseline2(), opts);
  net.layers[0].repeat = 2;
  const auto r2 = simulate_network(net, baseline2(), opts);
  EXPECT_NEAR(r2.total_cycles / r1.total_cycles, 2.0, 0.05);
}

TEST(AlignmentHistogramTest, ForwardConcentratedBackwardWide) {
  // The Fig. 9 shape: forward alignments cluster near zero with ~1% above
  // 8; backward alignments are spread much wider.
  const auto fwd = alignment_histogram(resnet18_forward(), 8, 800);
  const auto bwd = alignment_histogram(resnet18_backward(), 8, 800);
  EXPECT_GT(fwd.fraction(0) + fwd.fraction(1) + fwd.fraction(2) + fwd.fraction(3) +
                fwd.fraction(4),
            0.5);
  EXPECT_LT(fwd.fraction_above(8), 0.05);
  EXPECT_GT(bwd.fraction_above(8), fwd.fraction_above(8) * 3);
}

TEST(SimOptionsTest, IterationsPerOpDerivesFromScheme) {
  // The scheme is the only derivation point for the per-op base step count.
  EXPECT_EQ(fp16_iterations_per_op(DecompositionScheme::kTemporal), 9);
  EXPECT_EQ(fp16_iterations_per_op(DecompositionScheme::kSerial), 12);
  EXPECT_EQ(fp16_iterations_per_op(DecompositionScheme::kSpatial), 1);
}

TEST(SimOptionsTest, SchemeDerivationMatchesServiceCycleModel) {
  // The derived base count is exactly the unbanded service time of an op
  // (fp16_op_service_cycles with multi_cycle off), per scheme.
  for (auto s : {DecompositionScheme::kTemporal, DecompositionScheme::kSerial,
                 DecompositionScheme::kSpatial}) {
    DatapathConfig cfg = DatapathConfig::for_scheme(s);
    cfg.multi_cycle = false;
    cfg.skip_empty_bands = false;
    const std::vector<int> exps{0, 1, 2, 3};
    EXPECT_EQ(fp16_op_service_cycles(exps, cfg),
              fp16_iterations_per_op(s))
        << scheme_name(s);
  }
}

TEST(CycleSim, StallFractionBoundedAndBuffersHelp) {
  SimOptions opts;
  opts.sampled_steps = 500;
  const Network net = tiny_net(backward_stats());
  TileConfig shallow = big_tile(16, 28, 8);
  shallow.input_buffer_depth = 1;
  TileConfig deep = shallow;
  deep.input_buffer_depth = 16;
  const auto r_shallow = simulate_network(net, shallow, opts);
  const auto r_deep = simulate_network(net, deep, opts);
  EXPECT_LE(r_deep.total_cycles, r_shallow.total_cycles * 1.001);
}

// Pins the removal of the dead `exponent_pool` knob (PR 10): it was carried
// by SimOptions through PR 9 but never read anywhere, so a caller setting it
// got silently ignored.  If someone re-adds the member, this fails until the
// simulator actually consumes it (at which point delete this test).
template <typename T, typename = void>
struct HasExponentPool : std::false_type {};
template <typename T>
struct HasExponentPool<T, std::void_t<decltype(std::declval<T>().exponent_pool)>>
    : std::true_type {};

TEST(SimOptionsTest, ExponentPoolKnobStaysRemoved) {
  static_assert(!HasExponentPool<SimOptions>::value,
                "SimOptions.exponent_pool was removed as dead config in PR 10; "
                "re-adding it requires wiring it into simulate_network");
  SUCCEED();
}

}  // namespace
}  // namespace mpipu

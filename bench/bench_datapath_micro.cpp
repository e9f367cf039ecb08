// Google-benchmark microbenchmarks of the emulation library itself: how fast
// the bit-accurate models run on the host (useful when scaling simulations).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "core/ipu.h"
#include "core/reference.h"
#include "sim/cycle_sim.h"

namespace mpipu {
namespace {

std::vector<Fp16> fp16_vec(Rng& rng, int n) {
  std::vector<Fp16> v;
  for (int i = 0; i < n; ++i) v.push_back(Fp16::from_double(rng.normal(0.0, 1.0)));
  return v;
}

void BM_Fp16FromDouble(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> vals;
  for (int i = 0; i < 1024; ++i) vals.push_back(rng.normal(0.0, 1.0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fp16::from_double(vals[i++ & 1023]));
  }
}
BENCHMARK(BM_Fp16FromDouble);

void BM_ExactReferenceInnerProduct(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<int>(state.range(0));
  const auto a = fp16_vec(rng, n), b = fp16_vec(rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_fp_inner_product<kFp16Format>(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExactReferenceInnerProduct)->Arg(8)->Arg(16)->Arg(64);

void BM_IpuFpAccumulate(benchmark::State& state) {
  Rng rng(3);
  DatapathConfig cfg;
  cfg.n_inputs = static_cast<int>(state.range(0));
  cfg.adder_tree_width = static_cast<int>(state.range(1));
  cfg.software_precision = 28;
  Ipu ipu(cfg);
  const auto a = fp16_vec(rng, cfg.n_inputs), b = fp16_vec(rng, cfg.n_inputs);
  for (auto _ : state) {
    ipu.reset_accumulator();
    benchmark::DoNotOptimize(ipu.fp_accumulate<kFp16Format>(a, b));
  }
  state.SetItemsProcessed(state.iterations() * cfg.n_inputs);
}
BENCHMARK(BM_IpuFpAccumulate)->Args({8, 12})->Args({16, 12})->Args({16, 28})->Args({16, 38});

void BM_IpuIntAccumulate(benchmark::State& state) {
  Rng rng(4);
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  Ipu ipu(cfg);
  std::vector<int32_t> a, b;
  for (int i = 0; i < 16; ++i) {
    a.push_back(static_cast<int32_t>(rng.uniform_int(-8, 7)));
    b.push_back(static_cast<int32_t>(rng.uniform_int(-8, 7)));
  }
  const auto bits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ipu.reset_accumulator();
    benchmark::DoNotOptimize(ipu.int_accumulate(a, b, bits, bits));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_IpuIntAccumulate)->Arg(4)->Arg(8);

void BM_EhuRun(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<Decoded> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i].exp = static_cast<int>(rng.uniform_int(-14, 15));
    b[i].exp = static_cast<int>(rng.uniform_int(-14, 15));
    a[i].magnitude = b[i].magnitude = 1024;
  }
  EhuOptions opts;
  opts.software_precision = 28;
  opts.safe_precision = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_ehu(a, b, opts));
  }
}
BENCHMARK(BM_EhuRun)->Arg(8)->Arg(16);

void BM_CycleSimLayer(benchmark::State& state) {
  Network net;
  net.name = "bench";
  net.tensor_stats = forward_stats();
  ConvLayer l;
  l.name = "L";
  l.cin = l.cout = 128;
  l.kh = l.kw = 3;
  l.hout = l.wout = 14;
  net.layers = {l};
  SimOptions opts;
  opts.sampled_steps = static_cast<int>(state.range(0));
  const TileConfig tile = big_tile(16, 28, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_network(net, tile, opts));
  }
}
BENCHMARK(BM_CycleSimLayer)->Arg(100)->Arg(400);

}  // namespace
}  // namespace mpipu

BENCHMARK_MAIN();

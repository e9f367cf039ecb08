// Self-tests of perfbench's own rules: the nearest-rank tail with >= 10
// samples beyond, the serving-ladder rule (failures miss the limit, a
// growing backlog disqualifies a rate), the failure fraction, and the
// replay-equals-CompiledModel::run check (which must also catch a change).
// run.py runs this before every benchmark run; exits non-zero on failure.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "harness.h"
#include "workload/graph_builders.h"

namespace {

using namespace mpipu;
using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what);
  }
}

std::vector<double> ramp(int n) {  // 1, 2, ..., n in shuffled order
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

void tail_rule() {
  const Tail t100 = nearest_rank_tail(ramp(100));
  expect(t100.pct == 90 && t100.value == 90.0 && t100.beyond == 10,
         "n=100: p90 leaves exactly 10 samples beyond");
  const Tail t20 = nearest_rank_tail(ramp(20));
  expect(t20.pct == 50 && t20.value == 10.0 && t20.beyond == 10,
         "n=20: p50 is the highest percentile with 10 beyond");
  const Tail t25 = nearest_rank_tail(ramp(25));
  expect(t25.pct == 60 && t25.value == 15.0 && t25.beyond == 10,
         "n=25: p60 (rank 15) leaves 10 beyond");
  const Tail t5 = nearest_rank_tail(ramp(5));
  expect(t5.pct == 50 && t5.value == 3.0,
         "n=5: too few samples, the tail falls back to the median");
  std::vector<double> with_fail = ramp(100);
  for (int i = 0; i < 11; ++i) {
    with_fail[static_cast<size_t>(i)] = std::numeric_limits<double>::infinity();
  }
  expect(std::isinf(nearest_rank_tail(with_fail).value),
         "11 failed of 100 put the p90 tail at infinity");
}

Rung rung(double rate, int n, double lat, int failed, uint64_t backlog) {
  Rung r;
  r.rate_rps = rate;
  for (int i = 0; i < n; ++i) {
    r.latencies.push_back(i < failed ? std::numeric_limits<double>::infinity()
                                     : lat);
  }
  r.backlog_at_end = backlog;
  r.in_service = 2;
  return r;
}

void ladder_rule() {
  const double limit = 0.5;
  expect(rung_passes(rung(10, 40, 0.1, 0, 2), limit), "fast rung passes");
  expect(!rung_passes(rung(10, 40, 0.6, 0, 2), limit), "slow rung misses");
  expect(!rung_passes(rung(10, 20, 0.1, 11, 2), limit),
         "failures count as misses: 11 of 20 failed puts p50 past the limit");
  expect(rung_passes(rung(10, 100, 0.1, 10, 2), limit),
         "10 of 100 failed stay beyond the p90 tail");
  expect(rung_passes(rung(10, 40, 0.1, 0, 7), limit),
         "rate * limit arrivals plus the requests in execution may pend");
  expect(!rung_passes(rung(10, 40, 0.1, 0, 8), limit),
         "a longer backlog is a growing backlog");
  expect(!rung_passes(Rung{}, limit), "an empty rung never passes");
  const std::vector<Rung> ladder = {rung(8, 40, 0.1, 0, 1),
                                    rung(16, 40, 0.2, 0, 2),
                                    rung(24, 40, 0.9, 0, 3),
                                    rung(32, 40, 0.1, 0, 1)};
  expect(ladder_max_rps(ladder, limit) == 16.0,
         "ladder stops at the first miss (a later pass is noise)");
  expect(ladder_max_rps({rung(8, 40, 0.9, 0, 1)}, limit) == 0.0,
         "lowest rung missing gives 0");
}

void failed_frac_rule() {
  expect(failed_frac(0, 10) == 0.0, "no failures");
  expect(failed_frac(3, 10) == 0.3, "3 of 10");
  expect(failed_frac(0, 0) == 1.0, "nothing attempted counts as failure");
}

void replay_check() {
  GraphModel g = resnet_basic_block_graph(8, 16, 2, "selftest-block");
  g.materialize_weights(7);
  Rng rng(11);
  const Tensor in = random_tensor(rng, 8, 6, 6, ValueDist::kHalfNormal, 1.0);
  for (bool int8 : {false, true}) {
    for (int threads : {1, 3}) {
      RunSpec spec;
      spec.datapath = DatapathConfig::for_scheme(DecompositionScheme::kTemporal);
      spec.datapath.adder_tree_width = 16;
      spec.policy = int8 ? PrecisionPolicy::all_int(8)
                         : PrecisionPolicy::all_fp16(AccumKind::kFp32);
      spec.threads = threads;
      const CompiledModel cm = CompiledModel::compile(g, spec, {6, 6});
      const RunReport rep = cm.run(in, {.compare_reference = false});
      const ReplayModel rm = replay_compile(g, spec, 6, 6, nullptr);
      Tracer tracer;
      const ReplayResult r = replay_forward(rm, in, threads, &tracer, 0);
      expect(replay_matches(r, rep), "replay equals CompiledModel::run");
      expect(!tracer.spans().empty(), "replay records spans");
      expect(rm.plan_bytes > 0, "plan bytes counted");

      ReplayResult bad_out = r;
      bad_out.output.data[0] = std::nextafter(bad_out.output.data[0], 1e9);
      expect(!replay_matches(bad_out, rep), "one-ulp output change detected");
      ReplayResult bad_stats = r;
      bad_stats.stats.back().cycles += 1;
      expect(!replay_matches(bad_stats, rep), "one-cycle stats change detected");
    }
  }
}

}  // namespace

int main() {
  tail_rule();
  ladder_rule();
  failed_frac_rule();
  replay_check();
  if (g_failures != 0) {
    std::printf("perfbench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: ok\n");
  return 0;
}

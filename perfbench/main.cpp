// perfbench: the repo's end-to-end benchmark of resnet18_graph() on the
// paper's temporal MC-IPU datapath (adder tree w = 16).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Every workload runs the same phases on one compiled model, so every
// end-to-end metric exists on every workload:
//
//   setup     ServingRuntime::load (= CompiledModel::compile + plan-cache
//             insert) on a fresh runtime, several times; each followed by
//             the first forward;
//   forward   closed loop, one caller, CompiledModel::run without the FP32
//             reference over seeded distinct inputs;
//   reference run with compare_reference = true, each on a never-run input
//             (the per-input RefCache cannot turn it into a hit);
//   estimate  CompiledModel::estimate (the cycle simulator);
//   serve     one generator thread submits an open-loop Poisson stream at
//             fixed absolute rates: the nominal rate, then an ascending
//             ladder that stops at the first rate missing the latency limit.
//
// Both workloads run on nproc threads and serve with one worker (nproc
// threads in all).  On a shared 4-vCPU host a 1-thread forward switched
// between two speeds 1.8x apart every few seconds, and its run medians
// spread 0.24 over five seeds; the pool spreads each forward over all
// vCPUs, and its medians spread under 0.04.
//
// --trace 1 replaces the timed loops by a traced run: untraced forwards for
// the baseline, then a node-by-node replay of the same forwards through nn's
// public functions (harness.h), asserted byte-identical to
// CompiledModel::run, plus the serving spans of one nominal stream.  It
// prints the per-layer metrics and writes the spans (Chrome trace JSON) to
// --trace-out.
//
// The last stdout line is one JSON object: run context, correctness
// counts, metrics {name: {value, unit}} and the digests that run.py checks
// against expected.json.  Exit 1 when a correctness check fails, 3 when the
// generator ran too late for the serving numbers to mean anything.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/json.h"
#include "core/simd/simd.h"
#include "harness.h"
#include "serve/serving_runtime.h"
#include "serve/traffic.h"
#include "workload/graph_builders.h"

namespace perfbench {
namespace {

using namespace mpipu;

constexpr uint64_t kWeightSeed = 2021;  // the model is fixed; seeds vary inputs
constexpr double kBaseSeconds = 50.0;   // per-workload counts are for 50 s
constexpr int kDigestInputs = 4;        // forwards pinned in expected.json
/// Each ladder rung above the nominal rate sends at least this many
/// requests (the tail rule puts its tail at p66 or above) and lasts at
/// least kRungMinSeconds, so the top rung overloads the server for longer
/// than one burst the limit can absorb.  Not scaled by --seconds.
constexpr int kRungRequests = 30;
constexpr double kRungMinSeconds = 2.0;
constexpr int kServeSegments = 10;
constexpr int kZipfCatalog = 32;
constexpr double kZipfS = 1.1;
/// A run is invalid when the generator submitted later than this share of
/// the latency limit.
constexpr double kMaxLateShare = 0.2;

struct Workload {
  const char* name;
  bool int8;         ///< int8_except_first_last(), else all_fp16(kFp32)
  int hw;            ///< input is 3 x hw x hw
  /// Ascending absolute rates from a measured ladder; the first is the
  /// nominal rate.  The FP16 workload's rungs step through its measured
  /// knee.  The INT8 workload's rungs cost ~10 s each, so it has only a
  /// floor rate met on 19 of 20 measured runs and a rate past capacity: there
  /// serve_max_rps is a pass/fail floor that drops when a change costs
  /// capacity and does not rise with a gain.
  std::vector<double> ladder;
  double limit_s;  ///< tail latency limit (also each request's deadline)
  // Counts per 50 s run.
  int rounds, setups, forwards, refs, estimates, nominal_requests;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      // Measured on a 4-vCPU AVX2 host with 30-request rungs: at limit 1 s
      // the tail (p66) was 0.33-0.63 s at 3 req/s and a ladder in 0.5 req/s
      // steps first missed at 4.5-6.
      {"resnet18-int8-64x64-mt", true, 64, {2.0, 3.0, 8.0}, 1.0, 10, 6, 32, 8,
       4, 30},
      // Measured on the same host with a ladder in 5 req/s steps: at limit
      // 1 s the tail (p80) was 0.54-0.95 s at 25 req/s and the ladder first
      // missed at 30.
      {"serve-resnet18-fp16-16x16-zipf", false, 16,
       {5.0, 20.0, 25.0, 30.0, 40.0, 60.0}, 1.0, 20, 8, 110, 40, 6, 50},
  };
  return w;
}

uint64_t mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int scaled(int base, double scale, int lo) {
  return std::max(lo, static_cast<int>(std::lround(base * scale)));
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Metrics in insertion order, printed as {"name": {"value", "unit"}}.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void put(const std::string& name, double value, const char* unit) {
    items.push_back({name, {value, unit}});
  }
  Json to_json() const {
    Json j = Json::object();
    for (const auto& [name, vu] : items) {
      Json m = Json::object();
      m.set("value", vu.first);
      m.set("unit", vu.second);
      j.set(name, std::move(m));
    }
    return j;
  }
  void print() const {
    for (const auto& [name, vu] : items) {
      std::printf("  %-28s %16.6f %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
    }
  }
};

/// Operation ledger behind ok_frac: every output check and every
/// nominal-rate request is attempted once.  A failed check is a wrong
/// output and makes the run incorrect; a shed or failed request is a timing
/// event on the host and only counts against ok_frac.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< failed checks + unserved nominal requests
  uint64_t wrong = 0;   ///< failed checks
  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++wrong;
      std::printf("CHECK FAILED: %s\n", what);
    }
  }
  void request(bool served) {
    ++attempted;
    if (!served) ++failed;
  }
};

// ---------------------------------------------------------------------------
// Open-loop serving.
// ---------------------------------------------------------------------------

struct StreamResult {
  Rung rung;
  double window_s = 0.0;  ///< scheduled window of the stream
  uint64_t sent = 0, ok = 0, failed = 0, within_limit = 0;
  std::map<std::string, uint64_t> shed;  ///< by reject reason
  std::vector<double> late;              ///< submit - due, per request
  std::vector<double> queue_wait, exec;  ///< ok requests
  uint64_t batches = 0, coalesced = 0;
  size_t queue_high_water = 0;
  /// A few served requests (input, result) for the served-equals-direct
  /// check: distinct inputs, a coalesced one when there is one.
  std::vector<std::pair<Tensor, serve::ServeResult>> samples;
  bool conserved = true;
};

/// Seeded stream for one rate: Poisson due times plus the inputs.  The
/// arrivals are a Poisson process conditioned on n = rate * seconds arrivals
/// in the window (the first n of n + 1 arrivals, scaled so the (n+1)-th
/// lands at its end), so every seed offers exactly the nominal rate.  The
/// inputs are zipf(1.1) draws from a fixed catalog.
struct Stream {
  double rate_rps = 0.0;
  double seconds = 0.0;  ///< scheduled window
  std::vector<double> due;
  std::vector<const Tensor*> inputs;
  std::vector<int> ids;  ///< catalog index per request
};

/// One generator thread (the caller) submits `inputs` at `due` offsets from
/// now; latencies are timed from each request's due time.
StreamResult run_stream(serve::ServingRuntime& rt, serve::ModelHandle h,
                        const Stream& s, double limit_s, Tracer* tracer,
                        int request_base) {
  const std::vector<double>& due = s.due;
  StreamResult r;
  r.rung.rate_rps = s.rate_rps;
  r.window_s = s.seconds;
  r.rung.in_service = static_cast<uint64_t>(rt.config().workers) *
                      static_cast<uint64_t>(rt.config().max_batch);
  const serve::ServerMetrics m0 = rt.metrics();
  std::vector<std::future<serve::ServeResult>> futs;
  std::vector<double> submit_t(due.size());
  futs.reserve(due.size());
  const double t0 = now_s() + 0.01;
  for (size_t i = 0; i < due.size(); ++i) {
    // Short polling sleeps rather than one long sleep: the generator stays
    // punctual and the host does not drop into deep idle between requests
    // (which on shared hosts slows the next request and widens the tail).
    const double target = t0 + due[i];
    while (now_s() < target) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    submit_t[i] = now_s();
    r.late.push_back(submit_t[i] - target);
    // A request that has not started within the limit cannot meet it: the
    // deadline sheds it instead of letting an overload rung drain slowly.
    futs.push_back(rt.submit(h, *s.inputs[i], {.timeout_s = limit_s}));
  }
  r.rung.backlog_at_end = rt.metrics().in_flight;
  std::set<int> sampled;
  for (size_t i = 0; i < futs.size(); ++i) {
    serve::ServeResult res = futs[i].get();
    ++r.sent;
    if (res.ok()) {
      ++r.ok;
      const double lat = r.late[i] + res.total_s;
      r.rung.latencies.push_back(lat);
      if (lat <= limit_s) ++r.within_limit;
      r.queue_wait.push_back(res.queue_wait_s);
      r.exec.push_back(res.total_s - res.queue_wait_s);
      if (tracer != nullptr) {
        const int req = request_base + static_cast<int>(i);
        const int root =
            tracer->add("serve.request", t0 + due[i],
                        submit_t[i] + res.total_s, -1, req);
        tracer->add("gen.late", t0 + due[i], submit_t[i], root, req);
        tracer->add("serve.queue_wait", submit_t[i],
                    submit_t[i] + res.queue_wait_s, root, req);
        tracer->add(res.coalesced ? "serve.exec(coalesced)" : "serve.exec",
                    submit_t[i] + res.queue_wait_s, submit_t[i] + res.total_s,
                    root, req);
      }
      const int id = s.ids[i];
      if (r.samples.size() < 3 && !sampled.count(id) &&
          (res.coalesced || r.samples.size() < 2)) {
        sampled.insert(id);
        r.samples.emplace_back(*s.inputs[i], std::move(res));
      }
    } else {
      r.rung.latencies.push_back(std::numeric_limits<double>::infinity());
      if (res.rejected == serve::RejectReason::kExecError) {
        ++r.failed;
      } else {
        ++r.shed[serve::reject_reason_name(res.rejected)];
      }
    }
  }
  const serve::ServerMetrics m1 = rt.metrics();
  r.batches = m1.batches - m0.batches;
  r.coalesced = m1.coalesced - m0.coalesced;
  r.queue_high_water = m1.queue_high_water;
  r.conserved = m1.conserved() && m1.in_flight == 0;
  return r;
}

Stream make_stream(Rng& rng, double rate, int n,
                   const std::vector<Tensor>& catalog) {
  Stream s;
  s.rate_rps = rate;
  s.seconds = n / rate;
  const double seconds = s.seconds;
  s.due = serve::poisson_arrivals(rng, rate, n + 1);
  const double stretch = seconds / s.due.back();
  s.due.pop_back();
  for (double& t : s.due) t *= stretch;
  for (int idx : serve::zipf_indices(rng, kZipfS, kZipfCatalog, n)) {
    s.inputs.push_back(&catalog[static_cast<size_t>(idx)]);
    s.ids.push_back(idx);
  }
  return s;
}

void print_stream(const StreamResult& s, double limit_s) {
  std::string shed;
  for (const auto& [reason, n] : s.shed) {
    shed += reason + "=" + std::to_string(n) + " ";
  }
  const Tail tail = nearest_rank_tail(s.rung.latencies);
  std::printf(
      "  rate %6.2f req/s: sent %llu ok %llu failed %llu shed [%s] p50 %.4f s "
      "p%d %.4f s (%zu beyond) backlog %llu -> %s\n",
      s.rung.rate_rps, static_cast<unsigned long long>(s.sent),
      static_cast<unsigned long long>(s.ok),
      static_cast<unsigned long long>(s.failed), shed.c_str(),
      median(s.rung.latencies), tail.pct, tail.value, tail.beyond,
      static_cast<unsigned long long>(s.rung.backlog_at_end),
      rung_passes(s.rung, limit_s) ? "meets limit" : "MISSES limit");
}

/// Pool a segment of the nominal stream into the running total.
void merge_into(StreamResult& total, const StreamResult& seg) {
  const auto append = [](std::vector<double>& to, const std::vector<double>& v) {
    to.insert(to.end(), v.begin(), v.end());
  };
  total.rung.rate_rps = seg.rung.rate_rps;
  total.rung.in_service = seg.rung.in_service;
  append(total.rung.latencies, seg.rung.latencies);
  total.rung.backlog_at_end =
      std::max(total.rung.backlog_at_end, seg.rung.backlog_at_end);
  total.window_s += seg.window_s;
  total.sent += seg.sent;
  total.ok += seg.ok;
  total.failed += seg.failed;
  total.within_limit += seg.within_limit;
  for (const auto& [reason, n] : seg.shed) total.shed[reason] += n;
  append(total.late, seg.late);
  append(total.queue_wait, seg.queue_wait);
  append(total.exec, seg.exec);
  total.batches += seg.batches;
  total.coalesced += seg.coalesced;
  total.queue_high_water =
      std::max(total.queue_high_water, seg.queue_high_water);
  for (const auto& sample : seg.samples) {
    const bool coalesced = sample.second.coalesced;
    if (total.samples.size() < 2 ||
        (total.samples.size() < 3 && coalesced)) {
      total.samples.push_back(sample);
    }
  }
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kBaseSeconds;
  int trace = 0;
  std::string trace_out;
};

RunSpec spec_for(const Workload& wl, int nproc) {
  RunSpec spec;
  spec.datapath = DatapathConfig::for_scheme(DecompositionScheme::kTemporal);
  spec.datapath.adder_tree_width = 16;
  spec.policy = wl.int8 ? PrecisionPolicy::int8_except_first_last()
                        : PrecisionPolicy::all_fp16(AccumKind::kFp32);
  spec.threads = nproc;
  return spec;
}

serve::ServerConfig server_config() {
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  return cfg;
}

int run(const Args& a) {
  const Workload* found = nullptr;
  for (const Workload& w : workloads()) {
    if (a.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const Workload& wl = *found;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const double scale = a.seconds / kBaseSeconds;
  const RunSpec spec = spec_for(wl, nproc);
  const serve::ServerConfig cfg = server_config();
  const RunOptions no_ref{.compare_reference = false, .with_estimate = false};
  const RunOptions with_ref{.compare_reference = true, .with_estimate = false};

  std::printf("perfbench %s seed %llu seconds %.1f trace %d: backend %s, "
              "nproc %d, threads %d\n",
              wl.name, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace, simd::backend_name(), nproc, spec.threads);

  GraphModel g = resnet18_graph();
  g.materialize_weights(kWeightSeed);

  // Inputs: one seeded stream per phase, so the count of one phase never
  // shifts another's inputs.
  Rng fwd_rng(mix(a.seed, 1)), ref_rng(mix(a.seed, 2)),
      serve_rng(mix(a.seed, 3));
  const int n_fwd = a.trace ? scaled(5, scale, kDigestInputs)
                            : scaled(wl.forwards, scale, 2 * kDigestInputs);
  const int n_ref = a.trace ? scaled(3, scale, 2) : scaled(wl.refs, scale, 2);
  const int n_est = a.trace ? 2 : scaled(wl.estimates, scale, 2);
  const int n_setup = a.trace ? 1 : scaled(wl.setups, scale, 2);
  // At least 21 requests, so the nominal tail lies above the median.
  const int n_nominal = scaled(wl.nominal_requests, scale, 21);
  std::vector<Tensor> fwd_in, ref_in, catalog;
  for (int i = 0; i < n_fwd; ++i) {
    fwd_in.push_back(
        random_tensor(fwd_rng, 3, wl.hw, wl.hw, ValueDist::kHalfNormal, 1.0));
  }
  for (int i = 0; i < n_ref; ++i) {
    ref_in.push_back(
        random_tensor(ref_rng, 3, wl.hw, wl.hw, ValueDist::kHalfNormal, 1.0));
  }
  for (int i = 0; i < kZipfCatalog; ++i) {
    catalog.push_back(
        random_tensor(serve_rng, 3, wl.hw, wl.hw, ValueDist::kHalfNormal, 1.0));
  }

  Ledger ledger;
  Metrics e2e, layer;
  Tracer tracer;
  Tracer* tr = a.trace ? &tracer : nullptr;

  // The phases run in rounds, each round a slice of every phase, so a slow
  // spell of the host (shared hosts switch between speeds ~1.8x apart every
  // few seconds) lands on a slice of every metric's samples instead of on
  // all samples of one metric.  Setups are spread over the rounds too; each
  // replaces the runtime and its compiled model.  The nominal stream runs
  // in at most kServeSegments of the rounds, so a segment is a stream of
  // several requests, not one or two.
  const int rounds = a.trace ? 1 : scaled(wl.rounds, scale, 2);
  const int serve_every = std::max(1, rounds / kServeSegments);
  const int segments = std::min(kServeSegments, rounds / serve_every);
  // Part r of n items split into `parts`; part 0 starts every phase.
  const auto slice = [](int n, int r, int parts) {
    return std::make_pair((n * r + parts - 1) / parts,
                          (n * (r + 1) + parts - 1) / parts);
  };
  std::unique_ptr<serve::ServingRuntime> rt;
  serve::ModelHandle h = -1;
  std::shared_ptr<const CompiledModel> cm;
  std::vector<double> setup_s, first_s, fwd_s, ref_s, snr, est_s;
  std::vector<RunReport> kept;  // trace mode: what the replay must equal
  uint64_t digest0 = 0, first4 = 0;
  int64_t dp_cycles = 0, first4_cycles = 0;
  double snr_first = 0.0;
  NetworkSimResult est;
  const double nominal_rps = wl.ladder.front();
  StreamResult nominal;
  std::printf("serve (limit %.2f s):\n", wl.limit_s);
  std::map<std::string, double> phase_s;  // wall time per phase
  double mark = now_s();
  const auto lap = [&](const char* phase) {
    const double t = now_s();
    phase_s[phase] += t - mark;
    mark = t;
  };
  for (int r = 0; r < rounds; ++r) {
    // --- setup + first forward ------------------------------------------------
    for (auto [k, k_end] = slice(n_setup, r, rounds); k < k_end; ++k) {
      cm.reset();
      rt.reset();
      rt = std::make_unique<serve::ServingRuntime>(spec, cfg);
      const double t0 = now_s();
      h = rt->load(g, wl.hw, wl.hw);
      setup_s.push_back(now_s() - t0);
      cm = rt->model(h);
      const double t1 = now_s();
      const RunReport rep = cm->run(fwd_in[0], no_ref);
      first_s.push_back(now_s() - t1);
      const uint64_t d = report_digest(rep);
      if (k == 0) digest0 = d;
      ledger.check(d == digest0, "first forward digest repeats across compiles");
    }

    lap("setup");
    // --- forwards -------------------------------------------------------------
    for (auto [i, i_end] = slice(n_fwd, r, rounds); i < i_end; ++i) {
      const double t0 = now_s();
      RunReport rep = cm->run(fwd_in[static_cast<size_t>(i)], no_ref);
      fwd_s.push_back(now_s() - t0);
      dp_cycles += rep.totals.cycles;
      if (i < kDigestInputs) {
        first4 = first4 * 1099511628211ull ^ report_digest(rep);
        first4_cycles += rep.totals.cycles;
      }
      if (i == 0) ledger.check(report_digest(rep) == digest0, "forward digest");
      if (a.trace) kept.push_back(std::move(rep));
    }

    lap("forward");
    // --- forward + FP32 reference (fresh inputs) ------------------------------
    for (auto [i, i_end] = slice(n_ref, r, rounds); i < i_end; ++i) {
      const double t0 = now_s();
      const RunReport rep = cm->run(ref_in[static_cast<size_t>(i)], with_ref);
      ref_s.push_back(now_s() - t0);
      snr.push_back(rep.end_to_end.snr_db);
      if (i == 0) snr_first = rep.end_to_end.snr_db;
    }

    lap("reference");
    // --- estimate ---------------------------------------------------------------
    for (auto [i, i_end] = slice(n_est, r, rounds); i < i_end; ++i) {
      const double t0 = now_s();
      NetworkSimResult e = cm->estimate();
      est_s.push_back(now_s() - t0);
      if (i > 0) {
        ledger.check(e.total_cycles == est.total_cycles,
                     "sim_cycles repeat across calls");
      }
      est = std::move(e);
    }

    lap("estimate");
    // --- serve: one segment of the nominal stream -------------------------------
    if (r % serve_every == 0 && r / serve_every < segments) {
      const auto [q0, q1] = slice(n_nominal, r / serve_every, segments);
      Stream s = make_stream(serve_rng, nominal_rps, q1 - q0, catalog);
      StreamResult seg = run_stream(*rt, h, s, wl.limit_s, tr,
                                    1000 + static_cast<int>(nominal.sent));
      for (uint64_t i = 0; i < seg.sent; ++i) ledger.request(i < seg.ok);
      ledger.check(seg.conserved, "ServerMetrics::conserved() after drain");
      merge_into(nominal, seg);
    }
    lap("serve");
  }
  print_stream(nominal, wl.limit_s);
  // Served reports must equal a direct CompiledModel::run of the input.
  for (const auto& [input, res] : nominal.samples) {
    ledger.check(report_digest(res.report) ==
                     report_digest(cm->run(input, cfg.run_options)),
                 "served output equals a direct CompiledModel::run");
  }
  ledger.check(report_digest(cm->run(fwd_in[0], no_ref)) == digest0,
               "forward output digest and cycles repeat across calls");
  if (spec.threads > 1) {
    ThreadPool one(1);
    ledger.check(report_digest(cm->run(fwd_in[0], no_ref, one)) == digest0,
                 "nproc-thread output equals the 1-thread spot check");
  }

  // --- serve: up the ladder from the nominal rate -------------------------------
  std::vector<StreamResult> rungs;
  if (!a.trace) {
    rungs.push_back(nominal);
    for (size_t i = 1; i < wl.ladder.size() &&
                       rung_passes(rungs.back().rung, wl.limit_s);
         ++i) {
      const int n = std::max(
          kRungRequests,
          static_cast<int>(std::lround(wl.ladder[i] * kRungMinSeconds)));
      Stream s = make_stream(serve_rng, wl.ladder[i], n, catalog);
      rungs.push_back(run_stream(*rt, h, s, wl.limit_s, nullptr, 0));
      print_stream(rungs.back(), wl.limit_s);
      ledger.check(rungs.back().conserved,
                   "ServerMetrics::conserved() after drain");
    }
  }
  lap("ladder");
  std::printf("phase wall time:");
  for (const auto& [phase, t] : phase_s) std::printf(" %s %.1f s", phase.c_str(), t);
  std::printf("\n");
  std::vector<double> late_all = nominal.late;
  for (size_t i = 1; i < rungs.size(); ++i) {
    late_all.insert(late_all.end(), rungs[i].late.begin(), rungs[i].late.end());
  }
  double late_max = 0.0;
  for (double l : late_all) late_max = std::max(late_max, l);
  const bool valid = late_max <= kMaxLateShare * wl.limit_s;

  // --- trace: replay node by node ---------------------------------------------
  if (a.trace) {
    const GraphTopology topo = analyze_graph(g.nodes(), wl.hw, wl.hw);
    std::vector<double> ref_chain_s;
    for (const Tensor& in : ref_in) {
      const double t0 = now_s();
      const int sp = tracer.begin("api.reference", -1, -1);
      (void)graph_reference_outputs(g.nodes(), topo, in);
      tracer.end(sp);
      ref_chain_s.push_back(now_s() - t0);
    }
    const DatapathStats counts = kept.front().totals;

    // Untraced and replayed forwards alternate, so the overheads compare
    // runs made in the same moments of a host whose speed drifts.
    const ReplayModel rm = replay_compile(g, spec, wl.hw, wl.hw, &tracer);
    std::vector<ReplayResult> reps;
    std::vector<double> untraced_s;
    for (int i = 0; i < n_fwd; ++i) {
      const Tensor& in = fwd_in[static_cast<size_t>(i)];
      const double t0 = now_s();
      (void)cm->run(in, no_ref);
      untraced_s.push_back(now_s() - t0);
      reps.push_back(replay_forward(rm, in, spec.threads, &tracer, i));
      ledger.check(replay_matches(reps.back(), kept[static_cast<size_t>(i)]),
                   "replay is byte-identical to CompiledModel::run");
    }
    const double fwd_p50 = median(untraced_s);
    cm.reset();
    rt.reset();
    double pool_speedup = 1.0;
    if (spec.threads > 1) {
      std::vector<double> exec1, execn;
      for (int i = 0; i < n_fwd; ++i) {
        const ReplayResult r1 =
            replay_forward(rm, fwd_in[static_cast<size_t>(i)], 1, nullptr, i);
        ledger.check(replay_matches(r1, kept[static_cast<size_t>(i)]),
                     "1-thread replay equals the nproc-thread run");
        double s1 = 0.0, sn = 0.0;
        for (size_t id = 0; id < rm.nodes.size(); ++id) {
          s1 += r1.timing[id].exec_s;
          sn += reps[static_cast<size_t>(i)].timing[id].exec_s;
        }
        exec1.push_back(s1);
        execn.push_back(sn);
      }
      pool_speedup = median(exec1) / median(execn);
    }

    // Per-forward sums by category, then medians over the forwards.
    struct Sums {
      std::vector<double> prep, exec, c3, c1, stem, small, join_post, waves,
          wall;
    } s;
    double macs3 = 0.0, macs1 = 0.0;
    int stem_id = -1;
    for (int id : rm.topo.order) {
      const GraphNode& nd = rm.nodes[static_cast<size_t>(id)];
      if (nd.op != GraphNode::Op::kConv) continue;
      if (stem_id < 0) stem_id = id;
      const double m = rm.conv[static_cast<size_t>(id)].macs;
      if (id != stem_id && nd.filters.kh == 3) macs3 += m;
      if (id != stem_id && nd.filters.kh == 1) macs1 += m;
    }
    for (const ReplayResult& r : reps) {
      double prep = 0, exec = 0, c3 = 0, c1 = 0, stem = 0, small = 0, jp = 0;
      for (int id : rm.topo.order) {
        const GraphNode& nd = rm.nodes[static_cast<size_t>(id)];
        const NodeTiming& t = r.timing[static_cast<size_t>(id)];
        prep += t.prep_s;
        exec += t.exec_s;
        jp += t.join_s + t.post_s;
        if (nd.op != GraphNode::Op::kConv) continue;
        if (id == stem_id) {
          stem += t.exec_s;
        } else if (nd.filters.kh == 3) {
          c3 += t.exec_s;
        } else if (nd.filters.kh == 1) {
          c1 += t.exec_s;
        }
        if (rm.conv[static_cast<size_t>(id)].out_pixels <= nproc) {
          small += t.exec_s;
        }
      }
      s.prep.push_back(prep);
      s.exec.push_back(exec);
      s.c3.push_back(c3);
      s.c1.push_back(c1);
      s.stem.push_back(stem);
      s.small.push_back(small);
      s.join_post.push_back(jp);
      s.waves.push_back(r.waves_s);
      s.wall.push_back(r.wall_s);
    }

    // Human-readable per-node split of the first replayed forward.
    std::printf("\nper-node split (replay of input 0; ms):\n");
    std::printf("  %-18s %8s %9s %8s %8s %14s %14s\n", "node", "prep", "execute",
                "join+post", "ns/MAC", "datapath cyc", "sim cycles");
    size_t conv_row = 0, layer_row = 0;
    for (int id : rm.topo.order) {
      if (id == rm.topo.input_node) continue;
      const GraphNode& nd = rm.nodes[static_cast<size_t>(id)];
      const NodeTiming& t = reps.front().timing[static_cast<size_t>(id)];
      const DatapathStats& st = reps.front().stats[layer_row++];
      double sim = 0.0, nsmac = 0.0;
      if (nd.op == GraphNode::Op::kConv) {
        if (conv_row < est.layers.size()) sim = est.layers[conv_row].total_cycles;
        ++conv_row;
        nsmac = t.exec_s * 1e9 / rm.conv[static_cast<size_t>(id)].macs;
      }
      std::printf("  %-18s %8.3f %9.3f %8.3f %8.2f %14lld %14.0f\n",
                  nd.name.c_str(), t.prep_s * 1e3, t.exec_s * 1e3,
                  (t.join_s + t.post_s) * 1e3, nsmac,
                  static_cast<long long>(st.cycles), sim);
    }

    int64_t sampled_steps = 0;
    for (const LayerSimResult& l : est.layers) {
      for (const TileSimResult& t : l.tiles) {
        if (t.steps > 0) {
          sampled_steps += std::min<int64_t>(spec.sim.sampled_steps, t.steps);
        }
      }
    }
    const double exec_p50 = median(s.exec);
    const double ops = static_cast<double>(counts.fp_ops + counts.int_ops);
    layer.put("nn.prepare_filters_s", rm.prepare_filters_s, "s");
    layer.put("nn.plan_build_s", rm.plan_build_s, "s");
    layer.put("nn.plan_bytes", static_cast<double>(rm.plan_bytes), "B");
    layer.put("nn.prepare_acts_s", median(s.prep), "s");
    layer.put("nn.execute_s", exec_p50, "s");
    layer.put("nn.execute.conv3x3_s", median(s.c3), "s");
    layer.put("nn.execute.conv1x1_s", median(s.c1), "s");
    layer.put("nn.execute.stem_s", median(s.stem), "s");
    layer.put("nn.execute.small_map_s", median(s.small), "s");
    layer.put("nn.ns_per_mac.conv3x3", median(s.c3) * 1e9 / macs3, "ns");
    layer.put("nn.ns_per_mac.conv1x1", median(s.c1) * 1e9 / macs1, "ns");
    layer.put("nn.join_post_s", median(s.join_post), "s");
    layer.put("common.pool_speedup", pool_speedup, "ratio");
    layer.put("api.reference_s", median(ref_chain_s), "s");
    layer.put("api.run_overhead_s", fwd_p50 - median(s.waves), "s");
    layer.put("trace.overhead_s", median(s.wall) - fwd_p50, "s");
    layer.put("core.fp_ops", static_cast<double>(counts.fp_ops), "count");
    layer.put("core.int_ops", static_cast<double>(counts.int_ops), "count");
    layer.put("core.cycles", static_cast<double>(counts.cycles), "cycles");
    layer.put("core.nibble_iterations",
              static_cast<double>(counts.nibble_iterations), "count");
    layer.put("core.masked_products",
              static_cast<double>(counts.masked_products), "count");
    layer.put("core.multi_cycle_ops",
              static_cast<double>(counts.multi_cycle_ops), "count");
    layer.put("core.ns_per_op", ops > 0 ? exec_p50 * 1e9 / ops : 0.0, "ns");
    layer.put("sim.estimate_s", median(est_s), "s");
    layer.put("sim.ns_per_sampled_step",
              median(est_s) * 1e9 / static_cast<double>(sampled_steps), "ns");
    layer.put("sim.mean_tile_utilization", est.mean_tile_utilization,
              "ratio");
    layer.put("serve.queue_wait_p50_s", median(nominal.queue_wait), "s");
    layer.put("serve.exec_p50_s", median(nominal.exec), "s");
    layer.put("serve.batch_size_mean",
              nominal.batches ? static_cast<double>(nominal.ok) /
                                    static_cast<double>(nominal.batches)
                              : 0.0,
              "count");
    layer.put("serve.coalesced_frac",
              nominal.ok ? static_cast<double>(nominal.coalesced) /
                               static_cast<double>(nominal.ok)
                         : 0.0,
              "ratio");
    layer.put("serve.queue_high_water",
              static_cast<double>(nominal.queue_high_water), "count");
    layer.put("serve.shed_queue_full",
              static_cast<double>(nominal.shed["queue_full"]), "count");
    layer.put("serve.shed_deadline",
              static_cast<double>(nominal.shed["deadline"]), "count");
    layer.put("gen.late_p50_s", median(nominal.late), "s");
    layer.put("gen.late_max_s", late_max, "s");
    if (!a.trace_out.empty() && !tracer.write_chrome_json(a.trace_out)) {
      std::printf("could not write %s\n", a.trace_out.c_str());
    }
  }

  // --- end-to-end metrics -------------------------------------------------------
  const Tail fwd_tail = nearest_rank_tail(fwd_s);
  const Tail serve_tail = nearest_rank_tail(nominal.rung.latencies);
  if (!a.trace) {
    e2e.put("setup_s", median(setup_s), "s");
    e2e.put("first_forward_s", median(first_s), "s");
    e2e.put("forward_p50_s", median(fwd_s), "s");
    e2e.put("forward_tail_s", fwd_tail.value, "s");
    e2e.put("forward_ref_p50_s", median(ref_s), "s");
    e2e.put("estimate_s", median(est_s), "s");
    e2e.put("peak_rss_mb", peak_rss_mb(), "MB");
    e2e.put("datapath_cycles", static_cast<double>(dp_cycles), "cycles");
    e2e.put("sim_cycles", est.total_cycles, "cycles");
    e2e.put("snr_db", median(snr), "dB");
    e2e.put("serve_p50_s", median(nominal.rung.latencies), "s");
    e2e.put("serve_tail_s", serve_tail.value, "s");
    std::vector<Rung> ladder;
    for (const StreamResult& r : rungs) ladder.push_back(r.rung);
    e2e.put("serve_max_rps", ladder_max_rps(ladder, wl.limit_s), "req/s");
    e2e.put("serve_goodput_rps",
            static_cast<double>(nominal.within_limit) / nominal.window_s,
            "req/s");
    e2e.put("ok_frac", 1.0 - failed_frac(ledger.failed, ledger.attempted),
            "ratio");
    std::printf("\nend-to-end (forward tail = p%d of %zu, %zu beyond; serve "
                "tail = p%d of %zu, %zu beyond; %llu operations attempted):\n",
                fwd_tail.pct, fwd_tail.n, fwd_tail.beyond, serve_tail.pct,
                serve_tail.n, serve_tail.beyond,
                static_cast<unsigned long long>(ledger.attempted));
    e2e.print();
  } else {
    std::printf("\nper-layer:\n");
    layer.print();
  }
  std::printf("generator: late p50 %.6f s, max %.6f s (limit share %.2f) -> %s\n",
              median(late_all), late_max, kMaxLateShare,
              valid ? "valid" : "INVALID");

  Json ctx = Json::object();
  ctx.set("workload", wl.name);
  ctx.set("seed", static_cast<int64_t>(a.seed));
  ctx.set("seconds", a.seconds);
  ctx.set("trace", a.trace);
  ctx.set("kernel_backend", simd::backend_name());
  ctx.set("build", PERFBENCH_BUILD_FLAGS);
  ctx.set("nproc", nproc);
  ctx.set("threads", spec.threads);
  ctx.set("latency_limit_s", wl.limit_s);
  Json checks = Json::object();
  checks.set("forward_digest", hex64(first4));
  checks.set("forward_cycles", static_cast<int64_t>(first4_cycles));
  checks.set("sim_cycles", est.total_cycles);
  checks.set("snr_db_first", snr_first);
  Json out = Json::object();
  out.set("context", std::move(ctx));
  out.set("correct", ledger.wrong == 0);
  out.set("valid", valid);
  out.set("attempted", static_cast<int64_t>(ledger.attempted));
  out.set("failed", static_cast<int64_t>(ledger.failed));
  out.set("metrics", a.trace ? layer.to_json() : e2e.to_json());
  out.set("checks", std::move(checks));
  std::printf("%s\n", out.dump(0).c_str());
  if (ledger.wrong != 0) return 1;
  return valid ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 || argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

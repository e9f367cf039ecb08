// Serving throughput: compile-once / run-many vs recompile-every-run.
//
// The paper's deployment scenario is fixed-weight inference behind a
// request stream.  This bench measures what the compile/run split
// (api/compiled_model.h) buys there:
//
//   * recompile-every-run baseline -- what a naive server does per request:
//     a fresh Session::run pays the whole weight pipeline (FP16 rounding /
//     INT quantization, decode, nibble decomposition, per-clip-class stream
//     packing) every single time;
//   * compiled -- one Session::compile at load time, then
//     CompiledModel::run per request: the weight pipeline is amortized to
//     zero and each request pays only activation prep + the datapath;
//   * concurrent serving -- N host threads hammering the one CompiledModel
//     (reentrant: per-call scratch, shared const plans), reporting
//     aggregate requests/sec and per-request latency.
//
// The workload is an FC-style head (1x1 spatial, 1x1 kernels): the serving
// shape where weights dominate -- every filter element is streamed exactly
// once per request, so the weight pipeline is a maximal honest fraction of
// a request.  Outputs are verified bit-identical between the two paths
// before anything is timed.
//
//   ./bench_serving [--smoke] [--graph] [--json [path]]
//
// --smoke shrinks the workload for CI; --json writes BENCH_serving.json
// (or the given path) through the repo's single JSON emitter.  A graph
// section (one ResNet-18 residual block, layer4-shaped channels at reduced
// spatial size, served compile-once/run-many) always runs so the JSON
// tracks graph-path throughput; --graph runs ONLY that section for quick
// iteration on the branchy executor.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/json.h"
#include "api/session.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/simd/simd.h"
#include "workload/graph_builders.h"

namespace mpipu {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using bench::tensors_identical;

/// FC-style serving head: chained 1x1 convs on a 1x1 map (per-request
/// activations are tiny, weights are everything -- the shape a classifier
/// head or recommender tower serves at).
GraphModel serving_head(Rng& rng, int c0, int c1, int c_out) {
  GraphModel::Builder b("serving-head");
  int x = b.input();
  x = b.conv("fc1", random_filters(rng, c1, c0, 1, 1, ValueDist::kNormal, 0.15),
             ConvSpec{}, x, /*relu=*/true);
  x = b.conv("fc2", random_filters(rng, c1, c1, 1, 1, ValueDist::kNormal, 0.1),
             ConvSpec{}, x, /*relu=*/true);
  b.conv("logits",
         random_filters(rng, c_out, c1, 1, 1, ValueDist::kNormal, 0.1),
         ConvSpec{}, x);
  return b.build();
}

struct SectionResult {
  double recompile_s_per_req = 0.0;
  double compiled_s_per_req = 0.0;
  double speedup = 0.0;
  bool bit_identical = true;
};

/// Single-thread requests/sec: the recompile-every-run baseline vs one
/// CompiledModel, over the same request stream.  Shared by the chain
/// sections and the branchy ResNet-block section.
SectionResult run_section(const GraphModel& model, const RunSpec& spec,
                          const std::vector<Tensor>& inputs, int requests) {
  RunOptions opts;
  opts.compare_reference = false;  // serving path: no FP32 shadow chain

  SectionResult r;
  const CompiledModel compiled =
      Session(spec).compile(model, {inputs[0].h, inputs[0].w});

  // Bit-identity gate before timing: one fresh-Session run (the baseline
  // path) must agree with the compiled path on every distinct input.
  for (const Tensor& in : inputs) {
    Session fresh(spec);
    if (!tensors_identical(fresh.run(model, in, opts).output,
                           compiled.run(in, opts).output)) {
      r.bit_identical = false;
      return r;
    }
  }

  double t0 = now_seconds();
  for (int q = 0; q < requests; ++q) {
    Session fresh(spec);  // a naive server: load + prepare weights per request
    const RunReport rep =
        fresh.run(model, inputs[static_cast<size_t>(q) % inputs.size()], opts);
    (void)rep;
  }
  r.recompile_s_per_req = (now_seconds() - t0) / requests;

  t0 = now_seconds();
  for (int q = 0; q < requests; ++q) {
    const RunReport rep =
        compiled.run(inputs[static_cast<size_t>(q) % inputs.size()], opts);
    (void)rep;
  }
  r.compiled_s_per_req = (now_seconds() - t0) / requests;
  r.speedup = r.recompile_s_per_req / r.compiled_s_per_req;
  return r;
}

struct ConcurrentResult {
  int threads = 0;
  int requests = 0;
  double total_seconds = 0.0;
  double requests_per_sec = 0.0;
  bench::LatencySummary latency;
  bool bit_identical = true;
};

/// N host threads against ONE CompiledModel; per-request latencies sampled
/// on every thread, outputs verified against the serial ground truth.
ConcurrentResult run_concurrent(const CompiledModel& compiled,
                                const std::vector<Tensor>& inputs,
                                int threads, int requests_per_thread) {
  RunOptions opts;
  opts.compare_reference = false;

  std::vector<Tensor> expected;
  for (const Tensor& in : inputs) expected.push_back(compiled.run(in, opts).output);

  ConcurrentResult r;
  r.threads = threads;
  r.requests = threads * requests_per_thread;
  std::vector<std::vector<double>> latencies(static_cast<size_t>(threads));
  std::vector<char> ok(static_cast<size_t>(threads), 1);

  const double t0 = now_seconds();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int q = 0; q < requests_per_thread; ++q) {
        const size_t i = static_cast<size_t>(t + q) % inputs.size();
        const double s = now_seconds();
        const RunReport rep = compiled.run(inputs[i], opts);
        latencies[static_cast<size_t>(t)].push_back(now_seconds() - s);
        if (!tensors_identical(rep.output, expected[i])) {
          ok[static_cast<size_t>(t)] = 0;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  r.total_seconds = now_seconds() - t0;
  r.requests_per_sec = r.requests / r.total_seconds;

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  r.latency = bench::summarize_latencies(std::move(all));
  for (char o : ok) r.bit_identical = r.bit_identical && o != 0;
  return r;
}

}  // namespace
}  // namespace mpipu

int main(int argc, char** argv) {
  using namespace mpipu;

  bool smoke = false;
  bool graph_only = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--graph") == 0) {
      graph_only = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i]
                                                          : "BENCH_serving.json";
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--graph] [--json [path]]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::title("Serving: compile-once CompiledModel vs recompile-every-run");

  Rng rng(1234);
  const int c0 = smoke ? 96 : 384;
  const int c1 = smoke ? 96 : 384;
  const int c_out = smoke ? 32 : 128;
  const int requests = smoke ? 4 : 12;
  const GraphModel model = serving_head(rng, c0, c1, c_out);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(random_tensor(rng, c0, 1, 1, ValueDist::kHalfNormal, 1.0));
  }

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::printf("workload: %d -> %d -> %d -> %d FC head (1x1 convs), %d requests "
              "per path; hardware_concurrency = %d%s\n\n",
              c0, c1, c1, c_out, requests, hw, smoke ? "; --smoke" : "");

  RunSpec fp16_spec;
  fp16_spec.datapath = DatapathConfig::for_scheme(DecompositionScheme::kTemporal);
  fp16_spec.datapath.adder_tree_width = 16;
  fp16_spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  fp16_spec.threads = 1;

  RunSpec int8_spec = fp16_spec;
  int8_spec.policy = PrecisionPolicy::all_int(8);

  // Graph section: one ResNet-18 residual block (basic block, identity
  // skip) with layer4-shaped channels at reduced spatial size, served
  // compile-once/run-many through the branchy executor.
  const int gc = smoke ? 16 : 64;
  const int gdim = smoke ? 6 : 8;
  const int grequests = smoke ? 2 : 4;
  GraphModel gblock = resnet_basic_block_graph(gc, gc, 1, "resnet18-stage");
  gblock.materialize_weights(77);
  std::vector<Tensor> ginputs;
  for (int i = 0; i < 3; ++i) {
    ginputs.push_back(
        random_tensor(rng, gc, gdim, gdim, ValueDist::kHalfNormal, 1.0));
  }
  const SectionResult graph =
      run_section(gblock, fp16_spec, ginputs, grequests);

  SectionResult fp16, int8;
  ConcurrentResult conc;
  if (!graph_only) {
    fp16 = run_section(model, fp16_spec, inputs, requests);
    int8 = run_section(model, int8_spec, inputs, requests);
    // Concurrent serving against the FP16 plan.
    const CompiledModel compiled = Session(fp16_spec).compile(model, {1, 1});
    const int conc_threads = std::max(4, hw);
    conc = run_concurrent(compiled, inputs, conc_threads,
                          std::max(2, requests / 2));
  }

  bench::Table table({"mode", "recompile s/req", "compiled s/req",
                      "speedup", "bit-identical"});
  const auto add = [&table](const char* mode, const SectionResult& s) {
    table.add_row({mode, bench::fmt(s.recompile_s_per_req, 4),
                   bench::fmt(s.compiled_s_per_req, 4),
                   bench::fmt(s.speedup, 2) + "x", s.bit_identical ? "yes" : "NO"});
  };
  if (!graph_only) {
    add("fp16+fp32acc", fp16);
    add("int8x8", int8);
  }
  add("graph fp16 (resnet18 stage)", graph);
  table.print();

  if (!graph_only) {
    std::printf("\nconcurrent serving (one CompiledModel, %d host threads, %d "
                "requests): %.1f req/s, latency mean %.4f s, p50 %.4f s, "
                "p95 %.4f s, p99 %.4f s, bit-identical vs serial: %s\n",
                conc.threads, conc.requests, conc.requests_per_sec,
                conc.latency.mean_s, conc.latency.p50_s, conc.latency.p95_s,
                conc.latency.p99_s, conc.bit_identical ? "yes" : "NO");
  }

  const bool all_identical = graph.bit_identical &&
                             (graph_only || (fp16.bit_identical &&
                                             int8.bit_identical &&
                                             conc.bit_identical));
  const double headline =
      graph_only ? graph.speedup : std::max(fp16.speedup, int8.speedup);
  std::printf("headline: %.2fx single-thread requests/sec, weight pipeline "
              "amortized to zero\n",
              headline);

  Json root = Json::object();
  root.set("bench", "serving");
  root.set("smoke", smoke);
  root.set("graph_only", graph_only);
  Json workload = Json::object();
  workload.set("model", std::to_string(c0) + "->" + std::to_string(c1) + "->" +
                            std::to_string(c1) + "->" + std::to_string(c_out) +
                            " fc head (1x1 convs)");
  workload.set("requests_per_path", requests);
  root.set("workload", std::move(workload));
  root.set("hardware_concurrency", hw);
  root.set("kernel_backend", simd::backend_name());
  const auto emit = [](const char* mode, const SectionResult& s) {
    Json j = Json::object();
    j.set("mode", mode);
    j.set("recompile_s_per_req", s.recompile_s_per_req);
    j.set("compiled_s_per_req", s.compiled_s_per_req);
    j.set("speedup_compiled_vs_recompile_1t", s.speedup);
    j.set("bit_identical", s.bit_identical);
    return j;
  };
  if (!graph_only) {
    Json sections = Json::array();
    sections.push(emit("fp16+fp32acc", fp16));
    sections.push(emit("int8x8", int8));
    root.set("sections", std::move(sections));
    Json cj = Json::object();
    cj.set("threads", conc.threads);
    cj.set("requests", conc.requests);
    cj.set("requests_per_sec", conc.requests_per_sec);
    cj.set("latency_mean_s", conc.latency.mean_s);
    cj.set("latency_p50_s", conc.latency.p50_s);
    cj.set("latency_p95_s", conc.latency.p95_s);
    cj.set("latency_p99_s", conc.latency.p99_s);
    cj.set("bit_identical", conc.bit_identical);
    root.set("concurrent", std::move(cj));
  }
  Json gj = emit("graph-fp16", graph);
  gj.set("workload", "resnet18 residual block " + std::to_string(gc) + "ch @ " +
                         std::to_string(gdim) + "x" + std::to_string(gdim) +
                         ", identity skip, " + std::to_string(grequests) +
                         " requests");
  root.set("graph", std::move(gj));
  root.set("speedup_compiled_vs_recompile_1t", headline);
  root.set("bit_identical", all_identical);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << root.dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
}

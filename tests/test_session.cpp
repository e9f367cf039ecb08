// Tests for the high-level Session/RunSpec API (src/api):
//
//  * Session::run is bit-exact (outputs and DatapathStats) vs the
//    equivalent layer chain hand-wired on the independent per-op oracle
//    (tests/conv_oracle.h);
//  * thread-count determinism: over a batch of inputs, 1 thread and N
//    threads produce identical output tensors and identical stats;
//  * PrecisionPolicy dispatch: INT layers on the FP-only spatial datapath
//    are rejected with a clear error before anything executes;
//  * Session::estimate reproduces simulate_network for the same config
//    (one RunSpec drives both paths);
//  * RunReport JSON emission;
//  * Session::reference (on the session's pool) rejects an input/model
//    channel mismatch, like run;
//  * the one plan cache (api/plan_cache.h) behind Session::run and
//    ServingRuntime::load: concurrent runs, a compile that throws at
//    capacity evicts nothing, and an evicted plan keeps running for the
//    caller holding it.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "conv_oracle.h"
#include "serve/serving_runtime.h"
#include "workload/graph_builders.h"

namespace mpipu {
namespace {

DatapathConfig small_datapath(DecompositionScheme scheme = DecompositionScheme::kTemporal) {
  DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  return cfg;
}

/// Tiny 3-conv chain with real weights: fp16 -> int8 -> fp16 under the
/// mixed policy used below.
GraphModel tiny_model(Rng& rng) {
  const ConvSpec pad1{.stride = 1, .pad = 1};
  GraphModel::Builder b("tiny3");
  int x = b.input();
  x = b.conv("conv1", random_filters(rng, 6, 3, 3, 3, ValueDist::kNormal, 0.3),
             pad1, x, /*relu=*/true);
  x = b.conv("conv2", random_filters(rng, 8, 6, 3, 3, ValueDist::kNormal, 0.15),
             pad1, x, /*relu=*/true, PoolOp::kMax2);
  b.conv("head", random_filters(rng, 4, 8, 1, 1, ValueDist::kNormal, 0.2),
         ConvSpec{}, x);
  return b.build();
}

/// One 3x3 conv with stride 0: every compile of it throws.
GraphModel stride0_model(Rng& rng) {
  GraphModel::Builder b("stride0");
  b.conv("conv", random_filters(rng, 4, 3, 3, 3, ValueDist::kNormal, 0.3),
         ConvSpec{.stride = 0, .pad = 1}, b.input());
  return b.build();
}

PrecisionPolicy mixed_policy() {
  PrecisionPolicy policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  policy.set_layer("conv2", LayerPrecision::int_bits(8, 8));
  return policy;
}

TEST(SessionRun, BitExactVsPerOpOracleChain) {
  Rng rng(21);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);

  RunSpec spec;
  spec.datapath = small_datapath();
  spec.policy = mixed_policy();
  spec.threads = 1;
  Session session(spec);
  const RunReport report = session.run(model, input);

  // The equivalent chain hand-wired on the per-op oracle (node 0 is the
  // input).
  const std::vector<GraphNode>& nodes = model.nodes();
  const oracle::ConvResult c1 = oracle::conv_fp16(
      input, nodes[1].filters, nodes[1].spec, spec.datapath, AccumKind::kFp32);
  const oracle::ConvResult c2 =
      oracle::conv_int(relu(c1.output), nodes[2].filters, nodes[2].spec,
                       spec.datapath, 8, 8);
  const oracle::ConvResult c3 =
      oracle::conv_fp16(maxpool2(relu(c2.output)), nodes[3].filters,
                        nodes[3].spec, spec.datapath, AccumKind::kFp32);
  const Tensor& x = c3.output;
  DatapathStats oracle_stats = c1.stats;
  oracle_stats += c2.stats;
  oracle_stats += c3.stats;

  ASSERT_EQ(report.output.data.size(), x.data.size());
  for (size_t i = 0; i < x.data.size(); ++i) {
    EXPECT_EQ(report.output.data[i], x.data[i]) << "elt " << i;
  }
  EXPECT_EQ(report.totals, oracle_stats);
  ASSERT_EQ(report.layers.size(), 3u);
  EXPECT_EQ(report.layers[1].stats, c2.stats);
  EXPECT_EQ(report.layers[0].precision, "fp16+fp32acc");
  EXPECT_EQ(report.layers[1].precision, "int8x8");
  EXPECT_GT(report.layers[1].stats.int_ops, 0);
  EXPECT_EQ(report.layers[1].stats.fp_ops, 0);
  EXPECT_GT(report.end_to_end.snr_db, 20.0);
}

TEST(SessionRun, ThreadCountInvariantTensorsAndStats) {
  Rng rng(22);
  const GraphModel model = tiny_model(rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0));
  }

  RunSpec spec;
  spec.datapath = small_datapath();
  spec.policy = mixed_policy();
  spec.threads = 1;
  Session s1(spec);
  spec.threads = 3;
  Session s3(spec);

  for (size_t r = 0; r < inputs.size(); ++r) {
    const RunReport r1 = s1.run(model, inputs[r]);
    const RunReport r3 = s3.run(model, inputs[r]);
    EXPECT_EQ(r1.totals, r3.totals) << "run " << r;
    ASSERT_EQ(r1.output.data.size(), r3.output.data.size());
    for (size_t i = 0; i < r1.output.data.size(); ++i) {
      EXPECT_EQ(r1.output.data[i], r3.output.data[i]) << "run " << r << " elt " << i;
    }
    ASSERT_EQ(r1.layers.size(), r3.layers.size());
    for (size_t l = 0; l < r1.layers.size(); ++l) {
      EXPECT_EQ(r1.layers[l].stats, r3.layers[l].stats) << "run " << r << " layer " << l;
    }
  }
}

TEST(SessionRun, RejectsIntLayerOnSpatialScheme) {
  Rng rng(23);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kSpatial);
  spec.policy = mixed_policy();  // conv2 wants INT8x8
  Session session(spec);
  try {
    session.run(model, input);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("conv2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("int8x8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("spatial"), std::string::npos) << msg;
  }

  // The same model runs fine on spatial with an all-FP16 policy.
  spec.policy = PrecisionPolicy::all_fp16();
  Session fp_session(spec);
  EXPECT_GT(fp_session.run(model, input).totals.fp_ops, 0);
}

TEST(SessionEstimate, ReproducesSimulateNetworkForSameConfig) {
  Network net;
  net.name = "tiny";
  net.tensor_stats = forward_stats();
  ConvLayer l;
  l.name = "L";
  l.cin = 64;
  l.cout = 64;
  l.kh = l.kw = 3;
  l.hout = l.wout = 14;
  net.layers = {l};

  const TileConfig tile = big_tile(16, 28, 16);
  SimOptions opts;
  opts.sampled_steps = 300;

  RunSpec spec;
  spec.datapath = tile.datapath;
  spec.tile = tile;
  spec.sim = opts;
  Session session(spec);

  const NetworkSimResult direct = simulate_network(net, tile, opts);
  const NetworkSimResult api = session.estimate(net);
  EXPECT_EQ(api.total_cycles, direct.total_cycles);
  ASSERT_EQ(api.layers.size(), direct.layers.size());
  EXPECT_EQ(api.layers[0].cycles_per_step, direct.layers[0].cycles_per_step);
}

TEST(SessionEstimate, AdHocModelDerivesShapeTable) {
  Rng rng(24);
  const GraphModel model = tiny_model(rng);
  const Network table = model.shape_table(12, 12);
  ASSERT_EQ(table.layers.size(), 3u);
  EXPECT_EQ(table.layers[0].hout, 12);  // pad-1 3x3 keeps dims
  EXPECT_EQ(table.layers[1].hout, 12);
  EXPECT_EQ(table.layers[2].hout, 6);   // conv2's maxpool halves dims
  EXPECT_EQ(table.layers[2].cin, 8);

  RunSpec spec;
  spec.datapath = small_datapath();
  spec.tile = big_tile(16, 28);
  spec.sim.sampled_steps = 100;
  Session session(spec);
  const NetworkSimResult r = session.estimate(model, 12, 12);
  EXPECT_GT(r.total_cycles, 0.0);
  EXPECT_EQ(r.layers.size(), 3u);

  // Deriving the table needs positive input dims.
  EXPECT_THROW(session.estimate(model, 0, 0), std::invalid_argument);
  // Mismatched tile/datapath widths are rejected: one RunSpec, one n.
  RunSpec bad = spec;
  bad.tile = small_tile(16, 28);  // c_unroll = 8 != n_inputs = 16
  EXPECT_THROW(Session(bad).estimate(model, 12, 12), std::invalid_argument);
}

TEST(SessionRun, WithEstimateAttachesSimResult) {
  Rng rng(25);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);
  RunSpec spec;
  spec.datapath = small_datapath();
  spec.tile = big_tile(16, 28);
  spec.sim.sampled_steps = 100;
  Session session(spec);
  RunOptions opts;
  opts.with_estimate = true;
  const RunReport report = session.run(model, input, opts);
  ASSERT_TRUE(report.estimate.has_value());
  EXPECT_GT(report.estimate->total_cycles, 0.0);
  EXPECT_EQ(report.estimate->layers.size(), 3u);
}

TEST(PrecisionPolicyTest, PresetsAndOverridePriority) {
  const PrecisionPolicy p = PrecisionPolicy::int8_except_first_last();
  EXPECT_EQ(p.resolve(0, 4, "a"), LayerPrecision::fp16(AccumKind::kFp32));
  EXPECT_EQ(p.resolve(3, 4, "d"), LayerPrecision::fp16(AccumKind::kFp32));
  EXPECT_EQ(p.resolve(1, 4, "b"), LayerPrecision::int_bits(8, 8));

  PrecisionPolicy q = PrecisionPolicy::int8_except_first_last();
  q.set_layer("b", LayerPrecision::int_bits(4, 4));
  q.set_layer(size_t{0}, LayerPrecision::fp16(AccumKind::kFp16));
  EXPECT_EQ(q.resolve(1, 4, "b"), LayerPrecision::int_bits(4, 4));
  EXPECT_EQ(q.resolve(0, 4, "a"), LayerPrecision::fp16(AccumKind::kFp16));

  EXPECT_EQ(LayerPrecision::fp16(AccumKind::kFp16).to_string(), "fp16+fp16acc");
  EXPECT_EQ(LayerPrecision::int_bits(4, 8).to_string(), "int4x8");
}

TEST(RunReportJson, EmitsStructuredDocument) {
  Rng rng(27);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);
  RunSpec spec;
  spec.datapath = small_datapath();
  spec.policy = mixed_policy();
  Session session(spec);
  const RunReport report = session.run(model, input);

  const std::string json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key : {"\"model\"", "\"scheme\"", "\"totals\"", "\"cycles\"",
                          "\"end_to_end\"", "\"snr_db\"", "\"layers\"",
                          "\"precision\"", "\"int8x8\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Compact mode emits no newlines.
  EXPECT_EQ(report.to_json(0).find('\n'), std::string::npos);
}

// Regression: Session::reference skipped run()'s channel check, so a
// narrower input silently returned a "reference" and a wider one read past
// the filter bank inside conv_reference.  A chain and a residual block,
// both directions.
TEST(SessionReference, RejectsChannelMismatchLikeRun) {
  Rng rng(27);
  const GraphModel model = tiny_model(rng);  // reads 3 channels
  GraphModel graph = resnet_basic_block_graph(4, 6, 2);  // reads 4
  graph.materialize_weights(28);
  RunSpec spec;
  spec.threads = 2;
  Session session(spec);

  for (const int c : {2, 8}) {
    const Tensor input = random_tensor(rng, c, 6, 6, ValueDist::kHalfNormal, 1.0);
    try {
      (void)session.reference(model, input);
      ADD_FAILURE() << "model: expected std::invalid_argument for " << c;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "Session::reference: input has " + std::to_string(c) +
                    " channels but graph 'tiny3' expects 3");
    }
    try {
      (void)session.reference(graph, input);
      ADD_FAILURE() << "graph: expected std::invalid_argument for " << c;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "Session::reference: input has " + std::to_string(c) +
                    " channels but graph '" + graph.name() + "' expects 4");
    }
  }

  // Matching inputs are unaffected.
  EXPECT_EQ(session.reference(model, random_tensor(rng, 3, 6, 6,
                                                   ValueDist::kHalfNormal, 1.0))
                .c,
            4);
  EXPECT_EQ(session.reference(graph, random_tensor(rng, 4, 6, 6,
                                                   ValueDist::kHalfNormal, 1.0))
                .c,
            6);
}

// Regression: the compile-on-first-use cache used to be unsynchronized, so
// two threads hitting one Session raced the lookup/rotate/evict sequence
// (and worse, an eviction could destroy a CompiledModel another thread was
// mid-run on).  Hammer one Session from 8 threads with more distinct models
// than the cache holds, so compiles, hits, LRU rotations and evictions all
// interleave; every thread checks its outputs against a serial baseline.
TEST(SessionThreadSafety, ConcurrentRunsShareOneSession) {
  constexpr int kThreads = 8;
  constexpr int kModels = 10;  // > the 8 cached plans: forces eviction
  constexpr int kRounds = 6;

  RunSpec spec;
  spec.datapath = small_datapath();
  spec.policy = mixed_policy();
  spec.threads = 1;

  std::vector<GraphModel> models;
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  {
    Rng rng(404);
    Session serial(spec);
    for (int m = 0; m < kModels; ++m) {
      models.push_back(tiny_model(rng));
      inputs.push_back(
          random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0));
      expected.push_back(serial.run(models.back(), inputs.back()).output);
    }
  }

  Session shared(spec);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        // Each thread walks the model list from its own offset so lookups,
        // misses and evictions collide from the first round.
        const int m = (t + r * 3) % kModels;
        const RunReport rep =
            shared.run(models[static_cast<size_t>(m)],
                       inputs[static_cast<size_t>(m)]);
        if (rep.output.data != expected[static_cast<size_t>(m)].data) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

// A compile that throws while the cache is full must evict nothing: the
// cache compiles before it evicts.  Through both owners of the one cache.
TEST(PlanCacheTest, FailedCompileAtCapacityEvictsNothing) {
  Rng rng(406);
  RunSpec spec;
  spec.datapath = small_datapath();
  spec.threads = 1;

  Session session(spec);
  std::vector<GraphModel> models;
  for (int m = 0; m < 8; ++m) {
    models.push_back(tiny_model(rng));
    (void)session.run(models.back(), Tensor(3, 8, 8));
  }
  ASSERT_EQ(session.cached_plans(), 8u);
  EXPECT_THROW(session.run(stride0_model(rng), Tensor(3, 8, 8)),
               std::invalid_argument);
  EXPECT_EQ(session.cached_plans(), 8u);

  serve::ServerConfig cfg;
  cfg.max_models = 2;
  serve::ServingRuntime rt(spec, cfg);
  const serve::ModelHandle h0 = rt.load(models[0], 8, 8);
  const serve::ModelHandle h1 = rt.load(models[1], 8, 8);
  EXPECT_THROW(rt.load(stride0_model(rng), 8, 8), std::invalid_argument);
  EXPECT_EQ(rt.loaded_count(), 2u);
  EXPECT_NO_THROW((void)rt.model(h0));
  EXPECT_NO_THROW((void)rt.model(h1));
  // The failed load took no handle slot either: both still dedup.
  EXPECT_EQ(rt.load(models[0], 8, 8), h0);
  EXPECT_EQ(rt.load(models[1], 8, 8), h1);
}

// An evicted plan stays alive for whoever holds its shared_ptr, and runs
// byte-identically to before the eviction; its handle is never reissued.
TEST(PlanCacheTest, EvictedPlanKeepsRunningForItsHolder) {
  Rng rng(407);
  RunSpec spec;
  spec.datapath = small_datapath();
  spec.policy = mixed_policy();
  spec.threads = 1;
  const GraphModel a = tiny_model(rng);
  const GraphModel b = tiny_model(rng);
  const GraphModel c = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);
  const RunReport expected = Session(spec).run(a, input);

  serve::ServerConfig cfg;
  cfg.max_models = 2;
  serve::ServingRuntime rt(spec, cfg);
  const serve::ModelHandle ha = rt.load(a, 8, 8);
  const std::shared_ptr<const CompiledModel> held = rt.model(ha);
  (void)rt.load(b, 8, 8);
  (void)rt.load(c, 8, 8);
  EXPECT_THROW((void)rt.model(ha), std::out_of_range);
  const RunReport after = held->run(input);
  EXPECT_EQ(after.output.data, expected.output.data);
  EXPECT_EQ(after.to_json(), expected.to_json());

  PlanCache cache(spec, 1);
  const PlanCache::Entry first = cache.get(a, 8, 8);
  (void)cache.get(b, 8, 8);
  EXPECT_EQ(cache.find(first.handle), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(first.plan->run(input).to_json(), expected.to_json());
  // Reloading the evicted model compiles a new plan under a new handle.
  EXPECT_NE(cache.get(a, 8, 8).handle, first.handle);
}

}  // namespace
}  // namespace mpipu

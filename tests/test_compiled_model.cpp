// Tests for the compile-once / run-many API (api/compiled_model.h):
//
//  * CompiledModel::run is byte-identical to Session::run -- outputs,
//    per-layer stats, totals, errors, cycles, and the serialized report --
//    for all three decomposition schemes and FP16/INT precision modes;
//  * concurrent execution determinism: M requests on K host threads against
//    ONE CompiledModel are byte-identical to the same requests run
//    serially;
//  * the policy is resolved at compile time and never re-resolved: mutating
//    the policy after compile changes nothing, recompiling does;
//  * compile-time validation: weightless models, INT on the FP-only spatial
//    scheme, missing input dims, collapsing geometry, and run-time shape
//    mismatches are all rejected with std::invalid_argument.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/rng.h"

namespace mpipu {
namespace {

DatapathConfig small_datapath(DecompositionScheme scheme) {
  DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  return cfg;
}

/// Tiny 3-conv chain with real weights (mirrors test_session's fixture).
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

void expect_tensors_identical(const Tensor& a, const Tensor& b,
                              const char* what) {
  ASSERT_EQ(a.data.size(), b.data.size()) << what;
  for (size_t i = 0; i < a.data.size(); ++i) {
    ASSERT_EQ(a.data[i], b.data[i]) << what << " elt " << i;
  }
}

void expect_reports_identical(const RunReport& a, const RunReport& b) {
  expect_tensors_identical(a.output, b.output, "output");
  expect_tensors_identical(a.reference_output, b.reference_output, "reference");
  EXPECT_EQ(a.totals, b.totals);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(a.layers[l].layer, b.layers[l].layer);
    EXPECT_EQ(a.layers[l].precision, b.layers[l].precision);
    EXPECT_EQ(a.layers[l].stats, b.layers[l].stats) << "layer " << l;
  }
  // The serialized documents must agree byte for byte (covers error
  // metrics, estimate payloads, field ordering -- everything).
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(CompiledModelTest, ByteIdenticalToSessionRunAllSchemesAndModes) {
  Rng rng(31);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);

  struct Case {
    DecompositionScheme scheme;
    bool with_int;
    AccumKind accum;
  };
  const Case cases[] = {
      {DecompositionScheme::kTemporal, true, AccumKind::kFp32},
      {DecompositionScheme::kTemporal, false, AccumKind::kFp16},
      {DecompositionScheme::kSerial, true, AccumKind::kFp32},
      {DecompositionScheme::kSpatial, false, AccumKind::kFp32},  // FP-only
  };
  for (const Case& c : cases) {
    RunSpec spec;
    spec.datapath = small_datapath(c.scheme);
    spec.policy = PrecisionPolicy::all_fp16(c.accum);
    if (c.with_int) {
      spec.policy.set_layer("conv2", LayerPrecision::int_bits(8, 8));
    }
    spec.threads = 1;
    Session session(spec);
    const RunReport via_session = session.run(model, input);

    const CompiledModel compiled = session.compile(model, {12, 12});
    const RunReport via_compiled = compiled.run(input);

    EXPECT_EQ(via_compiled.scheme, scheme_name(c.scheme));
    expect_reports_identical(via_compiled, via_session);
    EXPECT_GT(via_compiled.totals.cycles, 0);
  }
}

TEST(CompiledModelTest, WithEstimateMatchesSession) {
  Rng rng(32);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);
  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.tile = big_tile(16, 28);
  spec.sim.sampled_steps = 100;
  Session session(spec);
  RunOptions opts;
  opts.with_estimate = true;

  const RunReport rs = session.run(model, input, opts);
  const CompiledModel compiled = session.compile(model, {12, 12});
  const RunReport rc = compiled.run(input, opts);
  ASSERT_TRUE(rc.estimate.has_value());
  EXPECT_EQ(rc.estimate->total_cycles, rs.estimate->total_cycles);
  EXPECT_EQ(rc.to_json(), rs.to_json());
}

TEST(CompiledModelTest, ConcurrentCallersAreByteIdenticalToSerial) {
  Rng rng(33);
  const GraphModel model = tiny_model(rng);
  constexpr int kRequests = 6;
  constexpr int kThreads = 4;
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0));
  }

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  spec.policy.set_layer("conv2", LayerPrecision::int_bits(8, 8));
  spec.threads = 1;  // serving mode: parallelism across requests
  const CompiledModel compiled =
      Session(spec).compile(model, {10, 10});

  // Serial ground truth.
  std::vector<RunReport> serial;
  for (const Tensor& in : inputs) serial.push_back(compiled.run(in));

  // K host threads hammer the one CompiledModel; every request is issued by
  // several threads at once (maximum contention on the shared plan).
  std::vector<std::vector<RunReport>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const Tensor& in : inputs) {
        per_thread[static_cast<size_t>(t)].push_back(compiled.run(in));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[static_cast<size_t>(t)].size(), serial.size());
    for (size_t r = 0; r < serial.size(); ++r) {
      expect_reports_identical(per_thread[static_cast<size_t>(t)][r],
                               serial[r]);
    }
  }
}

TEST(CompiledModelTest, PolicyIsFrozenAtCompileTime) {
  Rng rng(34);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  const CompiledModel compiled =
      CompiledModel::compile(model, spec, {8, 8});
  ASSERT_EQ(compiled.layer_precisions().size(), 3u);
  EXPECT_EQ(compiled.layer_precisions()[1],
            LayerPrecision::fp16(AccumKind::kFp32));
  const RunReport before = compiled.run(input);

  // Mutating the policy object the model was compiled from must not leak
  // into the existing plan: there is no re-resolution after compile.
  spec.policy.set_layer("conv2", LayerPrecision::int_bits(8, 8));
  const RunReport after = compiled.run(input);
  EXPECT_EQ(after.layers[1].precision, "fp16+fp32acc");
  expect_reports_identical(after, before);

  // Recompiling against the mutated spec is how precision changes land.
  const CompiledModel recompiled = CompiledModel::compile(model, spec, {8, 8});
  EXPECT_EQ(recompiled.layer_precisions()[1], LayerPrecision::int_bits(8, 8));
  const RunReport recompiled_run = recompiled.run(input);
  EXPECT_EQ(recompiled_run.layers[1].precision, "int8x8");
  EXPECT_GT(recompiled_run.layers[1].stats.int_ops, 0);
}

TEST(CompiledModelTest, CompileTimeValidationErrors) {
  Rng rng(35);
  const GraphModel model = tiny_model(rng);

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  Session session(spec);

  // Missing input dims.
  EXPECT_THROW(session.compile(model, {}), std::invalid_argument);
  EXPECT_THROW(session.compile(model, {0, 12}), std::invalid_argument);

  // Weightless (shape-only) model.
  {
    GraphModel::Builder b("shapes");
    b.conv_shape("c1", 4, 4, 3, 3, ConvSpec{.stride = 1, .pad = 1}, b.input());
    EXPECT_THROW(session.compile(b.build(), {8, 8}), std::invalid_argument);
  }

  // INT policy on the FP-only spatial scheme, rejected at compile with a
  // diagnostic naming the layer, the precision, and the scheme.
  RunSpec spatial = spec;
  spatial.datapath = small_datapath(DecompositionScheme::kSpatial);
  spatial.policy.set_layer("conv2", LayerPrecision::int_bits(8, 8));
  try {
    (void)Session(spatial).compile(model, {12, 12});  // must throw, not return
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("conv2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("int8x8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("spatial"), std::string::npos) << msg;
  }

  // Geometry that collapses mid-chain (conv2's maxpool on a 2x2 map gives
  // 1x1; the 3x3 pad-1 conv still works there, but a 4x4 pad-0 kernel
  // cannot fit): build a model whose second layer underflows.
  GraphModel::Builder bad("collapses");
  const int a = bad.conv(
      "a", random_filters(rng, 4, 3, 3, 3, ValueDist::kNormal, 0.2), ConvSpec{},
      bad.input());
  bad.conv("b", random_filters(rng, 4, 4, 4, 4, ValueDist::kNormal, 0.2),
           ConvSpec{}, a);
  EXPECT_THROW(session.compile(bad.build(), {4, 4}), std::invalid_argument);

  // A datapath with fewer than one input lane: compile builds its probe
  // unit for every policy, so both compile and Session::run reject it
  // before anything is baked (it used to crash the first forward).
  for (int n : {0, -1}) {
    RunSpec no_lanes = spec;
    no_lanes.datapath.n_inputs = n;
    EXPECT_THROW((void)Session(no_lanes).compile(model, {12, 12}),
                 std::invalid_argument)
        << n;
    Session no_lanes_session(no_lanes);
    EXPECT_THROW(no_lanes_session.run(model, Tensor(3, 12, 12)),
                 std::invalid_argument)
        << n;
    EXPECT_EQ(no_lanes_session.cached_plans(), 0u) << n;
  }

  // Run-time shape mismatch against the compiled geometry.
  const CompiledModel compiled = session.compile(model, {12, 12});
  EXPECT_THROW(compiled.run(Tensor(3, 10, 10)), std::invalid_argument);
  EXPECT_THROW(compiled.run(Tensor(4, 12, 12)), std::invalid_argument);
  EXPECT_NO_THROW(compiled.run(Tensor(3, 12, 12)));
}

TEST(CompiledModelTest, FingerprintAndMatchesTrackModelContent) {
  Rng rng(36);
  const GraphModel model = tiny_model(rng);
  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  const CompiledModel compiled = CompiledModel::compile(model, spec, {8, 8});

  EXPECT_EQ(compiled.fingerprint(), graph_fingerprint(model));
  EXPECT_TRUE(compiled.matches(model));

  // A one-ulp weight change flips both the fingerprint and the exact match.
  std::vector<GraphNode> nodes = model.nodes();
  nodes[2].filters.data[0] += 1e-6;
  const GraphModel tweaked = GraphModel::from_nodes("tiny3", std::move(nodes));
  EXPECT_NE(graph_fingerprint(tweaked), compiled.fingerprint());
  EXPECT_FALSE(compiled.matches(tweaked));
}

TEST(CompiledModelTest, CacheDistinguishesModelsByShapeTableStats) {
  // Two graphs with identical nodes and weights but different tensor
  // statistics build different shape tables -- exactly what estimate()
  // consumes.  The plan cache must not serve one graph's estimate for the
  // other.
  Rng rng(38);
  const FilterBank weights =
      random_filters(rng, 4, 4, 3, 3, ValueDist::kNormal, 0.2);
  const auto twin = [&](const LayerTensorStats& stats) {
    GraphModel::Builder b("twin");
    b.conv("c1", weights, ConvSpec{.stride = 1, .pad = 1}, b.input());
    b.tensor_stats(stats);
    return b.build();
  };
  const GraphModel model_a = twin(forward_stats());
  const GraphModel model_b = twin(backward_stats());  // wider exponents
  ASSERT_EQ(model_a.nodes(), model_b.nodes());
  EXPECT_EQ(graph_fingerprint(model_a), graph_fingerprint(model_b));

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.tile = big_tile(16, 28);
  spec.sim.sampled_steps = 100;
  Session session(spec);
  RunOptions opts;
  opts.with_estimate = true;
  const Tensor input(4, 8, 8);
  const RunReport ra = session.run(model_a, input, opts);
  const RunReport rb = session.run(model_b, input, opts);
  // matches() (the exact second stage) must have rejected the cache hit:
  // backward stats spread alignments far wider, so the estimates differ.
  EXPECT_NE(ra.estimate->total_cycles, rb.estimate->total_cycles);
  EXPECT_EQ(session.cached_plans(), 2u);
  EXPECT_FALSE(session.compile(model_a, {8, 8}).matches(model_b));
}

TEST(CompiledModelTest, SessionCompileCacheReusesAndRecompiles) {
  Rng rng(37);
  const GraphModel model = tiny_model(rng);
  const Tensor a = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);
  const Tensor b = random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  Session session(spec);
  // Same model at two input geometries, interleaved: both plans stay
  // cached, outputs stay deterministic across repeats.
  const RunReport a1 = session.run(model, a);
  const RunReport b1 = session.run(model, b);
  const RunReport a2 = session.run(model, a);
  const RunReport b2 = session.run(model, b);
  expect_reports_identical(a2, a1);
  expect_reports_identical(b2, b1);
}

}  // namespace
}  // namespace mpipu

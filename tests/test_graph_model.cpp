// Tests for DAG-structured models (api/graph_model.h + the graph execution
// core in api/compiled_model.cpp):
//
//  * residual (add) and branch/concat blocks execute end-to-end and are
//    bit-exact (outputs and DatapathStats) against a hand-wired evaluation
//    of the same topology on the independent per-op oracle
//    (tests/conv_oracle.h), for all three decomposition schemes and
//    FP16/INT modes;
//  * graph execution is deterministic: 1 and N pool threads
//    produce identical outputs, per-node stats and serialized reports;
//  * estimate(graph) reproduces simulate_network on the equivalent shape
//    table, and resnet18_graph()'s table at 224x224 carries exactly the
//    MACs of the hand-built resnet18_forward() table;
//  * compile-time topology validation: cycles, multiple inputs/outputs,
//    join shape mismatches, channel breaks, stride < 1 or pad < 0,
//    collapsing geometry and weightless graphs are all rejected with
//    std::invalid_argument;
//  * PrecisionPolicy resolves over conv nodes only (joins carry no
//    precision), with first/last meaning first/last conv in execution
//    order.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "api/session.h"
#include "common/rng.h"
#include "conv_oracle.h"
#include "nn/elementwise.h"
#include "workload/graph_builders.h"

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

const FilterBank& filters_of(const GraphModel& g, const std::string& name) {
  for (const GraphNode& nd : g.nodes()) {
    if (nd.name == name) return nd.filters;
  }
  throw std::runtime_error("no node named " + name);
}

/// Per-op oracle convs of one hand-wired evaluation, summing their datapath
/// counters.
struct OracleChain {
  DatapathConfig cfg;
  DatapathStats stats;

  Tensor fp16(const Tensor& x, const FilterBank& f, const ConvSpec& s) {
    return take(oracle::conv_fp16(x, f, s, cfg, AccumKind::kFp32));
  }
  Tensor int8(const Tensor& x, const FilterBank& f, const ConvSpec& s) {
    return take(oracle::conv_int(x, f, s, cfg, 8, 8));
  }
  Tensor take(oracle::ConvResult r) {
    stats += r.stats;
    return std::move(r.output);
  }
};

void expect_tensors_identical(const Tensor& a, const Tensor& b,
                              const char* what) {
  ASSERT_EQ(a.c, b.c) << what;
  ASSERT_EQ(a.h, b.h) << what;
  ASSERT_EQ(a.w, b.w) << what;
  for (size_t i = 0; i < a.data.size(); ++i) {
    ASSERT_EQ(a.data[i], b.data[i]) << what << " elt " << i;
  }
}

TEST(GraphModelTest, ResidualBlockBitExactVsHandWiredAllSchemes) {
  GraphModel block = resnet_basic_block_graph(4, 6, 2);
  block.materialize_weights(101);
  Rng rng(102);
  const Tensor input = random_tensor(rng, 4, 9, 9, ValueDist::kHalfNormal, 1.0);

  for (DecompositionScheme scheme :
       {DecompositionScheme::kTemporal, DecompositionScheme::kSerial,
        DecompositionScheme::kSpatial}) {
    RunSpec spec;
    spec.datapath = small_datapath(scheme);
    spec.threads = 1;
    Session session(spec);
    const RunReport report = session.run(block, input);

    // Hand-wired: the same topology evaluated call by call on the per-op
    // oracle (stride-2 projection block: conv1+relu, conv2, 1x1 down, add,
    // relu).
    OracleChain chain{spec.datapath, {}};
    ConvSpec s31;
    s31.stride = 2;
    s31.pad = 1;
    ConvSpec s11;
    s11.pad = 1;
    ConvSpec sd;
    sd.stride = 2;
    const Tensor c1 =
        relu(chain.fp16(input, filters_of(block, "block.conv1"), s31));
    const Tensor c2 = chain.fp16(c1, filters_of(block, "block.conv2"), s11);
    const Tensor skip =
        chain.fp16(input, filters_of(block, "block.down"), sd);
    const Tensor expected = relu(tensor_add(c2, skip));

    expect_tensors_identical(report.output, expected, scheme_name(scheme));
    EXPECT_EQ(report.totals, chain.stats) << scheme_name(scheme);

    // CompiledModel path agrees byte for byte with the Session path.
    const CompiledModel compiled = session.compile(block, {9, 9});
    const RunReport direct = compiled.run(input);
    EXPECT_EQ(direct.to_json(), report.to_json()) << scheme_name(scheme);

    // Per-node reports: 3 convs + 1 add, joins carry zero datapath work.
    ASSERT_EQ(report.layers.size(), 4u);
    EXPECT_EQ(report.layers.back().layer, "block.add");
    EXPECT_EQ(report.layers.back().precision, "add");
    EXPECT_EQ(report.layers.back().stats, DatapathStats{});
    EXPECT_GT(report.end_to_end.snr_db, 20.0);
  }
}

TEST(GraphModelTest, IdentitySkipAndIntPolicyBitExactVsHandWired) {
  // Identity-skip block (cin == cout, stride 1) under an INT8 policy on
  // the trunk convs: the skip adds the *unquantized* input back in, and
  // the hand-wired chain must reproduce the mixed path bit for bit.
  GraphModel block = resnet_basic_block_graph(5, 5, 1);
  block.materialize_weights(103);
  Rng rng(104);
  const Tensor input = random_tensor(rng, 5, 8, 8, ValueDist::kHalfNormal, 1.0);

  for (DecompositionScheme scheme :
       {DecompositionScheme::kTemporal, DecompositionScheme::kSerial}) {
    RunSpec spec;
    spec.datapath = small_datapath(scheme);
    spec.policy = PrecisionPolicy::all_int(8);
    spec.threads = 1;
    Session session(spec);
    const RunReport report = session.run(block, input);

    OracleChain chain{spec.datapath, {}};
    ConvSpec s11;
    s11.pad = 1;
    const Tensor c1 =
        relu(chain.int8(input, filters_of(block, "block.conv1"), s11));
    const Tensor c2 = chain.int8(c1, filters_of(block, "block.conv2"), s11);
    const Tensor expected = relu(tensor_add(c2, input));

    expect_tensors_identical(report.output, expected, scheme_name(scheme));
    EXPECT_EQ(report.totals, chain.stats) << scheme_name(scheme);
    ASSERT_EQ(report.layers.size(), 3u);  // conv1, conv2, add
    EXPECT_EQ(report.layers[0].precision, "int8x8");
    EXPECT_GT(report.totals.int_ops, 0);
    EXPECT_EQ(report.totals.fp_ops, 0);
  }
}

TEST(GraphModelTest, InceptionBlockConcatBitExactVsHandWired) {
  GraphModel block = inception_a_block_graph(6, "incA");
  block.materialize_weights(105);
  Rng rng(106);
  const Tensor input = random_tensor(rng, 6, 7, 7, ValueDist::kHalfNormal, 1.0);

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.threads = 1;
  Session session(spec);
  const RunReport report = session.run(block, input);

  OracleChain chain{spec.datapath, {}};
  ConvSpec s1;
  ConvSpec s5;
  s5.pad = 2;
  ConvSpec s3;
  s3.pad = 1;
  const Tensor b1 =
      relu(chain.fp16(input, filters_of(block, "mixed5.b1x1"), s1));
  const Tensor b5r =
      relu(chain.fp16(input, filters_of(block, "mixed5.b5x5r"), s1));
  const Tensor b5 = relu(chain.fp16(b5r, filters_of(block, "mixed5.b5x5"), s5));
  const Tensor b3r =
      relu(chain.fp16(input, filters_of(block, "mixed5.b3x3r"), s1));
  const Tensor b3a =
      relu(chain.fp16(b3r, filters_of(block, "mixed5.b3x3a"), s3));
  const Tensor b3b =
      relu(chain.fp16(b3a, filters_of(block, "mixed5.b3x3b"), s3));
  const Tensor bp =
      relu(chain.fp16(input, filters_of(block, "mixed5.pool1x1"), s1));
  const Tensor expected = channel_concat({&b1, &b5, &b3b, &bp});

  ASSERT_EQ(report.output.c, 64 + 64 + 96 + 32);
  expect_tensors_identical(report.output, expected, "inception-a");
  EXPECT_EQ(report.totals, chain.stats);
  EXPECT_EQ(report.layers.back().precision, "concat");
}

TEST(GraphModelTest, ParallelBranchDispatchIsThreadCountInvariant) {
  GraphModel block = inception_a_block_graph(5, "incA");
  block.materialize_weights(107);
  Rng rng(108);
  const Tensor input = random_tensor(rng, 5, 6, 6, ValueDist::kHalfNormal, 1.0);

  for (DecompositionScheme scheme :
       {DecompositionScheme::kTemporal, DecompositionScheme::kSerial,
        DecompositionScheme::kSpatial}) {
    RunSpec spec;
    spec.datapath = small_datapath(scheme);
    spec.threads = 1;
    Session s1(spec);
    spec.threads = 4;
    Session s4(spec);

    const RunReport r1 = s1.run(block, input);
    const RunReport r4 = s4.run(block, input);
    expect_tensors_identical(r1.output, r4.output, scheme_name(scheme));
    EXPECT_EQ(r1.totals, r4.totals) << scheme_name(scheme);
    ASSERT_EQ(r1.layers.size(), r4.layers.size());
    for (size_t l = 0; l < r1.layers.size(); ++l) {
      EXPECT_EQ(r1.layers[l].stats, r4.layers[l].stats)
          << scheme_name(scheme) << " node " << r1.layers[l].layer;
    }
  }
}

TEST(GraphModelTest, EstimateAgreesWithSimulateNetworkOnEquivalentTable) {
  GraphModel block = resnet_basic_block_graph(8, 8, 2);  // projection skip

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.tile = big_tile(16, 28);
  spec.sim.sampled_steps = 64;
  Session session(spec);

  const NetworkSimResult via_graph = session.estimate(block, 14, 14);
  const NetworkSimResult via_table = session.estimate(block.shape_table(14, 14));
  EXPECT_EQ(via_graph.total_cycles, via_table.total_cycles);
  ASSERT_EQ(via_graph.layers.size(), 3u);  // conv rows only, no join rows
  EXPECT_EQ(to_json_value(via_graph).dump(), to_json_value(via_table).dump());

  // A compiled graph attaches the same estimate to its reports.
  GraphModel weighted = block;
  weighted.materialize_weights(109);
  const CompiledModel compiled = session.compile(weighted, {14, 14});
  EXPECT_EQ(compiled.estimate().total_cycles, via_table.total_cycles);
}

TEST(GraphModelTest, Resnet18GraphMatchesHandBuiltTableMacs) {
  const Network graph_table = resnet18_graph().shape_table(224, 224);
  const Network hand_built = resnet18_forward();
  // The hand-built table collapses repeats; the graph unrolls every block.
  // Work must agree exactly.
  EXPECT_EQ(graph_table.total_macs(), hand_built.total_macs());
  EXPECT_EQ(graph_table.layers.size(), 20u);
  // Spot-check geometry: conv1 at 112x112, stage outputs at 56/28/14/7.
  EXPECT_EQ(graph_table.layers[0].hout, 112);
  EXPECT_EQ(graph_table.layers.back().hout, 7);
}

TEST(GraphModelTest, TopologyValidationErrors) {
  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  Session session(spec);
  Rng rng(110);
  const FilterBank f433 = random_filters(rng, 4, 4, 3, 3, ValueDist::kNormal, 0.2);
  ConvSpec pad1;
  pad1.pad = 1;

  const auto expect_invalid = [&](std::vector<GraphNode> nodes,
                                  const char* what) {
    GraphModel g = GraphModel::from_nodes("bad", std::move(nodes));
    EXPECT_THROW(session.compile(g, {8, 8}), std::invalid_argument) << what;
  };

  GraphNode in;
  in.op = GraphNode::Op::kInput;
  in.name = "input";
  GraphNode conv;
  conv.op = GraphNode::Op::kConv;
  conv.name = "c1";
  conv.inputs = {0};
  conv.filters = f433;
  conv.spec = pad1;

  // Empty node list.
  expect_invalid({}, "empty");
  // No input node.
  expect_invalid({conv}, "no input");
  // Two input nodes.
  {
    GraphNode in2 = in;
    in2.name = "input2";
    expect_invalid({in, in2, conv}, "two inputs");
  }
  // Cycle: two convs feeding each other.
  {
    GraphNode a = conv, b = conv;
    a.name = "a";
    a.inputs = {2};
    b.name = "b";
    b.inputs = {1};
    expect_invalid({in, a, b}, "cycle");
  }
  // Two outputs (both convs are sinks).
  {
    GraphNode a = conv, b = conv;
    b.name = "c2";
    expect_invalid({in, a, b}, "two outputs");
  }
  // Add with mismatched channels: 4-ch conv + 6-ch conv.
  {
    GraphNode a = conv;
    GraphNode b = conv;
    b.name = "c2";
    b.filters = random_filters(rng, 6, 4, 3, 3, ValueDist::kNormal, 0.2);
    GraphNode j;
    j.op = GraphNode::Op::kAdd;
    j.name = "join";
    j.inputs = {1, 2};
    expect_invalid({in, a, b, j}, "add shape mismatch");
  }
  // Concat with mismatched spatial dims (stride-2 vs stride-1 branches).
  {
    GraphNode a = conv;
    GraphNode b = conv;
    b.name = "c2";
    b.spec.stride = 2;
    GraphNode j;
    j.op = GraphNode::Op::kConcat;
    j.name = "join";
    j.inputs = {1, 2};
    expect_invalid({in, a, b, j}, "concat spatial mismatch");
  }
  // Channel break into a conv.
  {
    GraphNode a = conv;
    GraphNode b = conv;
    b.name = "c2";
    b.inputs = {1};
    b.filters = random_filters(rng, 4, 7, 3, 3, ValueDist::kNormal, 0.2);
    expect_invalid({in, a, b}, "channel break");
  }
  // Invalid conv specs: a 3x3 stride-0 conv on the 8x8 input used to end
  // the process with SIGFPE inside analyze_graph.
  for (const ConvSpec bad : {ConvSpec{0, 1}, ConvSpec{-1, 1}, ConvSpec{1, -1}}) {
    GraphNode a = conv;
    a.spec = bad;
    expect_invalid({in, a}, "invalid conv spec");
    EXPECT_THROW((void)analyze_graph({in, a}, 8, 8), std::invalid_argument);
    GraphModel g = GraphModel::from_nodes("bad", {in, a});
    EXPECT_THROW((void)CompiledModel::compile(g, spec, {8, 8}),
                 std::invalid_argument);
  }
  // Input channels not inferable: input feeds only a join.
  {
    GraphNode j;
    j.op = GraphNode::Op::kAdd;
    j.name = "join";
    j.inputs = {0, 0};
    expect_invalid({in, j}, "uninferable input channels");
  }
  // Builder rejects forward references outright.
  {
    GraphModel::Builder b("fwd");
    const int i0 = b.input();
    EXPECT_THROW(b.add("j", i0, 5), std::invalid_argument);
  }
  // Weightless (shape-only) graphs are estimate-only until materialized.
  {
    GraphModel g = resnet_basic_block_graph(4, 4, 1);
    EXPECT_FALSE(g.has_weights());
    EXPECT_THROW(session.compile(g, {8, 8}), std::invalid_argument);
    EXPECT_THROW(session.run(g, Tensor(4, 8, 8)), std::invalid_argument);
    EXPECT_NO_THROW(session.estimate(g, 8, 8));  // estimate-only is fine
    g.materialize_weights(1);
    EXPECT_TRUE(g.has_weights());
    EXPECT_NO_THROW(session.run(g, Tensor(4, 8, 8)));
  }
  // Collapsing geometry: 3x3 no-pad conv on a 2x2 input.
  {
    GraphModel g = resnet_basic_block_graph(4, 4, 1);
    g.materialize_weights(2);
    EXPECT_NO_THROW(session.compile(g, {4, 4}));
    GraphModel::Builder b("collapse");
    const int i0 = b.input();
    b.conv_shape("c1", 4, 4, 3, 3, ConvSpec{}, i0);
    GraphModel small = b.build();
    small.materialize_weights(3);
    EXPECT_THROW(session.compile(small, {2, 2}), std::invalid_argument);
  }
}

TEST(GraphModelTest, PolicyResolvesOverConvNodesInExecutionOrder) {
  // Diamond: conv1 -> {left, right} -> concat -> head.  Execution order of
  // convs is conv1, left, right, head; first/last must hit conv1 and head,
  // and a name override must land on exactly that branch conv.
  GraphModel::Builder b("diamond");
  const int in = b.input();
  const int c1 = b.conv_shape("conv1", 4, 3, 3, 3, ConvSpec{.stride = 1, .pad = 1}, in);
  const int left = b.conv_shape("left", 4, 4, 3, 3, ConvSpec{.stride = 1, .pad = 1}, c1);
  const int right = b.conv_shape("right", 4, 4, 1, 1, ConvSpec{}, c1);
  const int cat = b.concat("cat", {left, right});
  b.conv_shape("head", 2, 8, 1, 1, ConvSpec{}, cat);
  GraphModel g = b.build();
  g.materialize_weights(7);

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.policy = PrecisionPolicy::int8_except_first_last();
  spec.policy.set_layer("right", LayerPrecision::fp16(AccumKind::kFp16));
  Session session(spec);
  const CompiledModel compiled = session.compile(g, {8, 8});

  const std::vector<LayerPrecision>& p = compiled.layer_precisions();
  ASSERT_EQ(p.size(), 4u);  // conv nodes only
  EXPECT_EQ(p[0], LayerPrecision::fp16(AccumKind::kFp32));  // first conv
  EXPECT_EQ(p[1], LayerPrecision::int_bits(8, 8));          // interior
  EXPECT_EQ(p[2], LayerPrecision::fp16(AccumKind::kFp16));  // name override
  EXPECT_EQ(p[3], LayerPrecision::fp16(AccumKind::kFp32));  // last conv

  Rng rng(8);
  const Tensor input = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);
  const RunReport report = compiled.run(input);
  ASSERT_EQ(report.layers.size(), 5u);  // 4 convs + the concat join
  EXPECT_EQ(report.layers[0].layer, "conv1");
  EXPECT_EQ(report.layers[1].layer, "left");
  EXPECT_EQ(report.layers[2].layer, "right");
  EXPECT_EQ(report.layers[3].layer, "cat");
  EXPECT_EQ(report.layers[3].precision, "concat");
  EXPECT_EQ(report.layers[4].layer, "head");
}

TEST(GraphModelTest, SessionCacheKeepsGraphAndChainEntriesApart) {
  // A one-conv chain with trained weights and a materialized shape-only
  // graph of the same topology, deliberately sharing a name: the cache must
  // never serve one for the other, and repeat runs must be byte-identical
  // cache hits.
  Rng rng(111);
  GraphModel::Builder cb("twin");
  cb.conv("c1", random_filters(rng, 4, 3, 3, 3, ValueDist::kNormal, 0.2),
          ConvSpec{.stride = 1, .pad = 1}, cb.input());
  const GraphModel chain = cb.build();

  GraphModel::Builder b("twin");
  const int in = b.input();
  b.conv_shape("c1", 4, 3, 3, 3, ConvSpec{.stride = 1, .pad = 1}, in);
  GraphModel graph = b.build();
  graph.materialize_weights(112);

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  Session session(spec);
  const Tensor input = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);

  const RunReport g1 = session.run(graph, input);
  const RunReport c1 = session.run(chain, input);
  const RunReport g2 = session.run(graph, input);
  const RunReport c2 = session.run(chain, input);
  EXPECT_EQ(g1.to_json(), g2.to_json());
  EXPECT_EQ(c1.to_json(), c2.to_json());
  // Different weights -> different outputs proves no cross-serving.
  EXPECT_NE(g1.output.data, c1.output.data);

  const CompiledModel cg = session.compile(graph, {8, 8});
  EXPECT_TRUE(cg.matches(graph));
  EXPECT_FALSE(cg.matches(chain));
  EXPECT_EQ(cg.fingerprint(), graph_fingerprint(graph));

  // Content tracking: a one-ulp weight change breaks the match.
  GraphModel tweaked = graph;
  EXPECT_TRUE(tweaked == graph);
  std::vector<GraphNode> nodes = tweaked.nodes();
  nodes[1].filters.data[0] += 1e-6;
  GraphModel changed = GraphModel::from_nodes("twin", std::move(nodes));
  EXPECT_FALSE(cg.matches(changed));
  EXPECT_NE(graph_fingerprint(changed), cg.fingerprint());
}

TEST(GraphModelTest, MaterializePreservesRealWeightsOnMixedBuilders) {
  // A builder mixing trained conv() weights with conv_shape() placeholders:
  // materialize_weights must fill ONLY the placeholders.
  Rng rng(115);
  const FilterBank trained =
      random_filters(rng, 4, 3, 3, 3, ValueDist::kNormal, 0.2);
  ConvSpec pad1;
  pad1.pad = 1;
  GraphModel::Builder b("mixed");
  const int in = b.input();
  const int c1 = b.conv("trained", trained, pad1, in, /*relu=*/true);
  b.conv_shape("random", 4, 4, 3, 3, pad1, c1);
  GraphModel g = b.build();
  EXPECT_FALSE(g.has_weights());
  g.materialize_weights(116);
  EXPECT_TRUE(g.has_weights());
  EXPECT_EQ(filters_of(g, "trained").data, trained.data);
  // The placeholder got real (nonzero) weights.
  double sum = 0.0;
  for (double v : filters_of(g, "random").data) sum += v * v;
  EXPECT_GT(sum, 0.0);
  // Re-materializing with another seed re-rolls only the placeholder too.
  GraphModel g2 = g;
  g2.materialize_weights(117);
  EXPECT_EQ(filters_of(g2, "trained").data, trained.data);
  EXPECT_NE(filters_of(g2, "random").data, filters_of(g, "random").data);

  // A graph without placeholders has nothing to fill: an all-conv()
  // builder and a from_nodes graph both refuse, weights untouched.
  GraphModel::Builder tb("all-trained");
  const int t1 = tb.conv("trained", trained, pad1, tb.input(), /*relu=*/true);
  tb.conv("head", filters_of(g, "random"), pad1, t1);
  GraphModel all_trained = tb.build();
  EXPECT_THROW(all_trained.materialize_weights(118), std::invalid_argument);
  EXPECT_EQ(filters_of(all_trained, "trained").data, trained.data);
  EXPECT_EQ(filters_of(all_trained, "head").data,
            filters_of(g, "random").data);
  GraphModel listed = GraphModel::from_nodes("listed", g.nodes());
  EXPECT_THROW(listed.materialize_weights(119), std::invalid_argument);
  EXPECT_EQ(listed.nodes(), g.nodes());
}

TEST(GraphModelTest, ReferenceAndEstimatePaths) {
  GraphModel block = resnet_basic_block_graph(3, 5, 1, "refblock");
  block.materialize_weights(113);
  Rng rng(114);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 2; ++i) {
    inputs.push_back(random_tensor(rng, 3, 6, 6, ValueDist::kHalfNormal, 1.0));
  }

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.tile = big_tile(16, 28);
  spec.sim.sampled_steps = 32;
  Session session(spec);

  // Session::reference mirrors the graph exactly: it must equal the
  // reference_output the run report carries.
  const RunReport report = session.run(block, inputs[0]);
  const Tensor ref = session.reference(block, inputs[0]);
  expect_tensors_identical(report.reference_output, ref, "reference");

  // The estimate depends only on the model and the input dims: two runs on
  // different inputs attach the same one.
  RunOptions opts;
  opts.with_estimate = true;
  const RunReport r0 = session.run(block, inputs[0], opts);
  const RunReport r1 = session.run(block, inputs[1], opts);
  ASSERT_TRUE(r0.estimate.has_value());
  ASSERT_TRUE(r1.estimate.has_value());
  EXPECT_EQ(r0.estimate->total_cycles, r1.estimate->total_cycles);
  EXPECT_EQ(r0.estimate->total_cycles,
            session.estimate(block, 6, 6).total_cycles);
}

}  // namespace
}  // namespace mpipu

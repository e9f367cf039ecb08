// Concurrency stress for the graph execution paths: N host threads
// hammering ONE graph CompiledModel (branchy topology: residual add +
// concat fan-in, mixed FP16/INT policy) must be byte-identical to the same
// requests run serially, across repeat runs, for every scheme -- pinning
// the reentrancy contract (shared const plans, per-call scratch) on a
// graph with several independent branches, which is exactly where a
// shared-scratch bug would first appear.  Also pins 1-vs-N *pool* threads
// (intra-call parallelism: every node on the whole pool, split over
// (pixel, output channel)) against the same serial ground truth, including
// maps smaller than the pool.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
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

/// Residual stage into an Inception-style 3-way concat, at test-size
/// channel counts (the paper-size builders are exercised in
/// test_graph_model / test_golden_graph; stress wants many runs, so the
/// per-run cost must stay tiny): both join types, a projection skip, and
/// two multi-node waves in one model.
GraphModel stress_graph() {
  GraphModel::Builder b("stress-graph");
  ConvSpec pad1;
  pad1.pad = 1;
  const int in = b.input();
  const int blk = append_resnet_basic_block(b, "res", in, 3, 6, 1);
  const int b1 = b.conv_shape("cat.a", 4, 6, 1, 1, ConvSpec{}, blk, true);
  const int b2a = b.conv_shape("cat.b1", 5, 6, 3, 3, pad1, blk, true);
  const int b2 = b.conv_shape("cat.b2", 4, 5, 3, 3, pad1, b2a);
  const int b3 = b.conv_shape("cat.c", 3, 6, 1, 1, ConvSpec{}, blk, true);
  const int cat = b.concat("cat.join", {b1, b2, b3}, true);
  b.conv_shape("head", 4, 11, 1, 1, ConvSpec{}, cat);
  GraphModel g = b.build();
  g.materialize_weights(0x57E55);
  return g;
}

void expect_reports_identical(const RunReport& a, const RunReport& b,
                              const char* what) {
  ASSERT_EQ(a.output.data.size(), b.output.data.size()) << what;
  for (size_t i = 0; i < a.output.data.size(); ++i) {
    ASSERT_EQ(a.output.data[i], b.output.data[i]) << what << " elt " << i;
  }
  ASSERT_EQ(a.layers.size(), b.layers.size()) << what;
  for (size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(a.layers[l].stats, b.layers[l].stats)
        << what << " node " << a.layers[l].layer;
  }
  EXPECT_EQ(a.totals, b.totals) << what;
  // Full serialized agreement: errors, estimates, ordering, everything.
  EXPECT_EQ(a.to_json(), b.to_json()) << what;
}

void expect_errors_identical(const AgreementStats& a, const AgreementStats& b,
                             const std::string& node) {
  EXPECT_EQ(a.max_abs_err, b.max_abs_err) << "node " << node;
  EXPECT_EQ(a.mean_abs_err, b.mean_abs_err) << "node " << node;
  EXPECT_EQ(a.max_rel_err, b.max_rel_err) << "node " << node;
  EXPECT_EQ(a.snr_db, b.snr_db) << "node " << node;
  EXPECT_EQ(a.mismatched_fp16, b.mismatched_fp16) << "node " << node;
  EXPECT_EQ(a.total, b.total) << "node " << node;
}

TEST(GraphStress, HostThreadsHammeringOneCompiledModelMatchSerial) {
  const GraphModel graph = stress_graph();
  Rng rng(0x57E56);
  constexpr int kRequests = 4;
  constexpr int kHostThreads = 8;
  constexpr int kRepeats = 3;  // each thread re-runs the stream: repeat-run
                               // determinism under maximum plan contention
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(random_tensor(rng, 3, 7, 7, ValueDist::kHalfNormal, 1.0));
  }

  for (DecompositionScheme scheme :
       {DecompositionScheme::kTemporal, DecompositionScheme::kSerial,
        DecompositionScheme::kSpatial}) {
    RunSpec spec;
    spec.datapath = small_datapath(scheme);
    spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
    if (scheme != DecompositionScheme::kSpatial) {
      // Mixed precision: quantize the residual trunk, keep branches FP16.
      spec.policy.set_layer("res.conv2", LayerPrecision::int_bits(8, 8));
      spec.policy.set_layer("cat.b1", LayerPrecision::int_bits(8, 8));
    }
    spec.threads = 1;  // serving mode: parallelism across requests
    const CompiledModel compiled = Session(spec).compile(graph, {7, 7});

    std::vector<RunReport> serial;
    for (const Tensor& in : inputs) serial.push_back(compiled.run(in));

    std::vector<std::vector<RunReport>> per_thread(kHostThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kHostThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int r = 0; r < kRepeats; ++r) {
          for (const Tensor& in : inputs) {
            per_thread[static_cast<size_t>(t)].push_back(compiled.run(in));
          }
        }
      });
    }
    for (auto& th : threads) th.join();

    for (int t = 0; t < kHostThreads; ++t) {
      const auto& mine = per_thread[static_cast<size_t>(t)];
      ASSERT_EQ(mine.size(), static_cast<size_t>(kRepeats * kRequests));
      for (size_t r = 0; r < mine.size(); ++r) {
        expect_reports_identical(mine[r], serial[r % inputs.size()],
                                 scheme_name(scheme));
      }
    }
  }
}

TEST(GraphStress, PoolThreadCountNeverChangesResults) {
  // Intra-call parallelism: the same graph compiled at 1, 2 and 5 pool
  // threads -- every node, branches included, runs on the whole pool split
  // over (pixel, output channel), and so does its FP32 reference conv;
  // tensors, per-node stats, the reference output and every node's error
  // must be identical.  The 2x2 and 1x1 inputs make every map (4 or 1 pixels)
  // smaller than 5 slots, so pixels are split across channels in every
  // node; at 1x1 a slot's range can lie inside one pixel.
  const GraphModel graph = stress_graph();
  Rng rng(0x57E57);
  for (const int hw : {8, 2, 1}) {
    const Tensor input =
        random_tensor(rng, 3, hw, hw, ValueDist::kHalfNormal, 1.0);
    for (DecompositionScheme scheme :
         {DecompositionScheme::kTemporal, DecompositionScheme::kSerial,
          DecompositionScheme::kSpatial}) {
      RunSpec spec;
      spec.datapath = small_datapath(scheme);
      spec.threads = 1;
      const RunReport r1 = Session(spec).compile(graph, {hw, hw}).run(input);
      ASSERT_FALSE(r1.reference_output.data.empty());
      for (int threads : {2, 5}) {
        spec.threads = threads;
        const RunReport rn =
            Session(spec).compile(graph, {hw, hw}).run(input);
        SCOPED_TRACE(std::string(scheme_name(scheme)) + " " +
                     std::to_string(hw) + "x" + std::to_string(hw) + " " +
                     std::to_string(threads) + " threads");
        ASSERT_EQ(rn.output.data, r1.output.data);
        // The FP32 reference chain runs on the same pool, split over
        // (pixel, channel block).
        ASSERT_EQ(rn.reference_output.data, r1.reference_output.data);
        EXPECT_EQ(rn.totals, r1.totals);
        ASSERT_EQ(rn.layers.size(), r1.layers.size());
        for (size_t l = 0; l < r1.layers.size(); ++l) {
          EXPECT_EQ(rn.layers[l].stats, r1.layers[l].stats)
              << "node " << r1.layers[l].layer;
          expect_errors_identical(rn.layers[l].error, r1.layers[l].error,
                                  r1.layers[l].layer);
        }
      }
    }
  }
}

TEST(GraphStress, ConcurrentCallersOnSharedSessionCompiledGraphViaRun) {
  // The Session facade path under load: a batch of runs on a
  // multi-threaded pool shared by every node, repeated -- results must be
  // stable across repeats (the compile cache serves one immutable plan
  // throughout).
  const GraphModel graph = stress_graph();
  Rng rng(0x57E58);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(random_tensor(rng, 3, 6, 6, ValueDist::kHalfNormal, 1.0));
  }
  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.threads = 3;
  Session session(spec);
  for (const Tensor& input : inputs) {
    const RunReport first = session.run(graph, input);
    const RunReport second = session.run(graph, input);
    EXPECT_EQ(first.to_json(), second.to_json());
  }
}

}  // namespace
}  // namespace mpipu

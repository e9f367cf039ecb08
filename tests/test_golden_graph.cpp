// Golden-vector regression for graph execution: fixed-seed residual and
// concat blocks are run per scheme and their outputs digested (FNV-1a over
// the raw output doubles, plus stats counters and sampled values) into a
// JSON document emitted through the repo's single Json emitter.  The
// serialized document must match tests/golden/graph_golden.json byte for
// byte -- ANY drift in the datapath, the graph executor, the policy
// resolution, the stats accounting or the JSON emitter itself fails here.
//
// Intentional changes: regenerate with
//
//   MPIPU_UPDATE_GOLDEN=1 ./test_golden_graph
//
// and commit the diff (review it -- every changed byte is a behaviour
// change shipped to every downstream consumer).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "api/session.h"
#include "common/fnv1a.h"
#include "common/rng.h"
#include "workload/graph_builders.h"

namespace mpipu {
namespace {

const char* kGoldenRelPath = "/tests/golden/graph_golden.json";

/// Byte-wise FNV-1a over the raw doubles (the digest format the golden
/// file was recorded in).
uint64_t fnv1a_doubles(const std::vector<double>& v) {
  Fnv1a h;
  h.bytes(v.data(), v.size() * sizeof(double));
  return h.value();
}

std::string hex64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One golden case: run `graph` under `spec` on the fixed-seed input and
/// digest everything a regression should pin.
Json run_case(const char* label, const GraphModel& graph, int input_c,
              int input_h, int input_w, const RunSpec& spec) {
  Rng rng(0x601D);  // one fixed input per geometry; weights are per-graph
  const Tensor input = random_tensor(rng, input_c, input_h, input_w,
                                     ValueDist::kHalfNormal, 1.0);
  Session session(spec);
  const CompiledModel compiled =
      session.compile(graph, {input_h, input_w});
  const RunReport report = compiled.run(input);

  Json j = Json::object();
  j.set("case", label);
  j.set("scheme", report.scheme);
  j.set("input_digest", hex64(fnv1a_doubles(input.data)));
  j.set("output_shape", std::to_string(report.output.c) + "x" +
                            std::to_string(report.output.h) + "x" +
                            std::to_string(report.output.w));
  j.set("output_digest", hex64(fnv1a_doubles(report.output.data)));
  j.set("reference_digest", hex64(fnv1a_doubles(report.reference_output.data)));
  j.set("fp_ops", report.totals.fp_ops);
  j.set("int_ops", report.totals.int_ops);
  j.set("cycles", report.totals.cycles);
  j.set("nibble_iterations", report.totals.nibble_iterations);
  Json samples = Json::array();
  for (size_t i = 0; i < report.output.data.size() && i < 4; ++i) {
    samples.push(report.output.data[i]);
  }
  j.set("output_samples", std::move(samples));
  Json nodes = Json::array();
  for (const LayerRunReport& l : report.layers) {
    Json n = Json::object();
    n.set("node", l.layer);
    n.set("precision", l.precision);
    n.set("cycles", l.stats.cycles);
    nodes.push(std::move(n));
  }
  j.set("nodes", std::move(nodes));
  return j;
}

std::string build_golden_document() {
  // One residual block and one concat block per scheme, INT8 extras on the
  // schemes that support INT.  Weights/inputs are fixed-seed; graphs are
  // the workload builders so the goldens also pin builder topology.
  GraphModel residual = resnet_basic_block_graph(4, 6, 2, "golden-residual");
  residual.materialize_weights(0xA11CE);
  GraphModel concat = inception_a_block_graph(5, "golden-concat");
  concat.materialize_weights(0xB0B);

  Json cases = Json::array();
  for (DecompositionScheme scheme :
       {DecompositionScheme::kTemporal, DecompositionScheme::kSerial,
        DecompositionScheme::kSpatial}) {
    RunSpec spec;
    spec.datapath = DatapathConfig::for_scheme(scheme);
    spec.datapath.n_inputs = 16;
    spec.datapath.adder_tree_width = 16;
    spec.datapath.software_precision = 28;
    spec.datapath.multi_cycle = true;
    spec.threads = 1;
    cases.push(run_case("residual", residual, 4, 9, 9, spec));
    cases.push(run_case("concat", concat, 5, 7, 7, spec));
    if (scheme != DecompositionScheme::kSpatial) {
      RunSpec int_spec = spec;
      int_spec.policy = PrecisionPolicy::all_int(8);
      cases.push(run_case("residual-int8", residual, 4, 9, 9, int_spec));
    }
  }
  Json root = Json::object();
  root.set("golden", "graph-execution");
  root.set("format_version", 1);
  root.set("cases", std::move(cases));
  return root.dump() + "\n";
}

TEST(GoldenGraph, SerializedDigestsMatchCommittedFileByteForByte) {
  const std::string path = std::string(MPIPU_SOURCE_DIR) + kGoldenRelPath;
  const std::string document = build_golden_document();

  if (std::getenv("MPIPU_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << document;
    GTEST_SKIP() << "golden file regenerated at " << path
                 << " -- review and commit the diff";
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " -- run MPIPU_UPDATE_GOLDEN=1 ./test_golden_graph once and commit it";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string committed = buf.str();

  // Byte-for-byte: locate the first divergence for a usable diagnostic.
  if (document != committed) {
    size_t at = 0;
    while (at < document.size() && at < committed.size() &&
           document[at] == committed[at]) {
      ++at;
    }
    const size_t lo = at > 60 ? at - 60 : 0;
    FAIL() << "golden drift at byte " << at << ":\n  committed: ..."
           << committed.substr(lo, 120) << "\n  computed:  ..."
           << document.substr(lo, 120)
           << "\nIf intentional, regenerate with MPIPU_UPDATE_GOLDEN=1 and "
              "commit the diff.";
  }
}

}  // namespace
}  // namespace mpipu

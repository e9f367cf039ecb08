// CompiledModel: the compile-once / run-many half of the high-level API.
//
// The paper's deployment scenario is fixed-weight DNN inference: weights
// are known at load time, requests arrive forever after.  Session::run
// re-paid the whole weight pipeline -- FP16 rounding / INT quantization,
// decode, nibble decomposition, per-(clip-class, output-channel) stream
// packing -- on every call.  `Session::compile` (or the static
// CompiledModel::compile) moves all of it to a single compile phase:
//
//   * the PrecisionPolicy is resolved per conv node ONCE; a CompiledModel
//     never re-resolves it (mutating the policy object you compiled from
//     has no effect on an existing CompiledModel -- recompile to change
//     precision);
//   * every conv node is baked into an immutable plan holding the prepared
//     + packed filter planes (nn/conv_plan.h) for its resolved
//     (datapath, accum / INT) mode;
//   * all validation (weightless model, INT on an FP-only scheme, empty
//     output geometry, graph topology) happens at compile time, before
//     anything executes.
//
// The execution core is a DAG (api/graph_model.h): a GraphModel compiles
// into its topological order -- a layer chain being the degenerate graph.
// Nodes run one after another in that order, each on the caller's whole
// pool: the conv executor splits a node over (pixel, output channel), so a
// 1x1 output map or one branch of a ResNet/Inception fan-out keeps every
// slot busy.  Outputs AND per-node stats are bit-identical for 1 and N pool
// threads (stats are sums over a fixed op partition; every output element
// is computed exactly once).
//
// run() is REENTRANT: every call builds its own scratch (per-slot
// datapaths, staged activation planes, stats, the FP32 reference chain when
// asked for) and only reads the shared `const` plans -- a CompiledModel
// holds no mutable state and no lock -- so any number of host threads may
// call it concurrently on one CompiledModel.  Each call returns its own
// RunReport whose outputs, stats and cycles are byte-identical to what
// Session::run produces for the same spec/model/input.  Stats are per-call
// by construction.  run() is the only code that executes a forward, and so
// the only code that runs a convolution on the datapath: a single conv is a
// one-conv graph, and a batch is a loop over run().
//
// Session::run and ServingRuntime::load sit on top of this through one
// exact-match plan cache (api/plan_cache.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/graph_model.h"
#include "api/model.h"
#include "api/run_report.h"
#include "api/run_spec.h"
#include "common/thread_pool.h"
#include "nn/conv_plan.h"

namespace mpipu {

struct CompileOptions {
  /// Spatial dims of the inputs run() will receive (the packed gather
  /// offsets and clip classes depend on them).  Required; run() rejects
  /// inputs with any other shape.
  int input_h = 0;
  int input_w = 0;
};

class CompiledModel {
 public:
  /// Resolve, validate and bake `model` for `spec` at the given input
  /// geometry.  Throws std::invalid_argument on a weightless model, a
  /// policy asking for INT on a datapath that does not support it, missing
  /// input dims, or any topology analyze_graph rejects (a cycle, a join
  /// shape mismatch, geometry that collapses to nothing) -- before anything
  /// is baked.
  [[nodiscard]] static CompiledModel compile(const GraphModel& model,
                                             const RunSpec& spec,
                                             const CompileOptions& opts);

  /// One forward pass against the immutable plan.  Thread-safe: every call
  /// owns its scratch (a private pool of spec().threads workers -- created
  /// per call, so prefer spec.threads == 1 for concurrent serving) and its
  /// RunReport stats are per-call.  Throws std::invalid_argument when the
  /// input shape differs from the compiled geometry.
  RunReport run(const Tensor& input, const RunOptions& opts = {}) const;
  /// Same, executing on a caller-owned pool (e.g. a Session's shared pool
  /// or a serving thread's long-lived pool).  The pool must not be used by
  /// two calls at once -- ThreadPool::parallel_for is not reentrant; for
  /// concurrent callers give each its own pool or use the overload above.
  RunReport run(const Tensor& input, const RunOptions& opts,
                ThreadPool& pool) const;

  /// Cycle-sim estimate of the compiled shape table on spec().tile with
  /// spec().datapath plugged in (what RunOptions.with_estimate attaches):
  /// the graph's conv rows in execution order (GraphModel::shape_table).
  NetworkSimResult estimate() const;

  const std::string& model_name() const { return name_; }
  const RunSpec& spec() const { return spec_; }
  int input_c() const { return in_c_; }
  int input_h() const { return in_h_; }
  int input_w() const { return in_w_; }
  /// Non-throwing geometry check: empty when `input` matches the compiled
  /// input dims, else the exact message validate_input/run would throw.
  /// Admission-time validation in the serving layer runs on this -- a bad
  /// request is shed as a typed value before it can reach (and poison) a
  /// batch.
  [[nodiscard]] std::string input_geometry_mismatch(const Tensor& input) const;
  /// Executable nodes: conv layers plus add/concat joins.
  size_t layer_count() const { return topo_.order.size() - 1; }
  /// The compile-time-resolved precision of each conv node in execution
  /// order (frozen: no API re-resolves these after compile).
  const std::vector<LayerPrecision>& layer_precisions() const {
    return precisions_;
  }
  /// Content fingerprint of the model this plan was compiled from
  /// (graph_fingerprint of name, topology, specs, post-ops and weight
  /// bytes).
  uint64_t fingerprint() const { return fingerprint_; }
  /// Exact equality of `model` with the compiled nodes (weights, specs,
  /// post-ops) AND tensor statistics (what estimate() consumes) -- the
  /// lookup predicate of the plan cache (api/plan_cache.h).  Field checks
  /// (name, stats, node shapes) reject mismatches before any weight bytes
  /// are compared.
  bool matches(const GraphModel& model) const;

 private:
  CompiledModel() = default;

  /// One conv node's immutable execution state: the resolved precision plus
  /// the plan (packed filter streams) for its mode.  Exactly one of the two
  /// plans is populated, selected by precision.kind.  Join nodes carry no
  /// plan (joins are exact elementwise ops).
  struct CompiledNode {
    LayerPrecision precision;
    std::string precision_label;
    ConvPlan<PreparedFp16> fp16_plan;
    ConvPlan<PreparedInt> int_plan;
    QuantParams qw;  ///< INT mode: weight quantization (compile-time)
  };

  void validate_input(const Tensor& input) const;
  /// Execute one non-input node on the whole pool: reads predecessor
  /// activations, writes acts[id] (post-ops applied) and returns the node's
  /// datapath stats (the before/after delta over `units`; zero for joins).
  DatapathStats exec_node(
      int id, std::vector<Tensor>& acts, ThreadPool& pool,
      std::span<const std::unique_ptr<Datapath>> units) const;

  RunSpec spec_;
  std::string name_;
  int in_c_ = 0, in_h_ = 0, in_w_ = 0;
  /// Source nodes (weights kept for the reference chain and matches()).
  std::vector<GraphNode> nodes_;
  GraphTopology topo_;
  std::vector<LayerPrecision> precisions_;  ///< conv nodes, execution order
  std::vector<CompiledNode> compiled_;      ///< indexed by node id
  /// Shape table at the compiled input dims; its tensor_stats are the
  /// source graph's.
  Network shape_net_;
  uint64_t fingerprint_ = 0;
};

}  // namespace mpipu

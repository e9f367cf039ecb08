// GraphModel: DAG-structured models for the high-level API.
//
// The paper's accuracy and cycle studies run on ResNet-18/50 and
// InceptionV3 -- networks whose defining feature is that they are NOT layer
// chains: ResNet merges a skip path into the trunk with an elementwise ADD,
// Inception fans a tensor out over parallel branches and merges them with a
// channel CONCAT.  GraphModel is the repo's one model type: a DAG (a layer
// chain is the degenerate graph, one conv per Builder call) whose nodes are
//
//   * kInput  -- the single graph input (exactly one per graph);
//   * kConv   -- a convolution layer (FilterBank + ConvSpec + post-ops),
//                exactly one predecessor;
//   * kAdd    -- elementwise residual add of >= 2 same-shape predecessors;
//   * kConcat -- channel concatenation of >= 2 predecessors sharing (h, w);
//
// with optional ReLU-then-pool post-ops on every non-input node (ResNet's
// add-then-ReLU is `add` with relu = true).  Joins execute in exact host
// double on BOTH the datapath path and the FP32 reference chain -- the
// paper's approximation lives entirely in the conv inner products, so joins
// compose branch errors without adding any of their own.
//
// Topology is validated at compile time (Session::compile /
// CompiledModel::compile): acyclicity, exactly one input and one output,
// channel agreement into convs, conv stride >= 1 and pad >= 0, shape
// agreement at joins, non-collapsing geometry -- all via analyze_graph(),
// which also fixes the deterministic execution order (Kahn's algorithm,
// ascending node id among ready nodes) that CompiledModel runs nodes in,
// each on the whole ThreadPool, and the wave structure (topological
// levels).
//
// PrecisionPolicy interaction: the policy resolves over *conv* nodes only,
// indexed by execution order (joins carry no inner products, hence no
// precision).  first/last presets therefore mean first/last conv in
// execution order; name overrides use the conv node's name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/model.h"
#include "nn/conv.h"
#include "nn/tensor.h"
#include "workload/networks.h"

namespace mpipu {

/// One node of a GraphModel.  `inputs` holds predecessor node ids (indices
/// into the graph's node vector; any order -- compile topo-sorts).
struct GraphNode {
  enum class Op { kInput, kConv, kAdd, kConcat };

  Op op = Op::kConv;
  std::string name;
  std::vector<int> inputs;
  FilterBank filters;  ///< kConv only
  ConvSpec spec;       ///< kConv only
  bool relu = false;   ///< post-op: ReLU first...
  PoolOp pool{};       ///< ...then pooling (kAdd/kConcat/kConv)

  friend bool operator==(const GraphNode&, const GraphNode&);
};

/// "input" / "conv" / "add" / "concat".
const char* graph_op_name(GraphNode::Op op);

/// Validated topology of a node list at one input geometry: the
/// deterministic execution order, per-node output shapes (after post-ops),
/// the inferred input channel count, the single output node, and the wave
/// structure (topological levels -- nodes of one wave are mutually
/// independent and may execute concurrently).  Throws std::invalid_argument
/// on any structural violation: no/multiple kInput nodes, wrong arity,
/// out-of-range predecessor ids, a cycle, multiple outputs, channel
/// mismatch into a conv, shape mismatch at a join, collapsing geometry, or
/// an input node whose channel count cannot be inferred (no direct conv
/// consumer).
struct GraphTopology {
  std::vector<int> order;  ///< topo execution order, input node first
  std::vector<std::vector<int>> waves;  ///< topo levels, input excluded
  std::vector<int> out_c, out_h, out_w;  ///< per node id, after post-ops
  int input_node = 0;
  int output_node = 0;
  int input_c = 0;
};

[[nodiscard]] GraphTopology analyze_graph(const std::vector<GraphNode>& nodes,
                                          int input_h, int input_w);

class GraphModel {
 public:
  /// Incremental construction: every method returns the new node's id, and
  /// predecessors must already exist (acyclic by construction; compile
  /// re-validates everything regardless).  conv() takes real weights;
  /// conv_shape() records dimensions only -- the graph is then estimate-only
  /// until materialize_weights() fills them.
  class Builder {
   public:
    explicit Builder(std::string model_name);

    int input(std::string name = "input");
    int conv(std::string name, FilterBank filters, ConvSpec spec, int from,
             bool relu = false, PoolOp pool = {});
    int conv_shape(std::string name, int cout, int cin, int kh, int kw,
                   ConvSpec spec, int from, bool relu = false, PoolOp pool = {});
    int add(std::string name, int a, int b, bool relu = false, PoolOp pool = {});
    int concat(std::string name, std::vector<int> from, bool relu = false,
               PoolOp pool = {});

    /// Tensor statistics for shape_table() / materialize_weights()
    /// (defaults to forward_stats()).
    Builder& tensor_stats(LayerTensorStats stats);

    GraphModel build();

   private:
    int push(GraphNode node);

    std::string name_;
    std::vector<GraphNode> nodes_;
    LayerTensorStats stats_;
    std::vector<int> shape_only_ids_;  ///< conv_shape() nodes awaiting weights
  };

  /// Wrap an explicit node list carrying real weights.  Structural
  /// validation happens at compile time.
  static GraphModel from_nodes(std::string name, std::vector<GraphNode> nodes);

  const std::string& name() const { return name_; }
  const std::vector<GraphNode>& nodes() const { return nodes_; }
  const LayerTensorStats& tensor_stats() const { return tensor_stats_; }
  /// False until every conv node carries weights (conv_shape graphs before
  /// materialize_weights); weightless graphs are estimate-only.
  bool has_weights() const { return has_weights_; }
  /// Number of kConv nodes (what PrecisionPolicy resolves over).
  size_t conv_count() const;

  /// Fill random FP16-rounded weights, drawn from the graph's tensor
  /// statistics in node-list order (deterministic for a given seed).  Only
  /// conv_shape() nodes are filled -- real weights passed to
  /// Builder::conv() are never overwritten (a mixed trained/shape-only
  /// builder keeps its trained filters).  Throws std::invalid_argument on a
  /// graph with no conv_shape() node (every from_nodes graph included):
  /// there is nothing to fill.  Shape-only builders require this before
  /// run/compile.
  void materialize_weights(uint64_t seed);

  /// Equivalent shape table for the cycle-sim path: one ConvLayer row per
  /// conv node, in execution order, at the given input dims (joins
  /// contribute no rows -- exactly how the hand-built tables in
  /// workload/networks.h record branchy networks).  Validates topology.
  Network shape_table(int input_h, int input_w) const;

  friend bool operator==(const GraphModel&, const GraphModel&);

 private:
  std::string name_;
  std::vector<GraphNode> nodes_;
  LayerTensorStats tensor_stats_;
  /// Builder conv_shape() nodes: the only ones materialize_weights fills.
  /// Not part of equality/fingerprints -- ephemeral build state.
  std::vector<int> shape_only_ids_;
  bool has_weights_ = true;
};

/// Per-node reference outputs of the exact FP32 chain mirrored over the
/// graph (host-double convs + exact joins + post-ops), indexed by node id
/// (the input node's slot is left empty).  THE reference forward pass for
/// graphs: shared by CompiledModel::run and Session::reference so the two
/// can never drift.  This overload runs every conv on one thread.
std::vector<Tensor> graph_reference_outputs(const std::vector<GraphNode>& nodes,
                                            const GraphTopology& topo,
                                            const Tensor& input);
/// Same, each conv on the whole `pool` (byte-identical for any pool size).
std::vector<Tensor> graph_reference_outputs(const std::vector<GraphNode>& nodes,
                                            const GraphTopology& topo,
                                            const Tensor& input,
                                            ThreadPool& pool);

/// Order-sensitive content hash of a graph's name, topology, specs,
/// post-ops and weight bytes -- a stable identity for logging and plan
/// registries (what CompiledModel::fingerprint reports).  NOTE: it
/// deliberately skips the tensor statistics; CompiledModel::matches is the
/// exact-equality authority (and does compare them).
uint64_t graph_fingerprint(const GraphModel& model);

}  // namespace mpipu

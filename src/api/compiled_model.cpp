#include "api/compiled_model.h"

#include <stdexcept>

#include "core/simd/simd.h"
#include "nn/elementwise.h"

namespace mpipu {

namespace {

void check_compile_dims(const CompileOptions& opts) {
  if (opts.input_h <= 0 || opts.input_w <= 0) {
    throw std::invalid_argument(
        "CompiledModel::compile: CompileOptions must carry the input spatial "
        "dims (got " + std::to_string(opts.input_h) + "x" +
        std::to_string(opts.input_w) +
        ") -- the packed gather offsets depend on them");
  }
}

}  // namespace

bool CompiledModel::matches(const GraphModel& model) const {
  if (model.name() != name_) return false;
  if (!model.has_weights()) return false;  // compiled graphs carry weights
  // Tensor statistics feed the shape table estimate() consumes: two graphs
  // with identical nodes but different stats must not share a plan.
  if (!(model.tensor_stats() == shape_net_.tensor_stats)) return false;
  return model.nodes() == nodes_;
}

TileConfig composed_tile_for(const RunSpec& spec, const TileConfig& geometry) {
  TileConfig t = geometry;
  t.datapath = spec.datapath;
  if (t.c_unroll != spec.datapath.n_inputs) {
    throw std::invalid_argument(
        "RunSpec: tile c_unroll (" + std::to_string(t.c_unroll) +
        ") must equal datapath n_inputs (" +
        std::to_string(spec.datapath.n_inputs) +
        ") -- one RunSpec drives both paths");
  }
  return t;
}

CompiledModel CompiledModel::compile(const GraphModel& model,
                                     const RunSpec& spec,
                                     const CompileOptions& opts) {
  check_compile_dims(opts);
  if (!model.has_weights()) {
    throw std::invalid_argument(
        "CompiledModel::compile: graph '" + model.name() +
        "' carries no weights -- shape-only graphs are estimate-only; call "
        "materialize_weights() first");
  }
  CompiledModel cm;
  cm.spec_ = spec;
  cm.name_ = model.name();
  cm.nodes_ = model.nodes();
  // Full topology validation -- acyclicity, single input/output, channel
  // agreement into convs, shape agreement at joins, collapsing geometry --
  // plus the deterministic execution order and wave structure.
  cm.topo_ = analyze_graph(cm.nodes_, opts.input_h, opts.input_w);
  cm.in_c_ = cm.topo_.input_c;
  cm.in_h_ = opts.input_h;
  cm.in_w_ = opts.input_w;

  size_t n_convs = 0;
  for (const GraphNode& nd : cm.nodes_) {
    if (nd.op == GraphNode::Op::kConv) ++n_convs;
  }

  // Validate the datapath config and the whole policy up front: a bad
  // config (building the probe unit throws) or an unsupported INT layer
  // must be rejected at compile time, before anything is baked.
  const std::unique_ptr<Datapath> probe = make_datapath(spec.datapath);
  cm.precisions_.reserve(n_convs);
  for (int id : cm.topo_.order) {
    const GraphNode& nd = cm.nodes_[static_cast<size_t>(id)];
    if (nd.op != GraphNode::Op::kConv) continue;
    const LayerPrecision p =
        spec.policy.resolve(cm.precisions_.size(), n_convs, nd.name);
    cm.precisions_.push_back(p);
    if (p.kind != LayerPrecision::Kind::kInt) continue;
    if (!probe->supports_int(p.a_bits, p.w_bits)) {
      throw std::invalid_argument(
          "CompiledModel::compile: layer '" + nd.name + "' requests " +
          p.to_string() + " but the " + scheme_name(spec.datapath.scheme) +
          " scheme does not support it" +
          (spec.datapath.scheme == DecompositionScheme::kSpatial
               ? " (spatial is FP-only; pick an fp16 policy or a "
                 "temporal/serial datapath)"
               : ""));
    }
  }

  // Bake every conv node: the plan sees the node's input geometry (its
  // predecessor's post-post-op shape) and packs the filter planes for the
  // resolved mode, converting only the taps its clip classes read, in
  // parallel over output channels on the spec's thread count.
  cm.compiled_.resize(cm.nodes_.size());
  ThreadPool pool(spec.threads);
  size_t conv_index = 0;
  for (int id : cm.topo_.order) {
    const GraphNode& nd = cm.nodes_[static_cast<size_t>(id)];
    if (nd.op != GraphNode::Op::kConv) continue;
    const LayerPrecision& p = cm.precisions_[conv_index++];
    const int pred = nd.inputs[0];
    const int c = cm.topo_.out_c[static_cast<size_t>(pred)];
    const int h = cm.topo_.out_h[static_cast<size_t>(pred)];
    const int w = cm.topo_.out_w[static_cast<size_t>(pred)];
    CompiledNode& cl = cm.compiled_[static_cast<size_t>(id)];
    cl.precision = p;
    cl.precision_label = p.to_string();
    if (p.kind == LayerPrecision::Kind::kFp16) {
      cl.fp16_plan = build_fp16_plan(c, h, w, nd.filters, nd.spec, pool);
    } else {
      cl.qw = fit_symmetric(nd.filters.data, p.w_bits);
      cl.int_plan = build_int_plan(c, h, w, nd.filters, nd.spec, cl.qw,
                                   spec.datapath.reads_digit_planes(), pool);
    }
  }
  cm.shape_net_ = model.shape_table(opts.input_h, opts.input_w);
  cm.fingerprint_ = graph_fingerprint(model);
  return cm;
}

std::string CompiledModel::input_geometry_mismatch(const Tensor& input) const {
  if (input.c == in_c_ && input.h == in_h_ && input.w == in_w_ &&
      input.data.size() ==
          static_cast<size_t>(in_c_) * static_cast<size_t>(in_h_) *
              static_cast<size_t>(in_w_)) {
    return {};
  }
  return "CompiledModel::run: input is " + std::to_string(input.c) + "x" +
         std::to_string(input.h) + "x" + std::to_string(input.w) + " (" +
         std::to_string(input.data.size()) +
         " values) but the model was compiled for " + std::to_string(in_c_) +
         "x" + std::to_string(in_h_) + "x" + std::to_string(in_w_) +
         " -- compile once per input geometry";
}

void CompiledModel::validate_input(const Tensor& input) const {
  const std::string mismatch = input_geometry_mismatch(input);
  if (!mismatch.empty()) throw std::invalid_argument(mismatch);
}

DatapathStats CompiledModel::exec_node(
    int id, std::vector<Tensor>& acts, ThreadPool& pool,
    std::span<const std::unique_ptr<Datapath>> units) const {
  const GraphNode& nd = nodes_[static_cast<size_t>(id)];
  Tensor y;
  DatapathStats delta;
  if (nd.op == GraphNode::Op::kConv) {
    const CompiledNode& cl = compiled_[static_cast<size_t>(id)];
    const Tensor& x = acts[static_cast<size_t>(nd.inputs[0])];
    DatapathStats before;
    for (const auto& u : units) before += u->stats();
    if (cl.precision.kind == LayerPrecision::Kind::kFp16) {
      const PreparedFp16 in_planes = prepare_fp16_planes(x.data);
      y = execute_fp16_plan(cl.fp16_plan, in_planes, pool, units,
                            spec_.datapath.n_inputs, cl.precision.accum);
    } else {
      // Activation quantization depends on the input values; only the
      // weight side was frozen at compile time.
      const QuantParams qa = fit_symmetric(x.data, cl.precision.a_bits);
      const PreparedInt in_planes =
          prepare_int_planes(x.data, qa, spec_.datapath.reads_digit_planes());
      y = execute_int_plan(cl.int_plan, in_planes, pool, units,
                           spec_.datapath.n_inputs, cl.precision.a_bits,
                           cl.precision.w_bits, qa, cl.qw);
    }
    DatapathStats after;
    for (const auto& u : units) after += u->stats();
    delta = after - before;
  } else {
    // Joins are exact elementwise ops: no datapath work, no stats.
    std::vector<const Tensor*> parts;
    parts.reserve(nd.inputs.size());
    for (int p : nd.inputs) parts.push_back(&acts[static_cast<size_t>(p)]);
    y = nd.op == GraphNode::Op::kAdd ? tensor_add(parts)
                                     : channel_concat(parts);
  }
  acts[static_cast<size_t>(id)] = apply_post_ops(std::move(y), nd.relu, nd.pool);
  return delta;
}

RunReport CompiledModel::run(const Tensor& input, const RunOptions& opts,
                             ThreadPool& pool) const {
  validate_input(input);
  // Per-call scratch: one private datapath per worker slot.  The plans
  // themselves are only read.
  std::vector<std::unique_ptr<Datapath>> units;
  units.reserve(static_cast<size_t>(pool.size()));
  for (int slot = 0; slot < pool.size(); ++slot) {
    units.push_back(make_datapath(spec_.datapath));
  }

  RunReport report;
  report.model = name_;
  report.scheme = scheme_name(spec_.datapath.scheme);
  report.kernel_backend = simd::backend_name();
  report.threads = pool.size();

  std::vector<Tensor> refs;
  if (opts.compare_reference) {
    refs = graph_reference_outputs(nodes_, topo_, input, pool);
  }

  std::vector<Tensor> acts(nodes_.size());
  acts[static_cast<size_t>(topo_.input_node)] = input;

  // Nodes run one after another in topological order, each on the whole
  // pool: the executor splits every conv over (pixel, output channel), so
  // even a 1x1 output map keeps all slots busy.
  for (int id : topo_.order) {
    if (id == topo_.input_node) continue;
    const GraphNode& nd = nodes_[static_cast<size_t>(id)];
    LayerRunReport lr;
    lr.layer = nd.name;
    lr.precision = nd.op == GraphNode::Op::kConv
                       ? compiled_[static_cast<size_t>(id)].precision_label
                       : graph_op_name(nd.op);
    lr.stats = exec_node(id, acts, pool, units);
    if (opts.compare_reference) {
      lr.error = compare_outputs(acts[static_cast<size_t>(id)],
                                 refs[static_cast<size_t>(id)]);
    }
    report.totals += lr.stats;
    report.layers.push_back(std::move(lr));
  }

  report.output = std::move(acts[static_cast<size_t>(topo_.output_node)]);
  if (opts.compare_reference) {
    report.end_to_end = report.layers.back().error;
    report.reference_output =
        std::move(refs[static_cast<size_t>(topo_.output_node)]);
  }
  if (opts.with_estimate) report.estimate = estimate();
  return report;
}

RunReport CompiledModel::run(const Tensor& input, const RunOptions& opts) const {
  // spec().threads == 1 (the serving default) makes this pool threadless --
  // slot 0 runs inline -- so per-call construction costs nothing.
  ThreadPool pool(spec_.threads);
  return run(input, opts, pool);
}

NetworkSimResult CompiledModel::estimate() const {
  return simulate_network(shape_net_, composed_tile_for(spec_, spec_.tile),
                          spec_.sim, spec_.partition);
}

}  // namespace mpipu

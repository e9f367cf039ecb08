#include "api/session.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace mpipu {

namespace {
/// Distinct (model, input geometry) plans kept per Session.  Conversational
/// sessions touch one or two models; sweeps re-running one model hit one
/// entry forever.  Bounded so a session streaming many throwaway models
/// cannot hoard packed planes.
constexpr size_t kMaxCachedPlans = 8;
}  // namespace

Session::Session(RunSpec spec)
    : spec_(std::move(spec)), pool_(spec_.threads),
      plans_(spec_, kMaxCachedPlans) {}

CompiledModel Session::compile(const GraphModel& model,
                               const CompileOptions& opts) const {
  return CompiledModel::compile(model, spec_, opts);
}

RunReport Session::run_compiled(const CompiledModel& compiled,
                                const Tensor& input, const RunOptions& opts) {
  // The shared pool serves one run at a time (parallel_for is not
  // reentrant).  A concurrent caller finding it busy executes on a private
  // per-call pool of the same width instead of queueing -- byte-identical
  // output by thread-count invariance, and spec.threads == 1 (the serving
  // default) makes the fallback pool threadless and effectively free.
  TryMutexLock pool_lock(pool_mu_);
  if (pool_lock.owns_lock()) {
    return compiled.run(input, opts, pool_);
  }
  return compiled.run(input, opts);
}

RunReport Session::run(const GraphModel& model, const Tensor& input,
                       const RunOptions& opts) {
  if (!model.has_weights()) {
    throw std::invalid_argument(
        "Session::run: graph '" + model.name() +
        "' carries no weights -- shape-only graphs are estimate-only; call "
        "materialize_weights() first");
  }
  // The shared_ptr in the returned entry keeps the plan alive for this run
  // even if another thread evicts it meanwhile.
  return run_compiled(*plans_.get(model, input.h, input.w).plan, input, opts);
}

Tensor Session::reference(const GraphModel& model, const Tensor& input) {
  if (!model.has_weights()) {
    throw std::invalid_argument(
        "Session::reference: graph '" + model.name() + "' carries no weights");
  }
  const GraphTopology topo = analyze_graph(model.nodes(), input.h, input.w);
  // Reject an input whose channel count differs from what the graph's
  // first conv(s) read -- before any conv touches it.
  if (input.c != topo.input_c) {
    throw std::invalid_argument(
        "Session::reference: input has " + std::to_string(input.c) +
        " channels but graph '" + model.name() + "' expects " +
        std::to_string(topo.input_c));
  }
  std::vector<Tensor> refs =
      graph_reference_outputs(model.nodes(), topo, input);
  return std::move(refs[static_cast<size_t>(topo.output_node)]);
}

BatchRunReport Session::run_batch(const GraphModel& model,
                                  const std::vector<Tensor>& inputs,
                                  const RunOptions& opts) {
  // The estimate depends only on (model, input dims, spec): compute it once
  // per distinct input shape instead of once per input.
  RunOptions per_run = opts;
  per_run.with_estimate = false;
  std::vector<std::pair<std::pair<int, int>, NetworkSimResult>> estimates;

  BatchRunReport batch;
  batch.runs.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    batch.runs.push_back(run(model, input, per_run));
    if (opts.with_estimate) {
      const std::pair<int, int> dims{input.h, input.w};
      const NetworkSimResult* cached = nullptr;
      for (const auto& e : estimates) {
        if (e.first == dims) {
          cached = &e.second;
          break;
        }
      }
      if (cached == nullptr) {
        estimates.emplace_back(dims, estimate(model, input.h, input.w));
        cached = &estimates.back().second;
      }
      batch.runs.back().estimate = *cached;
    }
    batch.totals += batch.runs.back().totals;
  }
  return batch;
}

NetworkSimResult Session::estimate(const GraphModel& model, int input_h,
                                   int input_w) const {
  return estimate(model.shape_table(input_h, input_w));
}

NetworkSimResult Session::estimate(const Network& net) const {
  return simulate_network(net, composed_tile_for(spec_, spec_.tile), spec_.sim,
                          spec_.partition);
}

}  // namespace mpipu

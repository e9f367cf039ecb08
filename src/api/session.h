// Session: the single high-level entry point of the repo.  One RunSpec
// {datapath, tile, policy, threads} drives BOTH evaluation paths the paper
// uses at network granularity:
//
//   * the numeric path -- Session::run executes a GraphModel node by node
//     on the bit-accurate datapath (activation tensors threaded between
//     nodes, FP32 reference chain computed alongside), producing a
//     RunReport that unifies per-node DatapathStats, error metrics and (on
//     request) simulated cycles; a batch is a loop over run();
//   * the analytical path -- Session::estimate costs the model's shape
//     table (or any Network table) on the cycle simulator with the same
//     datapath config plugged into the tile.
//
// Session::run is compile-on-first-use sugar over CompiledModel
// (api/compiled_model.h): the model is compiled into an immutable plan on
// the first run, kept in an exact-match LRU PlanCache (api/plan_cache.h)
// keyed by model content and input geometry -- so re-runs, sweeps and
// batches never re-pay the weight pipeline -- and executed on the
// Session's shared ThreadPool.
//
// run() and reference() are thread-safe: the plan cache is guarded by its
// own mutex (a shared_ptr pins each plan across LRU eviction), and
// concurrent calls race for the shared pool -- the loser executes on a
// private per-call pool of the same width, so outputs stay byte-identical
// either way (thread-count invariance).  Use Session for conversational
// work -- one caller, ad-hoc models; call Session::compile and hold the
// CompiledModel yourself for serving -- weights prepared once at load
// time, concurrent reentrant callers -- or put src/serve's ServingRuntime
// in front for queueing, batching and SLO metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/compiled_model.h"
#include "api/plan_cache.h"
#include "api/run_report.h"
#include "api/run_spec.h"
#include "common/annotated_mutex.h"
#include "common/thread_pool.h"
#include "sim/cycle_sim.h"
#include "sim/tile.h"

namespace mpipu {

class Session {
 public:
  explicit Session(RunSpec spec);

  const RunSpec& spec() const { return spec_; }
  int threads() const { return pool_.size(); }

  /// Compile `model` against this session's spec: resolve the policy,
  /// validate the DAG topology -- acyclicity, single input/output, channel
  /// agreement into convs, shape agreement at add/concat joins -- and bake
  /// the packed filter planes.  The returned CompiledModel is
  /// self-contained (shares nothing with this Session) and safe for
  /// concurrent callers; its nodes run one after another, each on the whole
  /// pool of the call.  Throws std::invalid_argument on a weightless model,
  /// an unsupported INT layer, an invalid topology or missing input dims.
  [[nodiscard]] CompiledModel compile(const GraphModel& model,
                                      const CompileOptions& opts) const;

  /// Full forward pass of `model` on `input` (a layer chain, ResNet skip
  /// connections, Inception branch/concat blocks).  Compile-on-first-use:
  /// the first call per model content and input geometry compiles, later
  /// calls hit the cache and only execute; the report is byte-identical to
  /// CompiledModel::run.  Throws std::invalid_argument -- before any node
  /// executes -- on a weightless model, an input/model channel mismatch,
  /// or a policy asking for INT on a datapath that does not support it
  /// (e.g. the FP-only spatial scheme).
  RunReport run(const GraphModel& model, const Tensor& input,
                const RunOptions& opts = {});

  /// The exact FP32 reference forward pass of the numeric path: the
  /// host-double conv chain mirrored over the DAG (exact joins, the model's
  /// post-ops) -- what run() compares against when
  /// RunOptions.compare_reference is set.  Exposed so drivers sweeping many
  /// datapath configs over the same inputs can compute it once instead of
  /// once per sweep point.  Runs each conv on the session's pool, like
  /// run(); byte-identical for any pool size.  Throws std::invalid_argument
  /// on a weightless model or an input/model channel mismatch, like run().
  Tensor reference(const GraphModel& model, const Tensor& input);

  /// Cycle-sim estimate of an explicit shape table (e.g. a
  /// workload/networks.h table) on spec().tile with spec().datapath
  /// plugged in.
  NetworkSimResult estimate(const Network& net) const;
  /// Graph estimate: the graph's conv rows (GraphModel::shape_table) at the
  /// given input dims on the cycle simulator -- agrees with estimate(net)
  /// for the equivalent table by construction.
  NetworkSimResult estimate(const GraphModel& model, int input_h,
                            int input_w) const;

  /// Plans the compile-on-first-use cache holds (at most 8).
  size_t cached_plans() const { return plans_.size(); }

 private:
  /// Call `body(pool)` on the shared pool when it is free, else on a
  /// private per-call pool of the same width (byte-identical either way).
  template <typename F>
  auto on_pool(F&& body);

  RunSpec spec_;
  ThreadPool pool_;
  /// Claims the shared pool for one run at a time.  The pool itself is not
  /// MPIPU_GUARDED_BY(pool_mu_): threads() reads its (immutable) size
  /// lock-free, and the capability here serializes parallel_for USE, not
  /// data access.
  Mutex pool_mu_;
  PlanCache plans_;
};

}  // namespace mpipu

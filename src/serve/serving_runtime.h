// ServingRuntime: the serving layer above CompiledModel -- the piece every
// caller has hand-rolled since the compile/run split (PR 4).
//
//   submit(handle, input) ──> bounded MPMC queue ──> batching window ──>
//        N async workers ──> CompiledModel::run per distinct input ──>
//        future<ServeResult>
//
// The runtime owns:
//   * a PlanCache (api/plan_cache.h, the same LRU Session runs on): load()
//     compiles a model once (exact content match dedups repeat loads) and
//     hands back a ModelHandle; requests carry the handle, so the hot path
//     never touches weight bytes;
//   * a bounded MPMC request queue with typed overload shedding: a full
//     queue (global or per-model admission cap) resolves the future
//     IMMEDIATELY with Rejected{kQueueFull} -- the hot path never throws;
//   * admission-time input validation: submit() checks the request tensor
//     against the compiled geometry and resolves Rejected{kBadInput} on
//     the spot, so a malformed request can never reach (let alone poison)
//     a batch;
//   * a dynamic batching window per worker: the worker takes the oldest
//     request as batch leader, gathers queued same-model requests up to
//     `max_batch`, and optionally lingers `batch_window_s` for more before
//     dispatching them together on the worker's long-lived pool.  Requests
//     whose deadline passed by dispatch time are shed as Rejected{kDeadline}
//     without executing;
//   * dispatch-time coalescing: requests in a dispatch whose tensors are
//     identical (same shape, byte-identical data) are twins.  Each distinct
//     input executes exactly ONCE, as one CompiledModel::run in its own
//     try/catch, and its (deterministic, hence exact) report fans out to
//     every twin.  A failure -- a bad input that reached execution
//     (validate_at_admission = false), an injected fault, a real execution
//     error -- is charged to that input's requests only: batchmates
//     complete ok() and nothing re-executes;
//   * per-model health: a consecutive-failure circuit breaker (serve/
//     health.h) sheds Rejected{kUnhealthy} in microseconds while a model
//     keeps failing, half-open probes restore service after the cooldown;
//     a watchdog counts dispatches whose execution blew the stall budget.
//     Both are visible in ServerMetrics (and its JSON);
//   * deterministic fault injection (serve/fault.h): a seeded FaultPlan --
//     configured or via MPIPU_FAULT -- can throw inside execution, delay a
//     worker, or stall the batch window.  One FaultPlan attempt is one
//     distinct input's execution.  Compiled in always, no-op when absent;
//     injected failures take the SAME paths as real ones;
//   * graceful shutdown: kDrain completes every accepted request first,
//     kAbort finishes only in-flight batches and resolves everything still
//     queued as Rejected{kShutdown}.
//
// CONTRACT: every future resolves exactly once with a TYPED outcome --
// futures never carry exceptions, whatever faults fire.  The metrics
// conserve at every instant:
//
//   submitted == completed + shed_queue_full + shed_deadline
//              + shed_shutdown + shed_bad_input + shed_unhealthy
//              + failed + in_flight
//
// (ServerMetrics::conserved()).  All time flows through common/clock.h, so
// deadline/cooldown/backoff behavior is deterministic under a ManualClock.
//
// Batched execution is byte-identical to one-at-a-time CompiledModel::run
// (outputs, per-layer stats, cycles): it IS one CompiledModel::run per
// distinct input, and coalescing only ever reuses the report of an
// identical input.  tests/test_serving_runtime.cpp pins the serving
// semantics; tests/test_serve_chaos.cpp pins the fault-tolerance contract
// under randomized fault schedules.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/compiled_model.h"
#include "api/json.h"
#include "api/plan_cache.h"
#include "common/annotated_mutex.h"
#include "common/clock.h"
#include "common/percentile.h"
#include "serve/fault.h"
#include "serve/health.h"

namespace mpipu::serve {

/// Why a request did not produce a report.  ALL failure outcomes are
/// VALUES, not exceptions: the hot path resolves the future with one of
/// these and keeps serving.
enum class RejectReason {
  kNone,       ///< not rejected: the report is valid
  kQueueFull,  ///< shed at admission (global queue or per-model cap full)
  kDeadline,   ///< deadline had passed when a worker reached the request
  kShutdown,   ///< runtime stopping: submitted after shutdown, or queued at
               ///< shutdown(kAbort)
  kBadInput,   ///< request tensor does not match the compiled geometry
               ///< (shed at admission, or failed its own execution)
  kUnhealthy,  ///< circuit breaker open for the model: failing fast
  kExecError,  ///< this request's execution failed (transient or injected
               ///< fault); batchmates were unaffected
};
const char* reject_reason_name(RejectReason r);

struct ServerConfig {
  /// Async worker threads consuming the queue.  Each owns a long-lived
  /// execution pool of RunSpec::threads workers.
  int workers = 1;
  /// Bounded queue capacity; submissions beyond it shed kQueueFull.
  size_t queue_capacity = 64;
  /// Per-model admission cap on QUEUED requests (0 = no cap): one model
  /// saturating the service cannot starve the others out of the queue.
  size_t per_model_queue_cap = 0;
  /// Dynamic batching: a worker dispatches up to this many queued
  /// same-model requests together.
  int max_batch = 8;
  /// How long the batch leader lingers for more same-model arrivals when
  /// the queue alone does not fill the batch.  0 = never wait (batch only
  /// what is already queued).  Ignored while draining.
  double batch_window_s = 0.0;
  /// LRU capacity of the plan cache behind load().  Loading past it evicts
  /// the least-recently-used plan (in-flight requests keep it alive; its
  /// handle becomes invalid for new submissions).
  size_t max_models = 8;
  /// Check request geometry against the compiled plan at submit() --
  /// Rejected{kBadInput} immediately, nothing bad ever queues.  Off, a bad
  /// input surfaces at its own execution instead and resolves kBadInput
  /// there (the regression tests do exactly that).
  bool validate_at_admission = true;
  /// Per-model circuit breaker (failure_threshold = 0 disables).
  CircuitBreakerConfig breaker;
  /// Watchdog: a dispatch whose EXECUTION takes longer than this is
  /// counted as a stall (metrics: watchdog_stalls, per-model
  /// stall_events / currently_stalled).  0 disables.
  double stall_budget_s = 0.0;
  /// Fault injection plan; nullptr falls back to MPIPU_FAULT (and to a
  /// no-op when that is unset).
  std::shared_ptr<FaultPlan> faults;
  /// Time source; nullptr = the real steady clock.  Tests install a
  /// ManualClock to elapse deadlines and breaker cooldowns instantly.
  Clock* clock = nullptr;
  /// Options every request executes with.  Serving defaults: no FP32
  /// shadow chain, no cycle-sim estimate.
  RunOptions run_options{.compare_reference = false, .with_estimate = false};
};

/// Stable identity of a loaded model (never reused, even after eviction).
/// Requests carry handles; weight bytes are only ever touched inside load().
using ModelHandle = PlanCache::Handle;

struct SubmitOptions {
  /// Relative deadline (seconds from submission).  A request still queued
  /// when it expires is shed as kDeadline at dispatch time; a request
  /// already executing always completes.  Infinity = no deadline.
  double timeout_s = std::numeric_limits<double>::infinity();
};

/// [[nodiscard]]: a dropped ServeResult is a dropped typed failure -- the
/// whole point of the values-not-exceptions contract is that callers LOOK.
struct [[nodiscard]] ServeResult {
  RejectReason rejected = RejectReason::kShutdown;
  bool ok() const { return rejected == RejectReason::kNone; }
  /// kBadInput / kExecError: what went wrong (the exception text the
  /// execution path produced).  Empty for the overload sheds.
  std::string error;
  /// Valid when ok(): the same per-request RunReport a direct
  /// CompiledModel::run would have produced (byte-identical).
  RunReport report;
  /// Executed batch size (after deadline shedding), 0 when rejected.
  int batch_size = 0;
  /// True when this request was served by fanning out an identical
  /// in-batch twin's execution.
  bool coalesced = false;
  double queue_wait_s = 0.0;  ///< submission -> batch dispatch
  double total_s = 0.0;       ///< submission -> future resolution
};

/// Point-in-time metrics snapshot (ServingRuntime::metrics).
struct ServerMetrics {
  uint64_t submitted = 0;   ///< every submit() call, whatever its outcome
  uint64_t completed = 0;   ///< requests resolved with ok()
  uint64_t shed_queue_full = 0;
  uint64_t shed_deadline = 0;
  uint64_t shed_shutdown = 0;
  uint64_t shed_bad_input = 0;
  uint64_t shed_unhealthy = 0;
  uint64_t failed = 0;      ///< requests resolved kExecError
  uint64_t in_flight = 0;   ///< accepted (queued or executing), unresolved
  uint64_t coalesced = 0;   ///< completed requests served via an identical twin
  uint64_t batches = 0;     ///< dispatches (batches executed)
  uint64_t watchdog_stalls = 0;  ///< dispatches past the stall budget
  size_t queue_high_water = 0;  ///< deepest the queue has been
  /// batch_size_hist[b] = batches that executed exactly b requests
  /// (index 0 unused).
  std::vector<uint64_t> batch_size_hist;
  /// Per-loaded-model health: breaker state, failure counts, stalls.
  std::vector<ModelHealthSnapshot> models;
  /// total_s of the most recent 65,536 completed requests (older ones
  /// roll off, so the percentiles follow current traffic).
  LatencySummary latency;
  double elapsed_s = 0.0;   ///< since runtime construction
  double throughput_rps = 0.0;    ///< completed / elapsed
  double mean_batch_size = 0.0;   ///< completed / batches

  /// Every submission accounted for, exactly once: the invariant the chaos
  /// wall asserts on every snapshot.
  bool conserved() const {
    return submitted == completed + shed_queue_full + shed_deadline +
                            shed_shutdown + shed_bad_input + shed_unhealthy +
                            failed + in_flight;
  }

  Json to_json_value() const;
};

class ServingRuntime {
 public:
  enum class Shutdown {
    kDrain,  ///< stop admitting, complete every accepted request, stop
    kAbort,  ///< stop admitting, finish in-flight batches, shed the queue
  };

  /// Starts cfg.workers async workers immediately.  `spec` plays the same
  /// role as for Session: one spec drives every model this runtime serves.
  explicit ServingRuntime(RunSpec spec, ServerConfig cfg = {});
  ~ServingRuntime();  ///< shutdown(kDrain)

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// Compile-once model registration.  Loading an exactly-matching model
  /// again (content + input geometry) returns the existing handle and
  /// refreshes its LRU recency.  Throws std::invalid_argument for anything
  /// CompiledModel::compile rejects -- load time is where exceptions
  /// belong, not the request path.
  ModelHandle load(const GraphModel& model, int input_h, int input_w);

  /// The compiled plan behind a handle (introspection / direct baseline
  /// runs).  Throws std::out_of_range for an unknown or evicted handle.
  std::shared_ptr<const CompiledModel> model(ModelHandle h) const;
  size_t loaded_count() const;

  /// Enqueue one request.  Never throws for overload, bad input, an
  /// unhealthy model or shutdown -- those resolve the returned future
  /// immediately with the typed rejection, and execution failures resolve
  /// it later as kExecError.  Throws std::out_of_range only for an
  /// unknown/evicted handle (a caller bug, not a load condition).
  [[nodiscard]] std::future<ServeResult> submit(ModelHandle h, Tensor input,
                                                const SubmitOptions& opts = {});

  /// Blocking convenience: submit + wait.
  ServeResult serve(ModelHandle h, Tensor input,
                    const SubmitOptions& opts = {});

  /// Idempotent; blocks until every worker has exited.  After shutdown all
  /// submissions resolve as Rejected{kShutdown}.
  void shutdown(Shutdown mode);

  ServerMetrics metrics() const;
  const ServerConfig& config() const { return cfg_; }
  const RunSpec& spec() const { return spec_; }
  Clock& clock() const { return *clock_; }

 private:
  struct Pending {
    /// Pinned at submit so LRU eviction can never pull a plan out from
    /// under a queued request.
    std::shared_ptr<const CompiledModel> model;
    ModelHandle handle = -1;
    Tensor input;
    double enqueue_t = 0.0;
    double deadline = std::numeric_limits<double>::infinity();
    bool probe = false;  ///< admitted as a half-open breaker probe
    std::promise<ServeResult> promise;
  };
  /// How one distinct input fared at execution.
  struct ExecOutcome {
    RejectReason reason = RejectReason::kNone;
    std::string error;
  };

  void worker_loop() MPIPU_EXCLUDES(mu_, health_mu_, metrics_mu_);
  /// Move queued same-handle requests into `batch` (FIFO order) up to
  /// max_batch.  Caller holds mu_.
  void gather_same_model(std::vector<Pending>& batch) MPIPU_REQUIRES(mu_);
  void execute_batch(std::vector<Pending>& batch, ThreadPool& pool)
      MPIPU_EXCLUDES(mu_, health_mu_, metrics_mu_);
  /// Resolve an accepted (in-flight) request with a non-exec rejection:
  /// returns its probe slot, decrements in_flight, counts the shed.
  void resolve_in_flight_rejected(Pending&& p, RejectReason reason)
      MPIPU_EXCLUDES(health_mu_, metrics_mu_);
  /// Consult the fault plan for one execution attempt: maybe delay the
  /// worker, maybe throw InjectedFault.
  void maybe_inject_fault();
  /// The health record behind a handle, created on demand with the
  /// configured breaker.  Caller holds health_mu_.
  ModelHealth& health_entry(ModelHandle h) MPIPU_REQUIRES(health_mu_);
  /// Record one request's execution outcome in its model's health (caller
  /// holds health_mu_).
  void record_outcome(ModelHealth& health, const ExecOutcome& outcome,
                      bool probe, double now) MPIPU_REQUIRES(health_mu_);

  RunSpec spec_;
  ServerConfig cfg_;
  Clock* clock_ = nullptr;
  std::shared_ptr<FaultPlan> faults_;  ///< may be null (no-op)
  double start_t_ = 0.0;

  /// The compiled plans behind the handles (cfg_.max_models of them).
  PlanCache plans_;

  /// Request queue (guarded by mu_, signaled by queue_cv_).
  mutable Mutex mu_;
  CondVar queue_cv_;
  std::deque<Pending> queue_ MPIPU_GUARDED_BY(mu_);
  size_t queue_high_water_ MPIPU_GUARDED_BY(mu_) = 0;
  bool stopping_ MPIPU_GUARDED_BY(mu_) = false;

  /// Per-model health + the watchdog's active-execution table (guarded by
  /// health_mu_; never held together with another runtime mutex).
  struct ActiveExec {
    uint64_t id = 0;
    ModelHandle handle = -1;
    double start_t = 0.0;
  };
  mutable Mutex health_mu_;
  std::map<ModelHandle, ModelHealth> health_ MPIPU_GUARDED_BY(health_mu_);
  std::map<ModelHandle, std::string> model_names_
      MPIPU_GUARDED_BY(health_mu_);
  std::vector<ActiveExec> active_execs_ MPIPU_GUARDED_BY(health_mu_);
  uint64_t next_exec_id_ MPIPU_GUARDED_BY(health_mu_) = 0;

  /// Counters and the recent-latency ring (guarded by metrics_mu_; never
  /// held together with mu_).  Every submission is accounted under ONE lock
  /// acquisition -- submitted and its outcome (in_flight or a shed
  /// counter) move together, so conserved() holds at every instant.
  mutable Mutex metrics_mu_;
  ServerMetrics counters_ MPIPU_GUARDED_BY(metrics_mu_);
  LatencyRing latencies_ MPIPU_GUARDED_BY(metrics_mu_);

  /// Serializes shutdown() and the destructor.  workers_ itself is written
  /// only single-threaded in the constructor and joined under shutdown_mu_,
  /// so it carries no GUARDED_BY (annotating it would falsely require the
  /// constructor to lock).
  Mutex shutdown_mu_;
  std::vector<std::thread> workers_;
};

}  // namespace mpipu::serve

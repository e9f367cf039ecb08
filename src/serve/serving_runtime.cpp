#include "serve/serving_runtime.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace mpipu::serve {

namespace {

/// Completed-request latencies kept for the percentile digest: the most
/// recent 2^16 (512 KB), overwritten oldest first.
constexpr size_t kLatencyWindow = 1u << 16;

/// Coalescing predicate: same shape and byte-identical data.  Execution is
/// deterministic, so twins get byte-identical reports -- and a tensor that
/// a direct run rejects never shares the fate of a valid one.
bool same_tensor(const Tensor& a, const Tensor& b) {
  return a.c == b.c && a.h == b.h && a.w == b.w &&
         a.data.size() == b.data.size() &&
         (a.data.empty() ||
          std::memcmp(a.data.data(), b.data.data(),
                      a.data.size() * sizeof(double)) == 0);
}

}  // namespace

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kDeadline: return "deadline";
    case RejectReason::kShutdown: return "shutdown";
    case RejectReason::kBadInput: return "bad_input";
    case RejectReason::kUnhealthy: return "unhealthy";
    case RejectReason::kExecError: return "exec_error";
  }
  return "?";
}

Json ServerMetrics::to_json_value() const {
  Json j = Json::object();
  j.set("submitted", static_cast<double>(submitted));
  j.set("completed", static_cast<double>(completed));
  j.set("shed_queue_full", static_cast<double>(shed_queue_full));
  j.set("shed_deadline", static_cast<double>(shed_deadline));
  j.set("shed_shutdown", static_cast<double>(shed_shutdown));
  j.set("shed_bad_input", static_cast<double>(shed_bad_input));
  j.set("shed_unhealthy", static_cast<double>(shed_unhealthy));
  j.set("failed", static_cast<double>(failed));
  j.set("in_flight", static_cast<double>(in_flight));
  j.set("conserved", conserved());
  j.set("coalesced", static_cast<double>(coalesced));
  j.set("batches", static_cast<double>(batches));
  j.set("watchdog_stalls", static_cast<double>(watchdog_stalls));
  j.set("queue_high_water", static_cast<double>(queue_high_water));
  j.set("mean_batch_size", mean_batch_size);
  Json hist = Json::array();
  for (uint64_t v : batch_size_hist) hist.push(static_cast<double>(v));
  j.set("batch_size_hist", std::move(hist));
  Json model_health = Json::array();
  for (const ModelHealthSnapshot& s : models) {
    model_health.push(s.to_json_value());
  }
  j.set("models", std::move(model_health));
  j.set("elapsed_s", elapsed_s);
  j.set("throughput_rps", throughput_rps);
  Json lat = Json::object();
  lat.set("count", static_cast<double>(latency.count));
  lat.set("mean_s", latency.mean_s);
  lat.set("p50_s", latency.p50_s);
  lat.set("p95_s", latency.p95_s);
  lat.set("p99_s", latency.p99_s);
  lat.set("max_s", latency.max_s);
  j.set("latency", std::move(lat));
  return j;
}

ServingRuntime::ServingRuntime(RunSpec spec, ServerConfig cfg)
    : spec_(std::move(spec)),
      cfg_(std::move(cfg)),
      plans_(spec_, cfg_.max_models),
      latencies_(kLatencyWindow) {
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.queue_capacity < 1) cfg_.queue_capacity = 1;
  if (cfg_.max_batch < 1) cfg_.max_batch = 1;
  if (cfg_.max_models < 1) cfg_.max_models = 1;
  clock_ = cfg_.clock != nullptr ? cfg_.clock : &real_clock();
  // Chaos hooks are compiled in always: an explicitly configured plan wins,
  // else MPIPU_FAULT, else a null plan (every hook a no-op).
  faults_ = cfg_.faults != nullptr ? cfg_.faults : FaultPlan::from_env();
  counters_.batch_size_hist.assign(static_cast<size_t>(cfg_.max_batch) + 1, 0);
  start_t_ = clock_->now();
  workers_.reserve(static_cast<size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServingRuntime::~ServingRuntime() { shutdown(Shutdown::kDrain); }

ModelHealth& ServingRuntime::health_entry(ModelHandle h) {
  auto it = health_.find(h);
  if (it == health_.end()) {
    it = health_.emplace(h, ModelHealth{CircuitBreaker(cfg_.breaker)}).first;
  }
  return it->second;
}

ModelHandle ServingRuntime::load(const GraphModel& model, int input_h,
                                 int input_w) {
  const PlanCache::Entry loaded = plans_.get(model, input_h, input_w);
  // Health is born with the model (so metrics list it before any traffic)
  // and deliberately survives eviction: breaker history is diagnosis data.
  // A repeat load finds both already there.
  {
    MutexLock lock(health_mu_);
    health_entry(loaded.handle);
    model_names_[loaded.handle] = loaded.plan->model_name();
  }
  return loaded.handle;
}

std::shared_ptr<const CompiledModel> ServingRuntime::model(
    ModelHandle h) const {
  std::shared_ptr<const CompiledModel> plan = plans_.find(h);
  if (plan != nullptr) return plan;
  // lint:allow-throw -- caller bug (bad handle), documented API contract
  throw std::out_of_range("ServingRuntime::model: unknown or evicted handle " +
                          std::to_string(h));
}

size_t ServingRuntime::loaded_count() const { return plans_.size(); }

std::future<ServeResult> ServingRuntime::submit(ModelHandle h, Tensor input,
                                                const SubmitOptions& opts) {
  Pending p;
  p.model = model(h);  // throws out_of_range for a bad handle (caller bug)
  p.handle = h;
  p.input = std::move(input);
  p.enqueue_t = clock_->now();
  if (opts.timeout_s < std::numeric_limits<double>::infinity()) {
    p.deadline = p.enqueue_t + opts.timeout_s;
  }
  std::future<ServeResult> fut = p.promise.get_future();

  // Admission chain: bad input -> breaker -> queue.  Each stage sheds a
  // typed value; nothing on this path throws.
  RejectReason reject = RejectReason::kNone;
  std::string error;
  if (cfg_.validate_at_admission) {
    error = p.model->input_geometry_mismatch(p.input);
    if (!error.empty()) reject = RejectReason::kBadInput;
  }
  if (reject == RejectReason::kNone && cfg_.breaker.failure_threshold > 0) {
    MutexLock lock(health_mu_);
    ModelHealth& hh = health_entry(h);
    switch (hh.breaker.admit(p.enqueue_t)) {
      case AdmitDecision::kShed:
        reject = RejectReason::kUnhealthy;
        ++hh.shed_unhealthy;
        break;
      case AdmitDecision::kProbe:
        p.probe = true;
        break;
      case AdmitDecision::kAdmit:
        break;
    }
  }
  // Read before p can be moved into the queue: the rejection paths below
  // must not touch p's members once std::move(p) is a possibility on ANY
  // branch (bugprone-use-after-move).
  const bool probe = p.probe;
  const double enqueue_t = p.enqueue_t;
  if (reject == RejectReason::kNone) {
    MutexLock lock(mu_);
    if (stopping_) {
      reject = RejectReason::kShutdown;
    } else if (queue_.size() >= cfg_.queue_capacity) {
      reject = RejectReason::kQueueFull;
    } else if (cfg_.per_model_queue_cap > 0) {
      size_t queued = 0;
      for (const Pending& q : queue_) {
        if (q.handle == h) ++queued;
      }
      if (queued >= cfg_.per_model_queue_cap) {
        reject = RejectReason::kQueueFull;
      }
    }
    if (reject == RejectReason::kNone) {
      queue_.push_back(std::move(p));
      queue_high_water_ = std::max(queue_high_water_, queue_.size());
    }
  }
  if (reject != RejectReason::kNone &&
      (probe || reject == RejectReason::kBadInput)) {
    MutexLock lock(health_mu_);
    ModelHealth& hh = health_entry(h);
    // A probe that never reached the queue returns its slot so the next
    // submission can probe instead.
    if (probe) hh.breaker.release_probe();
    if (reject == RejectReason::kBadInput) ++hh.bad_inputs;
  }
  {
    // submitted and its outcome move under ONE lock acquisition, so the
    // conservation invariant holds at every instant, not just at rest.
    MutexLock lock(metrics_mu_);
    ++counters_.submitted;
    switch (reject) {
      case RejectReason::kNone: ++counters_.in_flight; break;
      case RejectReason::kQueueFull: ++counters_.shed_queue_full; break;
      case RejectReason::kShutdown: ++counters_.shed_shutdown; break;
      case RejectReason::kBadInput: ++counters_.shed_bad_input; break;
      case RejectReason::kUnhealthy: ++counters_.shed_unhealthy; break;
      case RejectReason::kDeadline:
      case RejectReason::kExecError:
        break;  // never decided at admission
    }
  }
  if (reject == RejectReason::kNone) {
    queue_cv_.notify_one();
  } else {
    ServeResult r;
    r.rejected = reject;
    r.error = std::move(error);
    r.total_s = clock_->now() - enqueue_t;
    p.promise.set_value(std::move(r));
  }
  return fut;
}

ServeResult ServingRuntime::serve(ModelHandle h, Tensor input,
                                  const SubmitOptions& opts) {
  return submit(h, std::move(input), opts).get();
}

void ServingRuntime::resolve_in_flight_rejected(Pending&& p,
                                                RejectReason reason) {
  if (p.probe) {
    MutexLock lock(health_mu_);
    health_entry(p.handle).breaker.release_probe();
  }
  {
    MutexLock lock(metrics_mu_);
    --counters_.in_flight;
    switch (reason) {
      case RejectReason::kDeadline: ++counters_.shed_deadline; break;
      case RejectReason::kShutdown: ++counters_.shed_shutdown; break;
      default: break;  // exec outcomes are accounted in execute_batch
    }
  }
  ServeResult r;
  r.rejected = reason;
  r.total_s = clock_->now() - p.enqueue_t;
  p.promise.set_value(std::move(r));
}

void ServingRuntime::maybe_inject_fault() {
  if (faults_ == nullptr) return;
  const FaultDecision d = faults_->next_attempt();
  switch (d.kind) {
    case FaultDecision::Kind::kNone:
      return;
    case FaultDecision::Kind::kDelay:
      clock_->sleep_for(d.delay_s);
      return;
    case FaultDecision::Kind::kThrow:
      // lint:allow-throw -- injected chaos: takes the same catch path as a real fault
      throw InjectedFault("injected execution fault (FaultPlan seed " +
                          std::to_string(faults_->config().seed) + ")");
  }
}

void ServingRuntime::record_outcome(ModelHealth& health,
                                    const ExecOutcome& outcome, bool probe,
                                    double now) {
  switch (outcome.reason) {
    case RejectReason::kNone:
      health.breaker.on_success(now);
      break;
    case RejectReason::kExecError:
      ++health.exec_failures;
      health.breaker.on_failure(now);
      break;
    case RejectReason::kBadInput:
      // The client's fault, not the model's: the breaker learns nothing,
      // but a probe slot spent on it frees up for a real probe.
      ++health.bad_inputs;
      if (probe) health.breaker.release_probe();
      break;
    default:
      break;
  }
}

void ServingRuntime::gather_same_model(std::vector<Pending>& batch) {
  const ModelHandle h = batch.front().handle;
  for (auto it = queue_.begin();
       it != queue_.end() &&
       static_cast<int>(batch.size()) < cfg_.max_batch;) {
    if (it->handle == h) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServingRuntime::worker_loop() {
  // Long-lived per-worker execution pool: requests never pay per-call
  // thread spawn.  spec_.threads == 1 (the serving default) keeps it
  // threadless.
  ThreadPool pool(spec_.threads);
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    {
      UniqueLock lock(mu_);
      queue_cv_.wait(lock, [&]() MPIPU_REQUIRES(mu_) {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stopping_) return;  // drained (or aborted): done
        continue;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      gather_same_model(batch);
      if (static_cast<int>(batch.size()) < cfg_.max_batch &&
          cfg_.batch_window_s > 0.0 && !stopping_) {
        // Linger for more same-model arrivals.  Draining skips the window
        // (stopping_ breaks the loop), and every wake re-gathers whatever
        // arrived.
        const auto window_end =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(cfg_.batch_window_s));
        while (static_cast<int>(batch.size()) < cfg_.max_batch &&
               !stopping_) {
          if (queue_cv_.wait_until(lock, window_end) ==
              std::cv_status::timeout) {
            gather_same_model(batch);
            break;
          }
          gather_same_model(batch);
        }
      }
    }
    execute_batch(batch, pool);
  }
}

void ServingRuntime::execute_batch(std::vector<Pending>& batch,
                                   ThreadPool& pool) {
  // Injected window stall: the leader hangs before dispatch, exactly like
  // a genuinely stuck batch -- queued deadlines keep expiring behind it.
  if (faults_ != nullptr) {
    const double stall = faults_->window_stall_s();
    if (stall > 0.0) clock_->sleep_for(stall);
  }
  const double dispatch_t = clock_->now();

  // Dispatch-time deadline shedding: expired requests never execute.
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& p : batch) {
    if (dispatch_t > p.deadline) {
      resolve_in_flight_rejected(std::move(p), RejectReason::kDeadline);
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  // Coalesce identical inputs: twin_of[i] is the first request whose
  // tensor equals request i's (i itself when there is none).  Only first
  // twins execute; every later twin gets a copy of its first twin's report.
  std::vector<size_t> twin_of(live.size());
  std::vector<size_t> last_twin(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    size_t t = 0;
    while (!same_tensor(live[t].input, live[i].input)) ++t;
    twin_of[i] = t;
    last_twin[t] = i;
  }

  const ModelHandle handle = live.front().handle;
  const CompiledModel& model = *live.front().model;

  // Watchdog registration: metrics() can see this dispatch as currently
  // stalled while it runs.
  uint64_t exec_id;
  {
    MutexLock lock(health_mu_);
    exec_id = next_exec_id_++;
    active_execs_.push_back({exec_id, handle, dispatch_t});
  }

  // Each distinct input executes exactly once, on this worker's long-lived
  // pool, in its own try: a failure -- a bad input (admission validation
  // off), an injected fault, a real execution error -- is charged to that
  // input's requests only.  The worker itself never dies.
  std::vector<RunReport> reports(live.size());
  std::vector<ExecOutcome> outcomes(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    if (twin_of[i] != i) continue;
    try {
      maybe_inject_fault();
      reports[i] = model.run(live[i].input, cfg_.run_options, pool);
    } catch (const std::invalid_argument& e) {
      outcomes[i] = {RejectReason::kBadInput, e.what()};
    } catch (const std::exception& e) {
      outcomes[i] = {RejectReason::kExecError, e.what()};
    } catch (...) {
      outcomes[i] = {RejectReason::kExecError, "unknown execution failure"};
    }
  }
  const double done_t = clock_->now();
  const double exec_s = done_t - dispatch_t;
  const bool stalled = cfg_.stall_budget_s > 0.0 && exec_s > cfg_.stall_budget_s;

  uint64_t n_ok = 0, n_exec_err = 0, n_bad = 0, coalesced_ok = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    switch (outcomes[twin_of[i]].reason) {
      case RejectReason::kNone:
        ++n_ok;
        if (twin_of[i] != i) ++coalesced_ok;
        break;
      case RejectReason::kExecError: ++n_exec_err; break;
      case RejectReason::kBadInput: ++n_bad; break;
      default: break;
    }
  }

  // Health bookkeeping: watchdog + breaker, one lock acquisition.
  {
    MutexLock lock(health_mu_);
    for (size_t i = 0; i < active_execs_.size(); ++i) {
      if (active_execs_[i].id == exec_id) {
        active_execs_.erase(active_execs_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
    ModelHealth& hh = health_entry(handle);
    if (stalled) ++hh.stall_events;
    if (exec_s > hh.longest_exec_s) hh.longest_exec_s = exec_s;
    for (size_t i = 0; i < live.size(); ++i) {
      record_outcome(hh, outcomes[twin_of[i]], live[i].probe, done_t);
    }
  }

  // Metrics BEFORE promises: a client whose future just resolved must see
  // its own completion in the very next metrics() snapshot.
  {
    MutexLock lock(metrics_mu_);
    counters_.in_flight -= live.size();
    counters_.completed += n_ok;
    counters_.failed += n_exec_err;
    counters_.shed_bad_input += n_bad;
    counters_.coalesced += coalesced_ok;
    ++counters_.batches;
    if (stalled) ++counters_.watchdog_stalls;
    const size_t b = std::min(live.size(),
                              counters_.batch_size_hist.size() - 1);
    ++counters_.batch_size_hist[b];
    for (size_t i = 0; i < live.size(); ++i) {
      if (outcomes[twin_of[i]].reason == RejectReason::kNone) {
        latencies_.record(done_t - live[i].enqueue_t);
      }
    }
  }

  for (size_t i = 0; i < live.size(); ++i) {
    Pending& p = live[i];
    const size_t t = twin_of[i];
    const ExecOutcome& oc = outcomes[t];
    ServeResult r;
    r.queue_wait_s = dispatch_t - p.enqueue_t;
    r.total_s = done_t - p.enqueue_t;
    if (oc.reason == RejectReason::kNone) {
      r.rejected = RejectReason::kNone;
      r.batch_size = static_cast<int>(live.size());
      r.coalesced = t != i;
      // The last twin of each input moves the report; earlier ones copy.
      if (last_twin[t] == i) {
        r.report = std::move(reports[t]);
      } else {
        r.report = reports[t];
      }
    } else {
      r.rejected = oc.reason;
      r.error = oc.error;
    }
    p.promise.set_value(std::move(r));
  }
}

void ServingRuntime::shutdown(Shutdown mode) {
  MutexLock shutdown_lock(shutdown_mu_);
  std::vector<Pending> dropped;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    if (mode == Shutdown::kAbort) {
      while (!queue_.empty()) {
        dropped.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
  }
  queue_cv_.notify_all();
  for (Pending& p : dropped) {
    resolve_in_flight_rejected(std::move(p), RejectReason::kShutdown);
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

ServerMetrics ServingRuntime::metrics() const {
  ServerMetrics m;
  std::vector<double> lats;
  {
    MutexLock lock(metrics_mu_);
    m = counters_;
    lats = latencies_.snapshot();
  }
  {
    MutexLock lock(mu_);
    m.queue_high_water = queue_high_water_;
  }
  const double now = clock_->now();
  {
    MutexLock lock(health_mu_);
    for (const auto& [handle, hh] : health_) {
      ModelHealthSnapshot s;
      s.handle = handle;
      const auto name_it = model_names_.find(handle);
      if (name_it != model_names_.end()) s.model = name_it->second;
      s.state = hh.breaker.state();
      s.consecutive_failures = hh.breaker.consecutive_failures();
      s.times_opened = hh.breaker.times_opened();
      s.cooldown_remaining_s = hh.breaker.cooldown_remaining(now);
      s.exec_failures = hh.exec_failures;
      s.bad_inputs = hh.bad_inputs;
      s.shed_unhealthy = hh.shed_unhealthy;
      s.stall_events = hh.stall_events;
      s.longest_exec_s = hh.longest_exec_s;
      if (cfg_.stall_budget_s > 0.0) {
        for (const ActiveExec& e : active_execs_) {
          if (e.handle == handle && now - e.start_t > cfg_.stall_budget_s) {
            s.currently_stalled = true;
            break;
          }
        }
      }
      m.models.push_back(std::move(s));
    }
  }
  m.latency = summarize_latencies(std::move(lats));
  m.elapsed_s = now - start_t_;
  m.throughput_rps =
      m.elapsed_s > 0.0 ? static_cast<double>(m.completed) / m.elapsed_s : 0.0;
  m.mean_batch_size =
      m.batches > 0
          ? static_cast<double>(m.completed) / static_cast<double>(m.batches)
          : 0.0;
  return m;
}

}  // namespace mpipu::serve

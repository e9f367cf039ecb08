// perfbench harness: the benchmark's own math (tail rule, serving ladder
// rule, failure fraction), the output digest, an in-memory span tracer, and
// the node-by-node replay of a compiled graph through nn's public functions.
//
// Everything here is benchmark code: it calls the library only through its
// public headers and adds no instrumentation to src/.  selftest.cpp pins
// each rule; main.cpp drives the workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "api/compiled_model.h"
#include "api/graph_model.h"
#include "api/run_report.h"
#include "api/run_spec.h"
#include "common/annotated_mutex.h"
#include "common/thread_pool.h"
#include "nn/conv_plan.h"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Statistics rules.
// ---------------------------------------------------------------------------

/// Median (lower middle for even counts: a value that was measured).
double median(std::vector<double> v);

/// A tail latency under the nearest-rank rule: `value` is the sample at
/// 1-based rank ceil(pct/100 * n), where `pct` is the highest integer
/// percentile that still leaves at least `min_beyond` samples above that
/// rank.  The tail is never reported below the median: when no percentile
/// >= 50 qualifies (n < 2 * min_beyond) the median is reported with
/// pct = 50.  Failed requests enter as +infinity.
struct Tail {
  double value = 0.0;
  int pct = 50;
  size_t beyond = 0;  ///< samples strictly above the reported rank
  size_t n = 0;
};
Tail nearest_rank_tail(std::vector<double> samples, size_t min_beyond = 10);

/// One rate of the serving ladder, as measured.
struct Rung {
  double rate_rps = 0.0;
  /// Per-request latency from its due time; +infinity for a request that
  /// was shed or failed (it misses any limit).
  std::vector<double> latencies;
  /// Requests accepted but unresolved when the last request was submitted.
  uint64_t backlog_at_end = 0;
  /// Requests the server can have in execution at once (workers x
  /// max_batch): pending work that is not a queue.
  uint64_t in_service = 0;
};

/// A rung passes when its tail latency meets `limit_s` and its backlog did
/// not grow: when the schedule ends, at most the requests in execution plus
/// one limit's worth of arrivals (rate * limit) may be pending -- a longer
/// queue cannot drain within the limit.
bool rung_passes(const Rung& r, double limit_s);

/// Highest rate of an ascending ladder whose rung passes, stopping at the
/// first rung that fails (a pass above a failure is noise, not capacity).
/// 0 when the lowest rung fails.
double ladder_max_rps(const std::vector<Rung>& ascending, double limit_s);

/// failed / attempted; nothing attempted counts as total failure.
double failed_frac(uint64_t failed, uint64_t attempted);

// ---------------------------------------------------------------------------
// Digests.
// ---------------------------------------------------------------------------

/// FNV-1a over an output tensor's shape and bytes plus every per-layer
/// stats counter: two runs with equal digests produced identical outputs
/// AND identical datapath work.
uint64_t report_digest(const mpipu::RunReport& r);
std::string hex64(uint64_t v);

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  int request = -1;  ///< spans of one forward / request share this id
};

/// In-memory span store.  begin()/end() are safe from any thread (the
/// replay records nodes from pool workers); write_chrome_json() dumps the
/// spans as Chrome trace events at exit.
class Tracer {
 public:
  int begin(std::string name, int parent, int request);
  void end(int id);
  /// A span whose interval is already known (serving spans are derived from
  /// a request's recorded timestamps).
  int add(std::string name, double start_s, double end_s, int parent,
          int request);
  std::vector<Span> spans() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable mpipu::Mutex mu_;
  std::vector<Span> spans_ MPIPU_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Node-by-node replay of CompiledModel through nn's public functions.
// ---------------------------------------------------------------------------

/// The replay's own compile of a graph: resolved precisions and ConvPlans
/// built exactly as CompiledModel::compile builds them.
struct ReplayModel {
  struct ConvNode {
    mpipu::LayerPrecision precision;
    mpipu::ConvPlan<mpipu::PreparedFp16> fp16_plan;
    mpipu::ConvPlan<mpipu::PreparedInt> int_plan;
    mpipu::QuantParams qw{};
    bool int_digits = true;
    double macs = 0.0;   ///< in-bounds multiply-accumulates per forward
    int out_pixels = 0;  ///< conv output pixels (before post-op pooling)
  };
  std::vector<mpipu::GraphNode> nodes;
  mpipu::GraphTopology topo;
  mpipu::RunSpec spec;
  std::vector<ConvNode> conv;  ///< indexed by node id (joins: unused)

  double prepare_filters_s = 0.0;  ///< prepare_*_planes over filter banks
  double plan_build_s = 0.0;       ///< ConvPlan::build
  uint64_t plan_bytes = 0;         ///< packed planes + gather offsets
};

ReplayModel replay_compile(const mpipu::GraphModel& g,
                           const mpipu::RunSpec& spec, int input_h,
                           int input_w, Tracer* tracer);

/// Per-node timings of one replayed forward (seconds), by node id.
struct NodeTiming {
  double prep_s = 0.0;  ///< activation FP16 planes / INT quantize + pack
  double exec_s = 0.0;  ///< execute_*_plan
  double join_s = 0.0;  ///< tensor_add / channel_concat
  double post_s = 0.0;  ///< apply_post_ops
};

struct ReplayResult {
  mpipu::Tensor output;
  /// Per executed node in topo order (input excluded), as RunReport.layers.
  std::vector<mpipu::DatapathStats> stats;
  std::vector<NodeTiming> timing;  ///< by node id
  double waves_s = 0.0;  ///< sum of wave wall times (the traced node sum)
  double wall_s = 0.0;   ///< whole replayed forward
};

/// Replays CompiledModel::run(input, opts): a per-call pool of `threads`
/// workers and per-slot datapaths, then single-node waves get the whole
/// pool and multi-node waves run one node per worker on a private inline
/// pool with a fresh datapath -- the same dispatch, so outputs and per-node
/// stats are byte-identical to the compiled run.
ReplayResult replay_forward(const ReplayModel& m, const mpipu::Tensor& input,
                            int threads, Tracer* tracer, int request);

/// True when the replay's output bytes and per-node stats equal the
/// report's (layer order is topo order in both).
bool replay_matches(const ReplayResult& r, const mpipu::RunReport& report);

}  // namespace perfbench

// PlanCache: the one compiled-plan cache of the repo -- the
// compile-on-first-use cache behind Session::run and the load() registry
// of serve::ServingRuntime.
//
// An exact-match LRU of CompiledModels compiled against one RunSpec:
//
//   * a hit needs the same input dims AND CompiledModel::matches (name,
//     tensor statistics and node shapes first, then the weight bytes -- a
//     memcmp-grade pass, cheaper than hashing the weights on every lookup)
//     and refreshes the entry's recency;
//   * a miss compiles under the lock, so concurrent first uses of one model
//     compile it once (the loser re-finds the winner's entry), and BEFORE
//     any eviction, so a compile that throws (a bad policy, an invalid
//     topology) costs no cached plan;
//   * at capacity the least recently used plan goes;
//   * every compiled plan gets a handle, and handles are never reused: a
//     stale handle can never resolve to another model's plan;
//   * plans are shared_ptrs, so an evicted plan stays alive for whoever
//     still holds it (a run in progress, a queued serving request).
//
// The cache keeps no copy of the source model: matching reads the nodes
// the plan itself holds.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "api/compiled_model.h"
#include "api/graph_model.h"
#include "api/run_spec.h"
#include "common/annotated_mutex.h"

namespace mpipu {

class PlanCache {
 public:
  using Handle = int;
  struct Entry {
    Handle handle = -1;
    std::shared_ptr<const CompiledModel> plan;
  };

  /// Plans are compiled against `spec`; at most `capacity` (>= 1) are kept.
  PlanCache(RunSpec spec, size_t capacity);

  /// The plan of `model` at the given input dims: the cached one, or a new
  /// one compiled now.  Throws whatever CompiledModel::compile throws, and
  /// then leaves the cache exactly as it was.
  Entry get(const GraphModel& model, int input_h, int input_w);
  /// The plan behind `h`, or nullptr once it is evicted (or was never
  /// issued).  Does not refresh recency.
  std::shared_ptr<const CompiledModel> find(Handle h) const;
  size_t size() const;

 private:
  const RunSpec spec_;
  const size_t capacity_;
  mutable Mutex mu_;
  std::vector<Entry> entries_ MPIPU_GUARDED_BY(mu_);  ///< LRU: most recent last
  Handle next_handle_ MPIPU_GUARDED_BY(mu_) = 0;
};

}  // namespace mpipu

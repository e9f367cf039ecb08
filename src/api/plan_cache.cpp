#include "api/plan_cache.h"

#include <algorithm>
#include <utility>

namespace mpipu {

PlanCache::PlanCache(RunSpec spec, size_t capacity)
    : spec_(std::move(spec)), capacity_(std::max<size_t>(capacity, 1)) {}

PlanCache::Entry PlanCache::get(const GraphModel& model, int input_h,
                                int input_w) {
  MutexLock lock(mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    const CompiledModel& plan = *entries_[i].plan;
    if (plan.input_h() == input_h && plan.input_w() == input_w &&
        plan.matches(model)) {
      // Refresh recency: eviction takes the front.
      std::rotate(entries_.begin() + static_cast<ptrdiff_t>(i),
                  entries_.begin() + static_cast<ptrdiff_t>(i) + 1,
                  entries_.end());
      return entries_.back();
    }
  }
  auto plan = std::make_shared<const CompiledModel>(
      CompiledModel::compile(model, spec_, {input_h, input_w}));
  if (entries_.size() >= capacity_) entries_.erase(entries_.begin());
  entries_.push_back({next_handle_++, std::move(plan)});
  return entries_.back();
}

std::shared_ptr<const CompiledModel> PlanCache::find(Handle h) const {
  MutexLock lock(mu_);
  for (const Entry& e : entries_) {
    if (e.handle == h) return e.plan;
  }
  return nullptr;
}

size_t PlanCache::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace mpipu

#include "ftm/runtime/plan_cache.hpp"

namespace ftm::runtime {

std::size_t PlanCache::size() const {
  std::shared_lock lock(mu_);
  return plans_.size();
}

}  // namespace ftm::runtime

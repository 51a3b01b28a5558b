// Shape-keyed cache of GEMM execution plans (strategy + dynamically
// adjusted blocks), extracted from the per-call dispatch FtimmEngine used
// to run on every sgemm(): a repeated shape skips choose_strategy and the
// block adjuster entirely and goes straight to sgemm_planned(). The
// micro-kernels a plan needs are memoized in the engines' shared
// KernelCache, so a plan hit also means no kernel generation.
//
// Thread-safe: a hit takes only a shared lock, and the hit/miss counters
// are atomics so the hot path never writes under it. A miss re-checks the
// key under the write lock and plans there, so threads missing the same
// key together plan it once and count one miss: misses == distinct keys.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <shared_mutex>

#include "ftm/core/ftimm.hpp"

namespace ftm::runtime {

/// Everything plan selection depends on. bandwidth_share, pingpong, and
/// functional mode affect execution cost only, never the chosen plan, so
/// they are deliberately not part of the key.
struct PlanKey {
  std::size_t m = 0, n = 0, k = 0;
  int cores = 8;
  bool dynamic_blocks = true;
  core::Strategy force = core::Strategy::Auto;
  /// Tuned plans are dtype-keyed (ISSUE 10): an F16 request must not
  /// reuse a plan the provider produced for the F32 class.
  kernelgen::DType dtype = kernelgen::DType::F32;

  static PlanKey of(std::size_t m, std::size_t n, std::size_t k,
                    const core::FtimmOptions& opt) {
    return PlanKey{m,         n,         k,       opt.cores,
                   opt.dynamic_blocks,   opt.force, opt.dtype};
  }

  friend bool operator<(const PlanKey& a, const PlanKey& b) {
    return std::tie(a.m, a.n, a.k, a.cores, a.dynamic_blocks, a.force,
                    a.dtype) < std::tie(b.m, b.n, b.k, b.cores,
                                        b.dynamic_blocks, b.force, b.dtype);
  }
};

class PlanCache {
 public:
  /// The cached plan for `key`, counting a hit (and setting *hit); on a
  /// miss, `plan()` computes it once under the write lock, it is cached,
  /// and one miss is counted.
  template <class PlanFn>
  core::GemmPlan get_or_plan(const PlanKey& key, PlanFn&& plan, bool* hit);

  std::size_t size() const;
  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }

 private:
  mutable std::shared_mutex mu_;
  std::map<PlanKey, core::GemmPlan> plans_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

template <class PlanFn>
core::GemmPlan PlanCache::get_or_plan(const PlanKey& key, PlanFn&& plan,
                                      bool* hit) {
  {
    std::shared_lock lock(mu_);
    const auto it = plans_.find(key);
    if (it != plans_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      *hit = true;
      return it->second;
    }
  }
  std::unique_lock lock(mu_);
  auto it = plans_.find(key);
  if (it != plans_.end()) {  // planned by a racing miss meanwhile
    hits_.fetch_add(1, std::memory_order_relaxed);
    *hit = true;
    return it->second;
  }
  it = plans_.emplace(key, plan()).first;
  misses_.fetch_add(1, std::memory_order_relaxed);
  *hit = false;
  return it->second;
}

}  // namespace ftm::runtime

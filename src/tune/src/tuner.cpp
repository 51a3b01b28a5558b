#include "ftm/tune/tuner.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "ftm/core/blocking.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/util/assert.hpp"

namespace ftm::tune {

namespace {

/// One point of the search space: per-strategy *seed* blocks (what the
/// cache stores; the dynamic adjuster binds them to the concrete shape)
/// plus the DMA buffering depth.
struct Cand {
  core::Strategy strategy = core::Strategy::Auto;
  core::MBlocks mb;
  core::KBlocks kb;
  core::TBlocks tb;
  int dma = 2;
};

/// A tunable axis: a fixed candidate grid plus get/set accessors into a
/// Cand. Grids are fixed and iterated in order — determinism by design.
struct Axis {
  const char* name;
  std::vector<std::size_t> values;
  std::function<std::size_t(const Cand&)> get;
  std::function<void(Cand&, std::size_t)> set;
};

std::vector<Axis> axes_for(core::Strategy s, bool half) {
  using S = core::Strategy;
  std::vector<Axis> ax;
  const Axis dma{"dma_buffers",
                 {1, 2},
                 [](const Cand& c) { return static_cast<std::size_t>(c.dma); },
                 [](Cand& c, std::size_t v) { c.dma = static_cast<int>(v); }};
  if (half) {
    // The half engine derives its own capacity blocks from the 2-byte
    // operand footprints — only the DMA buffering depth is searchable.
    ax.push_back(dma);
    return ax;
  }
  switch (s) {
    case S::ParallelM:
      ax.push_back({"ms",
                    {6, 8, 10, 12, 14, 16},
                    [](const Cand& c) { return c.mb.ms; },
                    [](Cand& c, std::size_t v) { c.mb.ms = v; }});
      ax.push_back({"ka",
                    {128, 192, 256, 320, 384, 448, 512, 640, 768, 864, 1024},
                    [](const Cand& c) { return c.mb.ka; },
                    [](Cand& c, std::size_t v) { c.mb.ka = v; }});
      break;
    case S::ParallelK:
      ax.push_back({"ms",
                    {6, 8, 10, 12, 14, 16},
                    [](const Cand& c) { return c.kb.ms; },
                    [](Cand& c, std::size_t v) { c.kb.ms = v; }});
      ax.push_back({"ka",
                    {64, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048},
                    [](const Cand& c) { return c.kb.ka; },
                    [](Cand& c, std::size_t v) { c.kb.ka = v; }});
      ax.push_back({"reduce_rows",
                    {16, 32, 64, 128, 256},
                    [](const Cand& c) { return c.kb.reduce_rows; },
                    [](Cand& c, std::size_t v) { c.kb.reduce_rows = v; }});
      ax.push_back({"ng",
                    {96, 128, 192, 256, 384, 512},
                    [](const Cand& c) { return c.kb.ng; },
                    [](Cand& c, std::size_t v) { c.kb.ng = v; }});
      ax.push_back({"mg",
                    {128, 256, 512, 1024, 2048},
                    [](const Cand& c) { return c.kb.mg; },
                    [](Cand& c, std::size_t v) { c.kb.mg = v; }});
      break;
    default:  // TGemm
      ax.push_back({"ms",
                    {4, 6, 8, 10, 12},
                    [](const Cand& c) { return c.tb.ms; },
                    [](Cand& c, std::size_t v) { c.tb.ms = v; }});
      ax.push_back({"mg",
                    {128, 256, 384, 512, 768, 1024},
                    [](const Cand& c) { return c.tb.mg; },
                    [](Cand& c, std::size_t v) { c.tb.mg = v; }});
      ax.push_back({"kg",
                    {128, 256, 384, 512, 768, 1024},
                    [](const Cand& c) { return c.tb.kg; },
                    [](Cand& c, std::size_t v) { c.tb.kg = v; }});
      break;
  }
  ax.push_back(dma);
  return ax;
}

double min_cmr(const core::GemmPlan& p) {
  const int cores = p.cores;
  switch (p.strategy) {
    case core::Strategy::ParallelM:
      return std::min(
          core::cmr_m_outer(p.mblocks.ma, p.mblocks.kg, p.mblocks.ng, cores),
          core::cmr_m_inner(p.mblocks.ma, p.mblocks.ka, p.mblocks.na,
                            cores));
    case core::Strategy::ParallelK:
      return std::min(
          core::cmr_k_outer(p.kblocks.mg, p.kblocks.ka, p.kblocks.ng, cores),
          core::cmr_k_inner(p.kblocks.ma, p.kblocks.ka, p.kblocks.na,
                            cores));
    default: return 0.0;  // TGEMM has no CMR equation; no CMR pruning
  }
}

}  // namespace

Tuner::Tuner(const isa::MachineConfig& mc, const TunerOptions& opt)
    : mc_(mc), opt_(opt), engine_(mc) {
  FTM_EXPECTS(opt_.cores >= 1 && opt_.cores <= mc.cores_per_cluster);
  FTM_EXPECTS(opt_.budget >= 1 && opt_.rounds >= 1);
  FTM_EXPECTS(opt_.cmr_prune >= 0 && opt_.cmr_prune < 1.0);
}

std::uint64_t Tuner::evaluate(const core::GemmPlan& plan, std::size_t m,
                              std::size_t n, std::size_t k) {
  core::FtimmOptions o;
  o.cores = opt_.cores;
  o.dtype = opt_.dtype;
  o.functional = false;  // lane-clock makespan only — no data movement
  const core::GemmResult r =
      engine_.sgemm_planned(core::GemmInput::shape_only(m, n, k), plan, o);
  return r.cycles;
}

TuneReport Tuner::tune(std::size_t m, std::size_t n, std::size_t k) {
  FTM_EXPECTS(m >= 1 && n >= 1 && k >= 1);
  FTM_TRACE_COUNTER("tune.shapes", 1);
  TuneReport rep;

  // Binds a candidate's seed blocks to the concrete shape: the same
  // adjuster + capacity audit the cache lookup runs, so everything the
  // search accepts is replayable from the persisted seed.
  const auto bind = [&](const Cand& c) -> std::optional<core::GemmPlan> {
    core::GemmPlan p;
    p.strategy = c.strategy;
    p.cores = opt_.cores;
    p.dma_buffers = c.dma;
    try {
      switch (c.strategy) {
        case core::Strategy::ParallelM:
          p.mblocks = core::adjust_m_blocks(c.mb, m, n, k, mc_, opt_.cores);
          break;
        case core::Strategy::ParallelK:
          p.kblocks = core::adjust_k_blocks(c.kb, m, n, k, mc_, opt_.cores);
          break;
        default:
          p.tblocks = c.tb;
          core::check_t_blocks(p.tblocks, mc_);
          break;
      }
    } catch (const ContractViolation&) {
      return std::nullopt;  // capacity audit pruned it
    }
    return p;
  };

  // Analytic seeds (dispatcher defaults): the starting point of every
  // descent and the first candidate evaluated.
  const auto seed_for = [&](core::Strategy s) {
    Cand c;
    c.strategy = s;
    c.mb = core::initial_m_blocks(mc_);
    c.kb = core::initial_k_blocks(mc_);
    c.tb = core::TBlocks{};
    c.dma = 2;
    return c;
  };

  const core::Strategy def_strategy = engine_.choose_strategy(m, n, k);
  const Cand def_cand = seed_for(def_strategy);
  const auto def_plan = bind(def_cand);
  FTM_ASSERT(def_plan.has_value());  // the paper defaults always bind
  const std::uint64_t def_cycles = evaluate(*def_plan, m, n, k);
  ++rep.evaluated;
  FTM_TRACE_COUNTER("tune.search_steps", 1);

  std::uint64_t best_cycles = def_cycles;
  Cand best = def_cand;

  // Race the strategies, dispatcher's pick first (it gets the budget's
  // best coverage and anchors the zero-regression guarantee). Half
  // requests are routed to the dedicated engine regardless of the planned
  // strategy, so racing other strategies would re-evaluate the same
  // configuration.
  const bool half = kernelgen::is_half(opt_.dtype);
  std::vector<core::Strategy> order{def_strategy};
  if (!half) {
    for (core::Strategy s :
         {core::Strategy::ParallelM, core::Strategy::ParallelK,
          core::Strategy::TGemm}) {
      if (s != def_strategy) order.push_back(s);
    }
  }

  for (const core::Strategy s : order) {
    Cand cur = seed_for(s);
    std::uint64_t cur_cycles;
    if (s == def_strategy) {
      cur_cycles = def_cycles;
    } else {
      const auto p = bind(cur);
      if (!p) {
        ++rep.pruned;
        FTM_TRACE_COUNTER("tune.pruned", 1);
        continue;
      }
      if (rep.evaluated >= opt_.budget) break;
      cur_cycles = evaluate(*p, m, n, k);
      ++rep.evaluated;
      FTM_TRACE_COUNTER("tune.search_steps", 1);
    }
    // CMR reference: the analytic seed's score for this strategy.
    double cmr_ref = 0.0;
    if (opt_.cmr_prune > 0) {
      if (const auto p = bind(cur)) cmr_ref = min_cmr(*p);
    }

    const std::vector<Axis> axes = axes_for(s, half);
    for (int round = 0; round < opt_.rounds; ++round) {
      bool improved = false;
      for (const Axis& axis : axes) {
        for (const std::size_t v : axis.values) {
          if (v == axis.get(cur)) continue;
          Cand cand = cur;
          axis.set(cand, v);
          const auto p = bind(cand);
          if (!p) {
            ++rep.pruned;
            FTM_TRACE_COUNTER("tune.pruned", 1);
            continue;
          }
          if (cmr_ref > 0 && min_cmr(*p) < opt_.cmr_prune * cmr_ref) {
            ++rep.pruned;
            FTM_TRACE_COUNTER("tune.pruned", 1);
            continue;
          }
          if (rep.evaluated >= opt_.budget) goto strategy_done;
          const std::uint64_t cycles = evaluate(*p, m, n, k);
          ++rep.evaluated;
          FTM_TRACE_COUNTER("tune.search_steps", 1);
          if (cycles < cur_cycles) {  // strict: ties keep the earlier point
            cur_cycles = cycles;
            cur = cand;
            improved = true;
          }
        }
      }
      if (!improved) break;
    }
  strategy_done:
    if (cur_cycles < best_cycles) {
      best_cycles = cur_cycles;
      best = cur;
    }
    if (rep.evaluated >= opt_.budget) break;
  }

  TunedEntry& e = rep.entry;
  e.cls = ShapeClass::of(m, n, k, opt_.cores, opt_.dtype);
  e.strategy = best.strategy;
  e.mblocks = best.mb;
  e.kblocks = best.kb;
  e.tblocks = best.tb;
  e.dma_buffers = best.dma;
  e.m = m;
  e.n = n;
  e.k = k;
  e.tuned_cycles = best_cycles;
  e.default_cycles = def_cycles;
  e.seed = opt_.seed;
  return rep;
}

std::vector<TuneReport> Tuner::tune_into(TuningCache& cache,
                                         const std::vector<Shape>& shapes) {
  std::vector<TuneReport> reports;
  reports.reserve(shapes.size());
  for (const Shape& s : shapes) {
    reports.push_back(tune(s.m, s.n, s.k));
    cache.put(reports.back().entry);
  }
  return reports;
}

}  // namespace ftm::tune

#include <algorithm>
#include <vector>

#include "ftm/core/strategies.hpp"
#include "strategy_common.hpp"

namespace ftm::core {

using detail::RunCtx;

// Algorithm 4: M-dimension parallelization.
//   for i (n_g blocks of N)
//     for j (k_g blocks of K)           <- B panel -> GSM, ping-pong
//       for t (m_a blocks of M) PARALLEL over cores
//         for ii (n_a blocks of n_g)
//           C tile (m_a x n_a) -> AM
//           for jj (k_a blocks of k_g)  <- B_a GSM -> AM, ping-pong
//             for tt (m_s slices)       <- A_s DDR -> SM, ping-pong
//               micro-kernel (exact n_a, no padding)
//           C tile -> DDR
//
// One nest for every dtype: only the per-dtype storage values of
// kernelgen/spec.hpp differ — A element bytes, stored B rows (a half-format
// row is one word per column holding a k pair), C accumulator bytes, and
// the AM pitch. All byte counts below are derived from them.
GemmResult detail::run_strategy_m(sim::Cluster& cl,
                                  kernelgen::KernelCache& cache,
                                  const MOperands& in, const MBlocks& mb,
                                  const FtimmOptions& opt) {
  check_m_blocks(mb, cl.machine(), in.dtype);
  RunCtx ctx(cl, cache, opt, in.dtype);
  const bool fn = ctx.fn;
  const int P = opt.cores;
  const std::size_t M = in.m, N = in.n, K = in.k;
  const std::size_t ab = kernelgen::elem_bytes(in.dtype);
  const std::size_t kr = kernelgen::k_per_b_row(in.dtype);
  const std::size_t bb = ab * kr;  // one stored B word
  const std::size_t cb = kernelgen::acc_bytes(in.dtype);
  const std::size_t pitch_max = kernelgen::am_row_bytes(mb.na, in.dtype);

  // Host addresses of operand elements (functional mode only).
  auto a_at = [&](std::size_t r, std::size_t c) -> const std::uint8_t* {
    if (!fn) return nullptr;
    return static_cast<const std::uint8_t*>(in.a) + (r * in.lda + c) * ab;
  };
  auto b_at = [&](std::size_t row, std::size_t c) -> const std::uint8_t* {
    if (!fn) return nullptr;
    return static_cast<const std::uint8_t*>(in.b) + (row * in.ldb + c) * bb;
  };
  auto c_at = [&](std::size_t r, std::size_t c) -> std::uint8_t* {
    if (!fn) return nullptr;
    return static_cast<std::uint8_t*>(in.c) + (r * in.ldc + c) * cb;
  };

  // --- Provisioning ---
  sim::Region bg[2];
  for (auto& r : bg) r = cl.gsm().alloc(mb.kg / kr * mb.ng * bb);
  struct PerCore {
    sim::Region ca, ba[2], as[2];
  };
  std::vector<PerCore> pc(P);
  for (int c = 0; c < P; ++c) {
    pc[c].ca = cl.core(c).am().alloc(mb.ma * pitch_max);
    for (auto& r : pc[c].ba) r = cl.core(c).am().alloc(mb.ka / kr * pitch_max);
    for (auto& r : pc[c].as) r = cl.core(c).sm().alloc(mb.ms * mb.ka * ab);
  }

  struct Panel {
    std::size_t i0, ng_t, j0, kg_t;
  };
  std::vector<Panel> panels;
  for (std::size_t i0 = 0; i0 < N; i0 += mb.ng) {
    for (std::size_t j0 = 0; j0 < K; j0 += mb.kg) {
      panels.push_back({i0, std::min(mb.ng, N - i0), j0,
                        std::min(mb.kg, K - j0)});
    }
  }

  auto load_bg = [&](std::size_t idx) -> sim::DmaHandle {
    const Panel& p = panels[idx];
    sim::DmaRequest req;
    req.route = sim::DmaRoute::DdrToSpm;
    req.rows = p.kg_t / kr;
    req.row_bytes = p.ng_t * bb;
    req.src_stride = in.ldb * bb;
    req.dst_stride = p.ng_t * bb;
    // Shared destination: every core reads this GSM panel, so the copy is
    // serialized against all deferred per-core work (dma_shared).
    return ctx.dma_shared(
        0, req, b_at(p.j0 / kr, p.i0),
        fn ? cl.gsm().raw(bg[idx % 2].offset, p.kg_t / kr * p.ng_t * bb)
           : nullptr);
  };

  const std::size_t ntb = (M + mb.ma - 1) / mb.ma;  // parallel t blocks
  ctx.set_workers(ntb);

  std::vector<sim::DmaHandle> bg_handle(panels.size());
  if (!panels.empty()) bg_handle[0] = load_bg(0);

  for (std::size_t pi = 0; pi < panels.size(); ++pi) {
    const Panel& p = panels[pi];
    if (pi + 1 < panels.size()) bg_handle[pi + 1] = load_bg(pi + 1);
    const std::uint64_t bg_ready = cl.timeline(0).done_time(bg_handle[pi]);
    const std::size_t bg_off = bg[pi % 2].offset;

    for (int core = 0; core < P; ++core) {
      auto& tl = cl.timeline(core);
      tl.advance_to(bg_ready);
      auto& am = cl.core(core).am();
      auto& sm = cl.core(core).sm();

      for (std::size_t tb = 0; tb < ntb; ++tb) {
        if (!detail::owns(core, tb, P)) continue;
        const std::size_t t0 = tb * mb.ma;
        const std::size_t ma_t = std::min(mb.ma, M - t0);

        for (std::size_t ii = 0; ii < p.ng_t; ii += mb.na) {
          const std::size_t na_t = std::min(mb.na, p.ng_t - ii);
          const std::size_t pitch = kernelgen::am_row_bytes(na_t, in.dtype);
          const std::uint64_t ph0 = ctx.phase_begin(core);

          // C tile in.
          sim::DmaRequest creq;
          creq.route = sim::DmaRoute::DdrToSpm;
          creq.rows = ma_t;
          creq.row_bytes = na_t * cb;
          creq.src_stride = in.ldc * cb;
          creq.dst_stride = pitch;
          const auto ch = ctx.dma(
              core, creq, c_at(t0, p.i0 + ii),
              fn ? am.raw(pc[core].ca.offset, ma_t * pitch) : nullptr);

          // B_a tiles from GSM, ping-ponged over jj.
          const std::size_t njj = (p.kg_t + mb.ka - 1) / mb.ka;
          auto load_ba = [&](std::size_t jb) -> sim::DmaHandle {
            const std::size_t jj = jb * mb.ka;
            const std::size_t rows = std::min(mb.ka, p.kg_t - jj) / kr;
            sim::DmaRequest req;
            req.route = sim::DmaRoute::GsmToSpm;
            req.rows = rows;
            req.row_bytes = na_t * bb;
            req.src_stride = p.ng_t * bb;
            req.dst_stride = pitch;
            return ctx.dma(
                core, req,
                fn ? cl.gsm().raw(bg_off + (jj / kr * p.ng_t + ii) * bb,
                                  ((rows - 1) * p.ng_t + na_t) * bb)
                   : nullptr,
                fn ? am.raw(pc[core].ba[jb % 2].offset, rows * pitch)
                   : nullptr);
          };
          sim::DmaHandle bh = load_ba(0);
          ctx.wait(core, ch);

          for (std::size_t jb = 0; jb < njj; ++jb) {
            const std::size_t jj = jb * mb.ka;
            const std::size_t ka_t = std::min(mb.ka, p.kg_t - jj);
            ctx.wait(core, bh);
            if (jb + 1 < njj) bh = load_ba(jb + 1);

            // A_s slices from DDR, ping-ponged over tt.
            const std::size_t slices = (ma_t + mb.ms - 1) / mb.ms;
            auto load_as = [&](std::size_t s) -> sim::DmaHandle {
              const std::size_t tt = s * mb.ms;
              const std::size_t mrows = std::min(mb.ms, ma_t - tt);
              sim::DmaRequest req;
              req.route = sim::DmaRoute::DdrToSpm;
              req.rows = mrows;
              req.row_bytes = ka_t * ab;
              req.src_stride = in.lda * ab;
              req.dst_stride = ka_t * ab;
              return ctx.dma(
                  core, req, a_at(t0 + tt, p.j0 + jj),
                  fn ? sm.raw(pc[core].as[s % 2].offset, mrows * ka_t * ab)
                     : nullptr);
            };
            sim::DmaHandle ah = load_as(0);
            for (std::size_t s = 0; s < slices; ++s) {
              const std::size_t tt = s * mb.ms;
              const std::size_t mrows = std::min(mb.ms, ma_t - tt);
              ctx.wait(core, ah);
              if (s + 1 < slices) ah = load_as(s + 1);
              kernelgen::KernelSpec spec;
              spec.ms = static_cast<int>(mrows);
              spec.ka = static_cast<int>(ka_t);
              spec.na = static_cast<int>(na_t);
              spec.dtype = in.dtype;
              const auto& uk = ctx.kernel_for(spec);
              ctx.kernel(
                  core, uk,
                  fn ? sm.raw(pc[core].as[s % 2].offset, mrows * ka_t * ab)
                     : nullptr,
                  fn ? am.raw(pc[core].ba[jb % 2].offset,
                              ka_t / kr * pitch)
                     : nullptr,
                  fn ? am.raw(pc[core].ca.offset + tt * pitch, mrows * pitch)
                     : nullptr);
            }
          }

          // C tile out.
          sim::DmaRequest oreq;
          oreq.route = sim::DmaRoute::SpmToDdr;
          oreq.rows = ma_t;
          oreq.row_bytes = na_t * cb;
          oreq.src_stride = pitch;
          oreq.dst_stride = in.ldc * cb;
          const auto oh = ctx.dma(
              core, oreq,
              fn ? am.raw(pc[core].ca.offset, ma_t * pitch) : nullptr,
              c_at(t0, p.i0 + ii));
          ctx.wait(core, oh);
          ctx.phase_end(core, "c-tile", ph0);
        }
      }
    }
  }

  return ctx.finish(M, N, K, Strategy::ParallelM);
}

GemmResult run_strategy_m(sim::Cluster& cl, kernelgen::KernelCache& cache,
                          const GemmInput& in, const MBlocks& mb,
                          const FtimmOptions& opt) {
  detail::MOperands ops;
  ops.m = in.m;
  ops.n = in.n;
  ops.k = in.k;
  ops.a = in.a.data();
  ops.b = in.b.data();
  ops.c = in.c.data();
  ops.lda = in.a.ld();
  ops.ldb = in.b.ld();
  ops.ldc = in.c.ld();
  return detail::run_strategy_m(cl, cache, ops, mb, opt);
}

}  // namespace ftm::core

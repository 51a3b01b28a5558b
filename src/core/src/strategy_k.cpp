#include <algorithm>
#include <cstring>
#include <vector>

#include "ftm/core/strategies.hpp"
#include "strategy_common.hpp"

namespace ftm::core {

using detail::RunCtx;

// Algorithm 5: K-dimension parallelization with GSM-based reduction.
//   for i (m_g blocks of M)
//     for j (n_g blocks of N)
//       C panel -> GSM (the original C values)
//       for ii (m_a blocks), jj (n_a blocks):
//         every core zeroes its AM partial C_a
//         for t (k_a blocks of K) PARALLEL over cores
//           B_a <- B[t..][j+jj..]     (DDR -> AM, ping-pong)
//           for u (m_s slices)        (A_s DDR -> SM, ping-pong)
//             C_a[u] += A_s x B_a
//         cores stage C_a partials into GSM; core 0 accumulates original C
//         + all partials chunk-wise and stores the block to DDR
GemmResult run_strategy_k(sim::Cluster& cl, kernelgen::KernelCache& cache,
                          const GemmInput& in, const KBlocks& kb,
                          const FtimmOptions& opt) {
  check_k_blocks(kb, cl.machine());
  RunCtx ctx(cl, cache, opt);
  const bool fn = ctx.fn;
  const int P = opt.cores;
  const std::size_t M = in.m, N = in.n, K = in.k;
  const std::size_t pitch_max = am_pitch_floats(kb.na);

  // --- Provisioning ---
  sim::Region cg = cl.gsm().alloc(kb.mg * kb.ng * sizeof(float));
  std::vector<sim::Region> stage(P);
  for (int c = 0; c < P; ++c)
    stage[c] = cl.gsm().alloc(kb.ma * pitch_max * sizeof(float));
  struct PerCore {
    sim::Region ca, ba[2], as[2];
  };
  std::vector<PerCore> pc(P);
  for (int c = 0; c < P; ++c) {
    pc[c].ca = cl.core(c).am().alloc(kb.ma * pitch_max * sizeof(float));
    for (auto& r : pc[c].ba)
      r = cl.core(c).am().alloc(kb.ka * pitch_max * sizeof(float));
    for (auto& r : pc[c].as)
      r = cl.core(c).sm().alloc(kb.ms * kb.ka * sizeof(float));
  }
  // Reduction chunk buffers. The serial scheme only uses core 0's pair;
  // the tree scheme needs them on every core.
  std::vector<sim::Region> racc_r(P), rpart_r(P);
  for (int c = 0; c < P; ++c) {
    racc_r[c] =
        cl.core(c).am().alloc(kb.reduce_rows * pitch_max * sizeof(float));
    rpart_r[c] =
        cl.core(c).am().alloc(kb.reduce_rows * pitch_max * sizeof(float));
  }
  const sim::Region racc = racc_r[0];
  const sim::Region rpart = rpart_r[0];

  const std::size_t nkb = (K + kb.ka - 1) / kb.ka;  // parallel k blocks
  ctx.set_workers(nkb);
  // Cores that actually receive k blocks (round-robin: a contiguous
  // prefix); only these stage partials, and only these are reduced.
  const int W = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(P), nkb));

  for (std::size_t i0 = 0; i0 < M; i0 += kb.mg) {
    const std::size_t mg_t = std::min(kb.mg, M - i0);
    for (std::size_t j0 = 0; j0 < N; j0 += kb.ng) {
      const std::size_t ng_t = std::min(kb.ng, N - j0);

      // Original C panel into GSM (core 0's engine; readers wait below).
      sim::DmaRequest cgr;
      cgr.route = sim::DmaRoute::DdrToSpm;
      cgr.rows = mg_t;
      cgr.row_bytes = ng_t * sizeof(float);
      cgr.src_stride = in.c.ld() * sizeof(float);
      cgr.dst_stride = ng_t * sizeof(float);
      const auto cgh =
          ctx.dma_shared(0, cgr, detail::host_src(in.c, i0, j0, fn),
                         fn ? cl.gsm().raw(cg.offset,
                                           mg_t * ng_t * sizeof(float))
                            : nullptr);
      const std::uint64_t cg_ready = cl.timeline(0).done_time(cgh);

      for (std::size_t ii = 0; ii < mg_t; ii += kb.ma) {
        const std::size_t ma_t = std::min(kb.ma, mg_t - ii);
        for (std::size_t jj = 0; jj < ng_t; jj += kb.na) {
          const std::size_t na_t = std::min(kb.na, ng_t - jj);
          const std::size_t pitch = am_pitch_floats(na_t);
          const std::size_t tile_vecs = ma_t * pitch / 32;

          // --- Parallel K loop ---
          for (int core = 0; core < W; ++core) {
            auto& tl = cl.timeline(core);
            // Zero the AM partial (VMOVI throughput: 3 vectors/cycle).
            if (fn) {
              ctx.exec.zero(core,
                            cl.core(core).am().raw(
                                pc[core].ca.offset,
                                ma_t * pitch * sizeof(float)),
                            ma_t * pitch * sizeof(float));
            }
            tl.compute(tile_vecs / 3 + 1);

            std::vector<std::size_t> mine;
            for (std::size_t tb = 0; tb < nkb; ++tb) {
              if (detail::owns(core, tb, P)) mine.push_back(tb);
            }
            if (mine.empty()) continue;
            const std::uint64_t kph0 = ctx.phase_begin(core);

            auto load_ba = [&](std::size_t w) -> sim::DmaHandle {
              const std::size_t t0 = mine[w] * kb.ka;
              const std::size_t ka_t = std::min(kb.ka, K - t0);
              sim::DmaRequest req;
              req.route = sim::DmaRoute::DdrToSpm;
              req.rows = ka_t;
              req.row_bytes = na_t * sizeof(float);
              req.src_stride = in.b.ld() * sizeof(float);
              req.dst_stride = pitch * sizeof(float);
              return ctx.dma(
                  core, req, detail::host_src(in.b, t0, j0 + jj, fn),
                  fn ? cl.core(core).am().raw(pc[core].ba[w % 2].offset,
                                              ka_t * pitch * sizeof(float))
                     : nullptr);
            };
            sim::DmaHandle bh = load_ba(0);
            for (std::size_t w = 0; w < mine.size(); ++w) {
              const std::size_t t0 = mine[w] * kb.ka;
              const std::size_t ka_t = std::min(kb.ka, K - t0);
              ctx.wait(core, bh);
              if (w + 1 < mine.size()) bh = load_ba(w + 1);

              const std::size_t slices = (ma_t + kb.ms - 1) / kb.ms;
              auto load_as = [&](std::size_t s) -> sim::DmaHandle {
                const std::size_t u = s * kb.ms;
                const std::size_t mrows = std::min(kb.ms, ma_t - u);
                sim::DmaRequest req;
                req.route = sim::DmaRoute::DdrToSpm;
                req.rows = mrows;
                req.row_bytes = ka_t * sizeof(float);
                req.src_stride = in.a.ld() * sizeof(float);
                req.dst_stride = ka_t * sizeof(float);
                return ctx.dma(
                    core, req,
                    detail::host_src(in.a, i0 + ii + u, t0, fn),
                    fn ? cl.core(core).sm().raw(
                             pc[core].as[s % 2].offset,
                             mrows * ka_t * sizeof(float))
                       : nullptr);
              };
              sim::DmaHandle ah = load_as(0);
              for (std::size_t s = 0; s < slices; ++s) {
                const std::size_t u = s * kb.ms;
                const std::size_t mrows = std::min(kb.ms, ma_t - u);
                ctx.wait(core, ah);
                if (s + 1 < slices) ah = load_as(s + 1);
                kernelgen::KernelSpec spec;
                spec.ms = static_cast<int>(mrows);
                spec.ka = static_cast<int>(ka_t);
                spec.na = static_cast<int>(na_t);
                const auto& uk = ctx.kernel_for(spec);
                ctx.kernel(
                    core, uk,
                    fn ? cl.core(core).sm().f32(pc[core].as[s % 2].offset,
                                                mrows * ka_t)
                       : nullptr,
                    fn ? cl.core(core).am().f32(pc[core].ba[w % 2].offset,
                                                ka_t * pitch)
                       : nullptr,
                    fn ? cl.core(core).am().f32(
                             pc[core].ca.offset +
                                 u * pitch * sizeof(float),
                             mrows * pitch)
                       : nullptr);
              }
            }

            // Stage the partial into GSM.
            sim::DmaRequest sreq;
            sreq.route = sim::DmaRoute::SpmToGsm;
            sreq.rows = ma_t;
            sreq.row_bytes = pitch * sizeof(float);
            sreq.src_stride = pitch * sizeof(float);
            sreq.dst_stride = pitch * sizeof(float);
            const auto sh = ctx.dma(
                core, sreq,
                fn ? cl.core(core).am().raw(pc[core].ca.offset,
                                            ma_t * pitch * sizeof(float))
                   : nullptr,
                fn ? cl.gsm().raw(stage[core].offset,
                                  ma_t * pitch * sizeof(float))
                   : nullptr);
            FTM_TRACE_COUNTER("reduce.gsm_bytes", sreq.total_bytes());
            ctx.wait(core, sh);
            ctx.phase_end(core, "k-partial", kph0);
          }

          cl.barrier();
          ctx.sync();  // staged partials must land before anyone reads them

          // --- Optional pairwise tree combine (extension/ablation): after
          // log2(W) parallel rounds stage[0] holds the sum of all partials.
          const bool tree = opt.tree_reduction && W > 1;
          if (tree) {
            for (int step = 1; step < W; step *= 2) {
              for (int i = 0; i + step < W; i += 2 * step) {
                auto& tli = cl.timeline(i);
                const std::uint64_t tph0 = ctx.phase_begin(i);
                for (std::size_t r0 = 0; r0 < ma_t; r0 += kb.reduce_rows) {
                  const std::size_t rows =
                      std::min(kb.reduce_rows, ma_t - r0);
                  sim::DmaRequest req;
                  req.route = sim::DmaRoute::GsmToSpm;
                  req.rows = rows;
                  req.row_bytes = pitch * sizeof(float);
                  req.src_stride = pitch * sizeof(float);
                  req.dst_stride = pitch * sizeof(float);
                  const auto ha = ctx.dma(
                      i, req,
                      fn ? cl.gsm().raw(stage[i].offset +
                                            r0 * pitch * sizeof(float),
                                        rows * pitch * sizeof(float))
                         : nullptr,
                      fn ? cl.core(i).am().raw(racc_r[i].offset,
                                               rows * pitch * sizeof(float))
                         : nullptr);
                  const auto hb = ctx.dma(
                      i, req,
                      fn ? cl.gsm().raw(stage[i + step].offset +
                                            r0 * pitch * sizeof(float),
                                        rows * pitch * sizeof(float))
                         : nullptr,
                      fn ? cl.core(i).am().raw(rpart_r[i].offset,
                                               rows * pitch * sizeof(float))
                         : nullptr);
                  FTM_TRACE_COUNTER("reduce.gsm_bytes",
                                    2 * req.total_bytes());
                  ctx.wait(i, ha);
                  ctx.wait(i, hb);
                  if (fn) {
                    ctx.exec.add_f32(
                        i, cl.core(i).am().f32(racc_r[i].offset, rows * pitch),
                        cl.core(i).am().f32(rpart_r[i].offset, rows * pitch),
                        rows * pitch);
                  }
                  tli.compute(rows * pitch / 32 + 1);
                  sim::DmaRequest wreq = req;
                  wreq.route = sim::DmaRoute::SpmToGsm;
                  const auto hw = ctx.dma(
                      i, wreq,
                      fn ? cl.core(i).am().raw(racc_r[i].offset,
                                               rows * pitch * sizeof(float))
                         : nullptr,
                      fn ? cl.gsm().raw(stage[i].offset +
                                            r0 * pitch * sizeof(float),
                                        rows * pitch * sizeof(float))
                         : nullptr);
                  FTM_TRACE_COUNTER("reduce.gsm_bytes", wreq.total_bytes());
                  ctx.wait(i, hw);
                }
                ctx.phase_end(i, "tree-combine", tph0);
              }
              cl.barrier();
              ctx.sync();  // round r+1 reads stage slots round r wrote
            }
          }
          const int merge_parts = tree ? 1 : W;

          // --- Final merge on core 0: original C plus the partial(s);
          // serial in the core count for the paper's scheme, which is
          // exactly the overhead it attributes to this strategy ---
          auto& tl0 = cl.timeline(0);
          tl0.advance_to(cg_ready);
          const std::uint64_t rph0 = ctx.phase_begin(0);
          for (std::size_t r0 = 0; r0 < ma_t; r0 += kb.reduce_rows) {
            const std::size_t rows = std::min(kb.reduce_rows, ma_t - r0);
            // Original C chunk (from the GSM panel, tight ng_t pitch).
            sim::DmaRequest lreq;
            lreq.route = sim::DmaRoute::GsmToSpm;
            lreq.rows = rows;
            lreq.row_bytes = na_t * sizeof(float);
            lreq.src_stride = ng_t * sizeof(float);
            lreq.dst_stride = pitch * sizeof(float);
            const auto lh = ctx.dma(
                0, lreq,
                fn ? cl.gsm().raw(cg.offset + ((ii + r0) * ng_t + jj) *
                                                  sizeof(float),
                                  ((rows - 1) * ng_t + na_t) * sizeof(float))
                   : nullptr,
                fn ? cl.core(0).am().raw(racc.offset,
                                         rows * pitch * sizeof(float))
                   : nullptr);
            FTM_TRACE_COUNTER("reduce.gsm_bytes", lreq.total_bytes());
            ctx.wait(0, lh);
            float* accbuf =
                fn ? cl.core(0).am().f32(racc.offset, rows * pitch) : nullptr;
            for (int p = 0; p < merge_parts; ++p) {
              sim::DmaRequest preq;
              preq.route = sim::DmaRoute::GsmToSpm;
              preq.rows = rows;
              preq.row_bytes = pitch * sizeof(float);
              preq.src_stride = pitch * sizeof(float);
              preq.dst_stride = pitch * sizeof(float);
              const auto ph = ctx.dma(
                  0, preq,
                  fn ? cl.gsm().raw(stage[p].offset +
                                        r0 * pitch * sizeof(float),
                                    rows * pitch * sizeof(float))
                     : nullptr,
                  fn ? cl.core(0).am().raw(rpart.offset,
                                           rows * pitch * sizeof(float))
                     : nullptr);
              FTM_TRACE_COUNTER("reduce.gsm_bytes", preq.total_bytes());
              ctx.wait(0, ph);
              if (fn) {
                ctx.exec.add_f32(
                    0, accbuf, cl.core(0).am().f32(rpart.offset, rows * pitch),
                    rows * pitch);
              }
              tl0.compute(rows * pitch / 32 + 1);  // ~1 cycle per vector
            }
            // Store the reduced chunk straight to DDR.
            sim::DmaRequest oreq;
            oreq.route = sim::DmaRoute::SpmToDdr;
            oreq.rows = rows;
            oreq.row_bytes = na_t * sizeof(float);
            oreq.src_stride = pitch * sizeof(float);
            oreq.dst_stride = in.c.ld() * sizeof(float);
            const auto oh = ctx.dma(
                0, oreq,
                fn ? cl.core(0).am().raw(racc.offset,
                                         rows * pitch * sizeof(float))
                   : nullptr,
                detail::host_dst(in.c, i0 + ii + r0, j0 + jj, fn));
            ctx.wait(0, oh);
          }
          ctx.phase_end(0, "reduce", rph0);
          cl.barrier();  // partials buffer may be reused now
          ctx.sync();    // ... by the next tile's staging writes
        }
      }
    }
  }

  return ctx.finish(in.m, in.n, in.k, Strategy::ParallelK);
}

}  // namespace ftm::core

#include "ftm/core/dgemm.hpp"

#include "strategy_common.hpp"

namespace ftm::core {

GemmResult dgemm(FtimmEngine& engine, const DGemmInput& in,
                 const FtimmOptions& opt) {
  FTM_EXPECTS(in.m >= 1 && in.n >= 1 && in.k >= 1);
  FTM_EXPECTS(in.n <= 48);  // three 16-lane FP64 vectors
  FTM_EXPECTS(opt.cores >= 1 &&
              opt.cores <= engine.machine().cores_per_cluster);
  if (opt.functional) {
    FTM_EXPECTS(in.a != nullptr && in.b != nullptr && in.c != nullptr);
  }
  constexpr auto kF64 = kernelgen::DType::F64;
  const isa::MachineConfig& mc = engine.machine();
  const MBlocks mb = adjust_m_blocks(initial_m_blocks(mc, kF64), in.m, in.n,
                                     in.k, mc, opt.cores, kF64);
  detail::MOperands ops;
  ops.m = in.m;
  ops.n = in.n;
  ops.k = in.k;
  ops.dtype = kF64;
  ops.a = in.a;
  ops.b = in.b;
  ops.c = in.c;
  ops.lda = in.lda;
  ops.ldb = in.ldb;
  ops.ldc = in.ldc;
  return detail::run_strategy_m(engine.cluster(), engine.kernels(), ops, mb,
                                opt);
}

}  // namespace ftm::core

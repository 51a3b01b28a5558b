// Block-size selection (paper §IV-C): the computation-to-memory-ratio
// (CMR) equations (1)-(4), capacity-constrained initial block sizes for
// both parallelization strategies and for TGEMM, and the dynamic adjuster
// that shrinks/grows blocks to fit the actual matrix shape.
#pragma once

#include <cstddef>

#include "ftm/isa/machine.hpp"
#include "ftm/kernelgen/spec.hpp"

namespace ftm::core {

/// Block sizes of the M-dimension strategy (Algorithm 4).
struct MBlocks {
  std::size_t kg = 5888;  ///< K extent of the GSM-cached B panel.
  std::size_t ng = 96;    ///< N extent of the GSM-cached B panel.
  std::size_t ma = 320;   ///< M rows processed per core per block.
  std::size_t na = 96;    ///< N extent of AM tiles.
  std::size_t ka = 864;   ///< K extent of AM tiles.
  std::size_t ms = 8;     ///< Micro-kernel rows.
};

/// Block sizes of the K-dimension strategy (Algorithm 5).
struct KBlocks {
  std::size_t mg = 1024;  ///< M extent of the GSM-cached C panel.
  std::size_t ng = 512;   ///< N extent of the GSM-cached C panel.
  std::size_t ma = 1024;  ///< M extent of AM C tiles.
  std::size_t na = 96;
  std::size_t ka = 512;   ///< K block each core processes per step.
  std::size_t ms = 14;
  std::size_t reduce_rows = 64;  ///< Row chunk for the GSM-based reduction.
};

/// Block sizes of the TGEMM baseline (Algorithm 1; fixed in [23], [24]).
struct TBlocks {
  std::size_t mg = 512;
  std::size_t kg = 512;
  std::size_t na = 96;  ///< TGEMM always pads B/C tiles to 96 columns.
  std::size_t ms = 6;
};

// --- CMR equations (paper Eq. 1-4) -----------------------------------------
double cmr_m_outer(std::size_t ma, std::size_t kg, std::size_t ng, int cores);
double cmr_m_inner(std::size_t ma, std::size_t ka, std::size_t na, int cores);
double cmr_k_outer(std::size_t mg, std::size_t ka, std::size_t ng, int cores);
double cmr_k_inner(std::size_t ma, std::size_t ka, std::size_t na, int cores);

/// Initial block sizes from hardware capacities alone (shape-agnostic),
/// maximizing CMR as in §IV-C. With the published FT-m7032 capacities these
/// land on (or tie with) the paper's constants. The FP64 and half-format
/// M-parallel runs start from fixed tiles instead (k_a = 512, m_s = 12).
MBlocks initial_m_blocks(const isa::MachineConfig& mc,
                         kernelgen::DType dtype = kernelgen::DType::F32);
KBlocks initial_k_blocks(const isa::MachineConfig& mc);

/// Dynamic adjustment to an actual (M, N, K) shape: clamps to the matrix,
/// re-grows the freed capacity along the parallelized dimension, balances
/// the parallel block count across `cores`, keeps k_g as large as possible
/// (C_a reuse), and enforces ms >= 6 when M allows (small-ms kernels
/// underperform, §IV-C). `dtype` sets the element bytes, vector lanes and
/// B-row packing every footprint is computed with (kernelgen/spec.hpp).
MBlocks adjust_m_blocks(MBlocks b, std::size_t m, std::size_t n,
                        std::size_t k, const isa::MachineConfig& mc,
                        int cores = 8,
                        kernelgen::DType dtype = kernelgen::DType::F32);
KBlocks adjust_k_blocks(KBlocks b, std::size_t m, std::size_t n,
                        std::size_t k, const isa::MachineConfig& mc,
                        int cores = 8);

/// Capacity audits: throw ContractViolation when a configuration cannot
/// fit SM/AM/GSM with double buffering as used by the algorithms.
void check_m_blocks(const MBlocks& b, const isa::MachineConfig& mc,
                    kernelgen::DType dtype = kernelgen::DType::F32);
void check_k_blocks(const KBlocks& b, const isa::MachineConfig& mc);
void check_t_blocks(const TBlocks& b, const isa::MachineConfig& mc);

/// AM row pitch in floats for an na-wide tile (na padded to vectors).
std::size_t am_pitch_floats(std::size_t na);

}  // namespace ftm::core

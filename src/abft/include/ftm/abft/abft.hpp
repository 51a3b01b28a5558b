// Huang–Abraham algorithm-based fault tolerance for GEMM (ISSUE 8,
// docs/robustness.md).
//
// For C += A·B the row sums of the result are fully determined by the
// inputs: r[i] = rowsum(C_old)[i] + A[i,:]·(B·e), and likewise the column
// sums c[j] = colsum(C_old)[j] + (eᵀ·A)·B[:,j]. A Checker captures both
// expectations in double precision *before* the GEMM runs, then verifies
// the produced C against them. One damaged element perturbs exactly one
// row sum and one column sum by the same delta, so a single error is
// located at the (row, col) intersection and rebuilt in place from its
// row's expectation and the row's other elements; anything that doesn't
// fit that pattern — two or more damaged elements, a non-finite line sum,
// or a repair that fails re-verification — is escalated as
// ftm::IntegrityError so the runtime's resilience path (retry on another
// cluster, CPU fallback) recomputes the block.
//
// Tolerance: the device accumulates C in FP32 while the checker's
// expectations are (near-)exact doubles, so the comparison must absorb
// FP32 rounding. Each check scales with the magnitude sum along its line
// (|C_old| plus |A|·|B| products — computed alongside the expectations),
// a sqrt-law accumulation factor, and FP32 epsilon:
//
//   tol_row[i] ~ scale · eps32 · sqrt(k+n) · abs_row[i]
//
// The injector's bit-flips (fault::FaultInjector::on_store) always
// damage the exponent MSB, producing deltas >= ~2.0 — orders of
// magnitude above these tolerances on every functional test shape —
// which is what turns "ABFT catches most errors" into the chaos
// harness's provable "zero silent escapes".
//
// This library is pure host-side checksum math: it depends only on
// ftm_util (matrix views) and ftm_fault (IntegrityError). The engine
// (src/core/ftimm.cpp) owns policy — when to verify, what to charge in
// simulated cycles — via core::IntegrityOptions.
#pragma once

#include <cstdint>
#include <vector>

#include "ftm/util/matrix.hpp"

namespace ftm::abft {

/// Outcome of one verification pass over a produced C block.
struct VerifyStats {
  int checks = 0;     ///< row + column checksum comparisons performed
  int detected = 0;   ///< checksum lines that mismatched
  int corrected = 0;  ///< elements repaired in place (0 or 1)
};

/// Extra FLOPs the checksum scheme costs on-device: computing the A
/// column-sum row (mk) and B row-sum column (kn), the extra C checksum
/// row (2kn) and column (2mk), and the store-phase comparisons with
/// their magnitude sums (4mn).
std::uint64_t checksum_flops(std::size_t m, std::size_t n, std::size_t k);

/// Extra bytes the checksum rows/columns add to the panel DMA traffic:
/// one FP32 row of k (A panels), one column of k (B panels), and the C
/// checksum row + column (n + m).
std::uint64_t checksum_bytes(std::size_t m, std::size_t n, std::size_t k);

/// One GEMM call's checksum state: construct *before* the GEMM mutates C,
/// verify after it completes.
class Checker {
 public:
  /// Captures expected post-GEMM row/column checksums of C += A·B (double
  /// precision) plus the magnitude sums the tolerances scale with.
  /// `tolerance_scale` multiplies every tolerance (IntegrityOptions knob);
  /// 1.0 is calibrated for uniform [-1, 1) data across the test shapes.
  Checker(ConstMatrixView a, ConstMatrixView b, ConstMatrixView c,
          double tolerance_scale = 1.0);

  /// Verifies the produced C. With `correct` false, any mismatch throws
  /// IntegrityError. With `correct` true, a consistent single-element
  /// mismatch (exactly one row and one column flagged, agreeing deltas)
  /// is repaired in place and re-verified; everything else throws
  /// IntegrityError carrying the mismatch count. `cluster` only labels
  /// the error.
  VerifyStats verify(MatrixView c, bool correct, int cluster = -1) const;

  std::size_t m() const { return m_; }
  std::size_t n() const { return n_; }
  std::size_t k() const { return k_; }

 private:
  std::size_t m_ = 0, n_ = 0, k_ = 0;
  std::vector<double> row_sum_, col_sum_;  ///< expected checksums
  std::vector<double> row_tol_, col_tol_;  ///< absolute tolerances
};

}  // namespace ftm::abft

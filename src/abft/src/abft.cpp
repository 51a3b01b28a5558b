#include "ftm/abft/abft.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "ftm/fault/fault.hpp"
#include "ftm/util/assert.hpp"

namespace ftm::abft {

namespace {

// Multiplies the sqrt-law rounding estimate into a safe band: well above
// the FP32 accumulation noise of every strategy's summation order, well
// below the >= 2.0 deltas the injector's exponent-MSB flips produce.
constexpr double kTolBase = 24.0;

// Absolute floor so all-zero lines (zero inputs) still verify cleanly.
constexpr double kTolFloor = 1e-6;

// A line mismatches when its sum is off by more than the tolerance. A
// flip to inf or NaN makes the sum non-finite, which `abs(d) > tol`
// would let through; a line whose expectation is itself non-finite
// (inf/NaN inputs) cannot be checked.
bool mismatch(double actual, double expected, double tol) {
  return std::isfinite(expected) && !(std::abs(actual - expected) <= tol);
}

}  // namespace

std::uint64_t checksum_flops(std::size_t m, std::size_t n, std::size_t k) {
  const auto mm = static_cast<std::uint64_t>(m);
  const auto nn = static_cast<std::uint64_t>(n);
  const auto kk = static_cast<std::uint64_t>(k);
  return 3 * mm * kk + 3 * kk * nn + 4 * mm * nn;
}

std::uint64_t checksum_bytes(std::size_t m, std::size_t n, std::size_t k) {
  return 4 * static_cast<std::uint64_t>(m + n + 2 * k);
}

Checker::Checker(ConstMatrixView a, ConstMatrixView b, ConstMatrixView c,
                 double tolerance_scale)
    : m_(a.rows()), n_(b.cols()), k_(a.cols()) {
  FTM_EXPECTS(b.rows() == k_ && c.rows() == m_ && c.cols() == n_);
  FTM_EXPECTS(tolerance_scale > 0);

  // B row sums (B·e) and magnitude sums, one pass.
  std::vector<double> bs(k_, 0.0), babs(k_, 0.0);
  for (std::size_t l = 0; l < k_; ++l) {
    double s = 0, sa = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      const double v = b.at(l, j);
      s += v;
      sa += std::abs(v);
    }
    bs[l] = s;
    babs[l] = sa;
  }

  // Row expectations r[i] = A[i,:]·bs, and A column sums (eᵀ·A) for the
  // column expectations, in the same pass over A.
  row_sum_.assign(m_, 0.0);
  row_tol_.assign(m_, 0.0);
  std::vector<double> as(k_, 0.0), aabs(k_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    double rs = 0, ra = 0;
    for (std::size_t l = 0; l < k_; ++l) {
      const double v = a.at(i, l);
      rs += v * bs[l];
      ra += std::abs(v) * babs[l];
      as[l] += v;
      aabs[l] += std::abs(v);
    }
    row_sum_[i] = rs;
    row_tol_[i] = ra;
  }

  // Column expectations c[j] = as·B[:,j].
  col_sum_.assign(n_, 0.0);
  col_tol_.assign(n_, 0.0);
  for (std::size_t l = 0; l < k_; ++l) {
    for (std::size_t j = 0; j < n_; ++j) {
      const double v = b.at(l, j);
      col_sum_[j] += as[l] * v;
      col_tol_[j] += aabs[l] * std::abs(v);
    }
  }

  // C_old rides along both expectations (the GEMM accumulates into it).
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      const double v = c.at(i, j);
      row_sum_[i] += v;
      col_sum_[j] += v;
      row_tol_[i] += std::abs(v);
      col_tol_[j] += std::abs(v);
    }
  }

  const double eps = std::numeric_limits<float>::epsilon();
  const double row_fac = tolerance_scale * kTolBase * eps *
                         std::sqrt(static_cast<double>(k_ + n_ + 1));
  const double col_fac = tolerance_scale * kTolBase * eps *
                         std::sqrt(static_cast<double>(k_ + m_ + 1));
  for (double& t : row_tol_) t = row_fac * t + kTolFloor;
  for (double& t : col_tol_) t = col_fac * t + kTolFloor;
}

VerifyStats Checker::verify(MatrixView c, bool correct, int cluster) const {
  FTM_EXPECTS(c.rows() == m_ && c.cols() == n_);
  VerifyStats stats;
  stats.checks = static_cast<int>(m_ + n_);

  std::vector<double> col_act(n_, 0.0);
  // Flagged lines and their deltas; only the first of each is needed for
  // repair, the counts decide escalation.
  std::size_t bad_rows = 0, bad_cols = 0;
  std::size_t bad_i = 0, bad_j = 0;
  double delta_row = 0, delta_col = 0;
  for (std::size_t i = 0; i < m_; ++i) {
    double rs = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      const double v = c.at(i, j);
      rs += v;
      col_act[j] += v;
    }
    if (mismatch(rs, row_sum_[i], row_tol_[i])) {
      if (bad_rows++ == 0) {
        bad_i = i;
        delta_row = rs - row_sum_[i];
      }
    }
  }
  for (std::size_t j = 0; j < n_; ++j) {
    if (mismatch(col_act[j], col_sum_[j], col_tol_[j])) {
      if (bad_cols++ == 0) {
        bad_j = j;
        delta_col = col_act[j] - col_sum_[j];
      }
    }
  }
  if (bad_rows == 0 && bad_cols == 0) return stats;
  stats.detected = static_cast<int>(bad_rows + bad_cols);

  if (correct && bad_rows == 1 && bad_cols == 1 &&
      std::abs(delta_row - delta_col) <=
          row_tol_[bad_i] + col_tol_[bad_j]) {
    // Consistent single-element damage at (bad_i, bad_j): rebuild the
    // element from its row's expectation minus the row's other elements,
    // then re-verify both lines to guard against a miscorrection (e.g.
    // two errors in one row whose column deltas happened to merge).
    // Subtracting the delta from the damaged value instead would cancel
    // against a value up to 2^128 times larger and lose the element.
    double others = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      if (j != bad_j) others += c.at(bad_i, j);
    }
    float& elem = c.at(bad_i, bad_j);
    elem = static_cast<float>(row_sum_[bad_i] - others);
    double rs = 0, cs = 0;
    for (std::size_t j = 0; j < n_; ++j) rs += c.at(bad_i, j);
    for (std::size_t i = 0; i < m_; ++i) cs += c.at(i, bad_j);
    if (std::abs(rs - row_sum_[bad_i]) <= row_tol_[bad_i] &&
        std::abs(cs - col_sum_[bad_j]) <= col_tol_[bad_j]) {
      stats.corrected = 1;
      return stats;
    }
  }
  throw IntegrityError(
      cluster, stats.detected,
      "checksum verification failed: " + std::to_string(bad_rows) +
          " row / " + std::to_string(bad_cols) +
          " column mismatches in a " + std::to_string(m_) + "x" +
          std::to_string(n_) + " C block (k=" + std::to_string(k_) +
          "); recompute required");
}

}  // namespace ftm::abft

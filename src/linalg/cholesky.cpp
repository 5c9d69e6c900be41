#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/logging.hpp"

namespace amped::linalg {

std::optional<CholeskyFactor> CholeskyFactor::factor(const DenseMatrix& m,
                                                     double ridge) {
  assert(m.rows() == m.cols());
  const std::size_t n = m.rows();
  CholeskyFactor f;
  f.n_ = n;
  f.l_.assign(n * n, 0.0);
  f.lt_.assign(n * n, 0.0);
  double* l = f.l_.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = static_cast<double>(m(i, j));
      if (i == j) sum += ridge;
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * n + k] * l[j * n + k];
      if (i == j) {
        if (sum <= 0.0) return std::nullopt;
        l[i * n + j] = std::sqrt(sum);
      } else {
        l[i * n + j] = sum / l[j * n + j];
      }
      f.lt_[j * n + i] = l[i * n + j];
    }
    f.inv_diag_.push_back(1.0 / l[i * n + i]);
  }
  return f;
}

void CholeskyFactor::solve_rows(std::span<const value_t> b,
                                std::span<value_t> x,
                                std::span<double> work) const {
  constexpr std::size_t t = kSolveTile;
  const std::size_t n = n_;
  assert(n > 0 && b.size() % n == 0 && x.size() == b.size() &&
         work.size() >= t * n);
  const std::size_t rows = b.size() / n;
  double* __restrict w = work.data();
  const double* __restrict l = l_.data();
  const double* __restrict lt = lt_.data();
  for (std::size_t first = 0; first < rows; first += t) {
    // Up to t rows, transposed into w: w[i * t + r] is entry i of row r,
    // so every update below is a contiguous sweep across the tile's rows.
    // Each row still sees exactly the operations of a one-row solve.
    const std::size_t m = std::min(t, rows - first);
    const value_t* bt = b.data() + first * n;
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t i = 0; i < n; ++i) w[i * t + r] = bt[r * n + i];
    }
    // Forward substitution L y = b: once y_j is final, eliminate it from
    // every later equation (column j of L, i.e. row j of L^T).
    for (std::size_t j = 0; j < n; ++j) {
      double y[t];
      for (std::size_t r = 0; r < m; ++r) {
        y[r] = w[j * t + r] * inv_diag_[j];
        w[j * t + r] = y[r];
      }
      for (std::size_t i = j + 1; i < n; ++i) {
        const double c = lt[j * n + i];
        for (std::size_t r = 0; r < m; ++r) w[i * t + r] -= c * y[r];
      }
    }
    // Backward substitution L^T x = y: once x_j is final, eliminate it
    // from every earlier equation (row j of L).
    for (std::size_t j = n; j-- > 0;) {
      double y[t];
      for (std::size_t r = 0; r < m; ++r) {
        y[r] = w[j * t + r] * inv_diag_[j];
        w[j * t + r] = y[r];
      }
      for (std::size_t i = 0; i < j; ++i) {
        const double c = l[j * n + i];
        for (std::size_t r = 0; r < m; ++r) w[i * t + r] -= c * y[r];
      }
    }
    value_t* xt = x.data() + first * n;
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        xt[r * n + i] = static_cast<value_t>(w[i * t + r]);
      }
    }
  }
}

CholeskyFactor factor_normal_equations(const DenseMatrix& m) {
  assert(m.rows() == m.cols());
  double ridge = 0.0;
  std::optional<CholeskyFactor> l = CholeskyFactor::factor(m, ridge);
  // Rank-deficient Grams happen with unlucky initialisations; regularise
  // with a ridge that grows until the factorisation succeeds.
  double trace = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) trace += m(i, i);
  double step = std::max(1e-12, 1e-10 * trace / static_cast<double>(m.rows()));
  while (!l) {
    ridge = ridge == 0.0 ? step : ridge * 10.0;
    if (ridge > 1e6 * step) {
      throw std::runtime_error(
          "cholesky: gram matrix irrecoverably singular (ridge grew to " +
          std::to_string(ridge) + " without a positive-definite "
          "factorisation — degenerate factors or corrupt input)");
    }
    l = CholeskyFactor::factor(m, ridge);
  }
  if (ridge != 0.0) {
    // The solve succeeded only after regularisation: the gram was
    // (numerically) singular. The run continues — ridge regression is
    // the standard ALS remedy — but the conditioning problem is worth a
    // diagnostic, not silence.
    AMPED_LOG_WARN << "cholesky: singular gram matrix regularised with "
                   << "ridge " << ridge << " (trace " << trace << ")";
  }
  return std::move(*l);
}

void solve_normal_equations(const DenseMatrix& m, DenseMatrix& rhs) {
  assert(m.rows() == m.cols() && m.cols() == rhs.cols());
  const CholeskyFactor l = factor_normal_equations(m);
  std::vector<double> work(CholeskyFactor::kSolveTile * m.rows());
  l.solve_rows(rhs.data(), rhs.data(), work);
}

}  // namespace amped::linalg

// Cholesky factorisation and solves for the ALS normal equations.
//
// Each ALS step solves  M * X^T = G^T  where M is the Hadamard product of
// Gram matrices (R x R, symmetric positive semi-definite) and G is the
// MTTKRP output (I_d x R). We factor M = L L^T once (with a small
// diagonal ridge fallback for rank-deficient cases), then substitute per
// row. The row solve is axpy-form over L and a stored L^T: kSolveTile
// rows are transposed into a double work tile, and every elimination
// step is one contiguous w[i][r] -= L(i, j) * y[r] sweep across the
// tile's rows. That vectorises without relaxed floating-point semantics
// and serves each loaded L entry to every row of the tile.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "tensor/dense_matrix.hpp"

namespace amped::linalg {

// L L^T = M + ridge * I, accumulated and stored in double.
class CholeskyFactor {
 public:
  // std::nullopt when M + ridge * I is not positive definite.
  static std::optional<CholeskyFactor> factor(const DenseMatrix& m,
                                              double ridge = 0.0);

  std::size_t size() const { return n_; }
  // Entry (i, j) of the lower-triangular L (zero above the diagonal).
  double lower(std::size_t i, std::size_t j) const { return l_[i * n_ + j]; }

  // Rows solved together; a row's result does not depend on its tile.
  static constexpr std::size_t kSolveTile = 16;

  // Solves L L^T x = b for each of the k = b.size() / size() consecutive
  // rows of `b` (row-major, k x size()), writing them to `x`; `b` and `x`
  // may alias. `work` holds kSolveTile * size() doubles of scratch.
  void solve_rows(std::span<const value_t> b, std::span<value_t> x,
                  std::span<double> work) const;

 private:
  std::size_t n_ = 0;
  std::vector<double> l_;         // row-major L
  std::vector<double> lt_;        // row-major L^T: row j is column j of L
  std::vector<double> inv_diag_;  // 1 / L(j, j)
};

// Factors the normal-equation matrix M, retrying with a ridge that grows
// until the factorisation succeeds (logged as a warning — the gram was
// numerically singular). Throws when no ridge within 1e6 steps helps.
CholeskyFactor factor_normal_equations(const DenseMatrix& m);

// Solves M * X_row^T = RHS_row^T for every row of `rhs` (I_d x R), writing
// the solution over `rhs`: one factor_normal_equations, then solve_rows.
// (The ALS update runs the same two steps, its solve in row blocks on
// the host pool.)
void solve_normal_equations(const DenseMatrix& m, DenseMatrix& rhs);

}  // namespace amped::linalg

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "util/random.hpp"

namespace amped {
namespace {

TEST(BlasTest, GramOfIdentityLikeMatrix) {
  DenseMatrix a(3, 2);
  a(0, 0) = 1;
  a(1, 1) = 2;
  a(2, 0) = 3;
  const auto g = linalg::gram(a);
  EXPECT_FLOAT_EQ(g(0, 0), 10.0f);  // 1 + 9
  EXPECT_FLOAT_EQ(g(1, 1), 4.0f);
  EXPECT_FLOAT_EQ(g(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(g(1, 0), g(0, 1));  // symmetry
}

TEST(BlasTest, GramMatchesMatmulTranspose) {
  Rng rng(4);
  DenseMatrix a(20, 5);
  a.fill_random(rng);
  const auto g = linalg::gram(a);
  // Compare against explicit A^T A.
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      double expect = 0;
      for (std::size_t k = 0; k < 20; ++k) {
        expect += static_cast<double>(a(k, i)) * a(k, j);
      }
      EXPECT_NEAR(g(i, j), expect, 1e-3);
    }
  }
}

TEST(BlasTest, HadamardElementwise) {
  DenseMatrix a(2, 2, 3.0f), b(2, 2, 2.0f);
  b(0, 1) = -1.0f;
  const auto c = linalg::hadamard(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(c(0, 1), -3.0f);
}

TEST(BlasTest, MatmulKnownProduct) {
  DenseMatrix a(2, 3), b(3, 2);
  int v = 1;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = static_cast<value_t>(v++);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) b(i, j) = static_cast<value_t>(v++);
  }
  const auto c = linalg::matmul(a, b);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(BlasTest, DotSumsElementwiseProducts) {
  DenseMatrix a(3, 2, 1.0f);
  for (std::size_t i = 0; i < 3; ++i) a(i, 0) = 2.0f;
  DenseMatrix b(3, 2, 1.0f);
  EXPECT_NEAR(linalg::dot(a, b), 2.0 * 3 + 1.0 * 3, 1e-6);
}

TEST(CholeskyTest, FactorsSpdMatrix) {
  // M = L L^T for L = [[2,0],[1,3]] -> M = [[4,2],[2,10]].
  DenseMatrix m(2, 2);
  m(0, 0) = 4;
  m(0, 1) = 2;
  m(1, 0) = 2;
  m(1, 1) = 10;
  auto l = linalg::CholeskyFactor::factor(m);
  ASSERT_TRUE(l.has_value());
  EXPECT_NEAR(l->lower(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l->lower(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l->lower(1, 1), 3.0, 1e-12);
  EXPECT_EQ(l->lower(0, 1), 0.0);
}

TEST(CholeskyTest, RejectsIndefinite) {
  DenseMatrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 5;
  m(1, 0) = 5;
  m(1, 1) = 1;  // eigenvalues 6, -4
  EXPECT_FALSE(linalg::CholeskyFactor::factor(m).has_value());
}

TEST(CholeskyTest, SolveRecoversKnownSolution) {
  DenseMatrix m(2, 2);
  m(0, 0) = 4;
  m(0, 1) = 2;
  m(1, 0) = 2;
  m(1, 1) = 10;
  auto l = linalg::CholeskyFactor::factor(m);
  ASSERT_TRUE(l.has_value());
  // b = M * [1, 2]^T = [8, 22].
  const std::vector<value_t> b{8.0f, 22.0f};
  std::vector<value_t> x(2);
  std::vector<double> work(linalg::CholeskyFactor::kSolveTile * 2);
  l->solve_rows(b, x, work);
  EXPECT_NEAR(x[0], 1.0, 1e-6);
  EXPECT_NEAR(x[1], 2.0, 1e-6);
}

// solve_rows interleaves a tile of rows; each row's result must not
// depend on which rows share its tile (37 rows: full tiles plus a tail).
TEST(CholeskyTest, SolveRowsMatchesOneRowAtATime) {
  Rng rng(9);
  for (const std::size_t r : {1, 5, 64, 100}) {
    DenseMatrix a(300, r);
    a.fill_random(rng);
    const auto l = linalg::factor_normal_equations(linalg::gram(a));
    DenseMatrix rhs(37, r);
    rhs.fill_random(rng, -1.0f, 1.0f);
    DenseMatrix together = rhs;
    std::vector<double> work(linalg::CholeskyFactor::kSolveTile * r);
    l.solve_rows(together.data(), together.data(), work);
    for (std::size_t i = 0; i < rhs.rows(); ++i) {
      std::vector<value_t> alone(r);
      l.solve_rows(rhs.row(i), alone, work);
      EXPECT_EQ(std::memcmp(alone.data(), together.row(i).data(),
                            r * sizeof(value_t)),
                0)
          << "rank " << r << " row " << i;
    }
  }
}

TEST(CholeskyTest, SolveNormalEquationsMultiRow) {
  Rng rng(8);
  DenseMatrix a(50, 4);
  a.fill_random(rng, 0.1f, 1.0f);
  const auto m = linalg::gram(a);  // SPD with overwhelming probability

  DenseMatrix x_true(3, 4);
  x_true.fill_random(rng, -1.0f, 1.0f);
  // rhs = x_true * M (row-wise: rhs_i = M x_i since M symmetric).
  DenseMatrix rhs = linalg::matmul(x_true, m);
  linalg::solve_normal_equations(m, rhs);
  EXPECT_LT(DenseMatrix::max_abs_diff(rhs, x_true), 1e-2);
}

TEST(CholeskyTest, RidgeRescuesSingularMatrix) {
  // Rank-1 Gram: singular, solve must still return something finite.
  DenseMatrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 1;
  m(1, 0) = 1;
  m(1, 1) = 1;
  DenseMatrix rhs(1, 2);
  rhs(0, 0) = 1;
  rhs(0, 1) = 1;
  linalg::solve_normal_equations(m, rhs);
  EXPECT_TRUE(std::isfinite(rhs(0, 0)));
  EXPECT_TRUE(std::isfinite(rhs(0, 1)));
}

}  // namespace
}  // namespace amped

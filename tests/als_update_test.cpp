// The blocked ALS factor update (AlsState::update_mode) and the blocked
// gram: bit-identical under any host pool size, and within float rounding
// of a serial double-precision run of the textbook algorithm — gram of
// every other mode, Hadamard product, Cholesky solve per row, column
// normalisation into lambda. Mode lengths straddle the fixed row block
// (1, block-1, block+1, several blocks) so the single-block inline path,
// a partial last block and a multi-block reduction are all covered.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/cpd.hpp"
#include "linalg/blas.hpp"
#include "sim/platform.hpp"
#include "tensor/generator.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

constexpr std::size_t kBlock = linalg::kRowBlock;

// Restores the default pool configuration however a test exits.
class ScopedHostParallelism {
 public:
  explicit ScopedHostParallelism(std::size_t n) { set_host_parallelism(n); }
  ~ScopedHostParallelism() { set_host_parallelism(0); }
};

bool same_bits(std::span<const value_t> a, std::span<const value_t> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0;
}
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Mode 0 has the length under test; the other modes are longer than the
// largest rank so every gram is full rank and V is well conditioned.
AmpedTensor make_tensor(std::size_t rows) {
  GeneratorOptions gen;
  gen.dims = {static_cast<index_t>(rows), 160, 130};
  gen.nnz = 4000;
  gen.seed = 31 + rows;
  gen.coalesce_duplicates = true;
  return AmpedTensor::build(generate_random(gen), AmpedBuildOptions{});
}

// The update as a serial double-precision loop nest, kept independent of
// the library's linear algebra.
struct ReferenceUpdate {
  std::vector<double> factor;  // rows x rank, normalised
  std::vector<double> lambda;
};

ReferenceUpdate reference_update(const FactorSet& factors, std::size_t d,
                                 const DenseMatrix& g) {
  const std::size_t r = factors.rank();
  std::vector<double> v(r * r, 1.0);
  for (std::size_t w = 0; w < factors.num_modes(); ++w) {
    if (w == d) continue;
    const DenseMatrix& a = factors.factor(w);
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < r; ++j) {
        double acc = 0.0;
        for (std::size_t row = 0; row < a.rows(); ++row) {
          acc += static_cast<double>(a(row, i)) * a(row, j);
        }
        v[i * r + j] *= acc;
      }
    }
  }
  std::vector<double> l(r * r, 0.0);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = v[i * r + j];
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * r + k] * l[j * r + k];
      l[i * r + j] = i == j ? std::sqrt(sum) : sum / l[j * r + j];
    }
  }
  ReferenceUpdate out;
  out.factor.assign(g.rows() * r, 0.0);
  for (std::size_t row = 0; row < g.rows(); ++row) {
    double* x = out.factor.data() + row * r;
    for (std::size_t i = 0; i < r; ++i) {
      double sum = g(row, i);
      for (std::size_t k = 0; k < i; ++k) sum -= l[i * r + k] * x[k];
      x[i] = sum / l[i * r + i];
    }
    for (std::size_t i = r; i-- > 0;) {
      double sum = x[i];
      for (std::size_t k = i + 1; k < r; ++k) sum -= l[k * r + i] * x[k];
      x[i] = sum / l[i * r + i];
    }
  }
  out.lambda.assign(r, 0.0);
  for (std::size_t c = 0; c < r; ++c) {
    double sq = 0.0;
    for (std::size_t row = 0; row < g.rows(); ++row) {
      sq += out.factor[row * r + c] * out.factor[row * r + c];
    }
    const double norm = std::sqrt(sq) < 1e-30 ? 1.0 : std::sqrt(sq);
    out.lambda[c] = norm;
    for (std::size_t row = 0; row < g.rows(); ++row) {
      out.factor[row * r + c] /= norm;
    }
  }
  return out;
}

// |got - want|_2 / |want|_2.
template <typename T>
double relative_error(std::span<const T> got, const std::vector<double>& want) {
  double err_sq = 0.0, want_sq = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double diff = static_cast<double>(got[i]) - want[i];
    err_sq += diff * diff;
    want_sq += want[i] * want[i];
  }
  return std::sqrt(err_sq / want_sq);
}

class AlsUpdateTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  std::size_t rows() const { return std::get<0>(GetParam()); }
  std::size_t rank() const { return std::get<1>(GetParam()); }
};

TEST_P(AlsUpdateTest, BitIdenticalAcrossPoolSizes) {
  const auto tensor = make_tensor(rows());
  CpdOptions opt;
  opt.rank = rank();
  opt.max_iterations = 2;
  opt.tolerance = 0.0;
  auto run = [&](std::size_t threads) {
    ScopedHostParallelism scoped(threads);
    auto platform = sim::make_default_platform(4);
    CpdResult result = cp_als(platform, tensor, opt);
    std::vector<DenseMatrix> grams;
    for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
      grams.push_back(linalg::gram(result.factors.factor(d)));
    }
    return std::make_pair(std::move(result), std::move(grams));
  };
  const auto [serial, serial_grams] = run(1);
  const auto [parallel, parallel_grams] = run(4);

  for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
    EXPECT_TRUE(same_bits(serial.factors.factor(d).data(),
                          parallel.factors.factor(d).data()))
        << "mode " << d << " factor diverged";
    EXPECT_TRUE(same_bits(serial_grams[d].data(), parallel_grams[d].data()))
        << "mode " << d << " gram diverged";
  }
  EXPECT_TRUE(same_bits(serial.lambda, parallel.lambda));
  EXPECT_TRUE(same_bits(serial.fit_history, parallel.fit_history));
  EXPECT_EQ(std::memcmp(&serial.fit, &parallel.fit, sizeof(double)), 0);
}

TEST_P(AlsUpdateTest, MatchesSerialDoubleReference) {
  ScopedHostParallelism scoped(4);
  const auto tensor = make_tensor(rows());
  CpdOptions opt;
  opt.rank = rank();
  auto platform = sim::make_default_platform(4);
  detail::AlsState state(tensor, opt);
  DenseMatrix& g = state.prepare_mode(0);
  mttkrp_one_mode(platform, tensor, state.factors(), 0, g, opt.mttkrp);
  const FactorSet before = state.factors();
  const DenseMatrix g_copy = g;

  state.update_mode(0, 0.0);
  const CpdResult result = state.take_result();
  const ReferenceUpdate ref = reference_update(before, 0, g_copy);

  // Normwise: a solve is accurate relative to the solution's norm, not
  // per entry (with one row, a tiny lambda_c is a single tiny entry).
  EXPECT_LE(relative_error(result.factors.factor(0).data(), ref.factor),
            1e-5);
  EXPECT_LE(
      relative_error(std::span<const double>(result.lambda), ref.lambda),
      1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    ModeLengthsAndRanks, AlsUpdateTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, kBlock - 1,
                                         kBlock + 1, 4 * kBlock + 7),
                       ::testing::Values(std::size_t{1}, std::size_t{16},
                                         std::size_t{64}, std::size_t{100})),
    [](const auto& p) {
      return "rows" + std::to_string(std::get<0>(p.param)) + "_rank" +
             std::to_string(std::get<1>(p.param));
    });

TEST(BlockedGramTest, SymmetricAndMatchesSerialDouble) {
  for (const std::size_t rows : {std::size_t{1}, kBlock - 1, kBlock + 1,
                                 4 * kBlock + 7}) {
    for (const std::size_t r : {1, 16, 64, 100}) {
      Rng rng(rows * 131 + r);
      DenseMatrix a(rows, r);
      a.fill_random(rng, -1.0f, 1.0f);
      DenseMatrix g;
      {
        ScopedHostParallelism scoped(4);
        g = linalg::gram(a);
      }
      {
        ScopedHostParallelism scoped(1);
        EXPECT_TRUE(same_bits(g.data(), linalg::gram(a).data()))
            << rows << "x" << r << " gram depends on the pool size";
      }
      std::vector<double> ref(r * r, 0.0);
      for (std::size_t row = 0; row < rows; ++row) {
        for (std::size_t i = 0; i < r; ++i) {
          for (std::size_t j = 0; j < r; ++j) {
            ref[i * r + j] += static_cast<double>(a(row, i)) * a(row, j);
          }
        }
      }
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < r; ++j) {
          EXPECT_EQ(g(i, j), g(j, i)) << rows << "x" << r;
          const double scale = std::sqrt(ref[i * r + i] * ref[j * r + j]);
          EXPECT_NEAR(g(i, j), ref[i * r + j], 1e-6 * scale)
              << rows << "x" << r << " entry (" << i << "," << j << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace amped

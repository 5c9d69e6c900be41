#include "linalg/blas.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "util/thread_pool.hpp"

namespace amped::linalg {

namespace {

// Blocks whose partials reduce_row_blocks holds at once: bounds its
// scratch to kReduceWave * out.size() doubles however tall the matrix.
constexpr std::size_t kReduceWave = 64;

std::size_t num_row_blocks(std::size_t rows) {
  return (rows + kRowBlock - 1) / kRowBlock;
}

}  // namespace

void reduce_row_blocks(
    std::size_t rows, std::span<double> out,
    const std::function<void(std::size_t, std::size_t, std::span<double>)>&
        fn) {
  const std::size_t width = out.size();
  const std::size_t blocks = num_row_blocks(rows);
  std::fill(out.begin(), out.end(), 0.0);
  std::vector<double> partials(std::min(blocks, kReduceWave) * width);
  for (std::size_t first = 0; first < blocks; first += kReduceWave) {
    const std::size_t count = std::min(kReduceWave, blocks - first);
    std::fill_n(partials.begin(), count * width, 0.0);
    global_thread_pool().parallel_for(count, [&](std::size_t i) {
      const std::size_t lo = (first + i) * kRowBlock;
      fn(lo, std::min(rows, lo + kRowBlock),
         std::span<double>(partials).subspan(i * width, width));
    });
    for (std::size_t i = 0; i < count; ++i) {
      const double* p = partials.data() + i * width;
      for (std::size_t k = 0; k < width; ++k) out[k] += p[k];
    }
  }
}

namespace {

// Adds the upper triangle of sum_k a_k a_k^T over the K rows at `a`
// (row-major, r columns) into g. K rows per sweep: each g entry is
// loaded and stored once per K products instead of once per product.
template <std::size_t K>
void add_row_products(const value_t* a, std::size_t r, double* g) {
  for (std::size_t i = 0; i < r; ++i) {
    double ai[K];
    for (std::size_t k = 0; k < K; ++k) ai[k] = a[k * r + i];
    double* __restrict gi = g + i * r;
    // From the 8-aligned column at or below the diagonal: whole vectors
    // (the few lower-triangle entries it adds are never read).
    for (std::size_t j = i & ~std::size_t{7}; j < r; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < K; ++k) {
        sum += ai[k] * static_cast<double>(a[k * r + j]);
      }
      gi[j] += sum;
    }
  }
}

}  // namespace

DenseMatrix gram(const DenseMatrix& a) {
  constexpr std::size_t kRows = 4;
  const std::size_t r = a.cols();
  // Upper triangle, row-major R x R.
  std::vector<double> acc(r * r);
  reduce_row_blocks(
      a.rows(), acc,
      [&](std::size_t lo, std::size_t hi, std::span<double> partial) {
        std::size_t row = lo;
        for (; row + kRows <= hi; row += kRows) {
          add_row_products<kRows>(a.row(row).data(), r, partial.data());
        }
        for (; row < hi; ++row) {
          add_row_products<1>(a.row(row).data(), r, partial.data());
        }
      });
  DenseMatrix g(r, r);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = i; j < r; ++j) {
      g(i, j) = g(j, i) = static_cast<value_t>(acc[i * r + j]);
    }
  }
  return g;
}

DenseMatrix hadamard(const DenseMatrix& a, const DenseMatrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  DenseMatrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    c.data()[i] = a.data()[i] * b.data()[i];
  }
  return c;
}

DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b) {
  assert(a.cols() == b.rows());
  DenseMatrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const value_t aik = a(i, k);
      if (aik == value_t{0}) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

double dot(const DenseMatrix& a, const DenseMatrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    acc += static_cast<double>(a.data()[i]) * b.data()[i];
  }
  return acc;
}

}  // namespace amped::linalg

// Small dense linear algebra for CPD-ALS.
//
// ALS needs only rank x rank operations beyond MTTKRP: Gram matrices of
// the tall factor matrices, elementwise (Hadamard) products of those
// Grams, and a solve against the MTTKRP output. The R x R helpers are
// simple loop nests. The tall I_d x R passes (gram, the row solve, the
// normalisation) run in fixed kRowBlock-row blocks on the host pool:
// every reduction keeps one double partial per block and sums the
// partials in block order, so results are bit-identical whatever the
// pool size (AMPED_THREADS / set_host_parallelism).
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "tensor/dense_matrix.hpp"

namespace amped::linalg {

// Rows per block of the blocked row passes. A constant, never derived
// from the thread count: it fixes the reduction order.
inline constexpr std::size_t kRowBlock = 512;

// Deterministic blocked reduction over [0, rows): fn(lo, hi, partial)
// adds block [lo, hi)'s contribution into `partial` (out.size() doubles,
// zeroed per block); the partials are summed into `out` (overwritten) in
// block order. fn must not throw.
void reduce_row_blocks(
    std::size_t rows, std::span<double> out,
    const std::function<void(std::size_t, std::size_t, std::span<double>)>&
        fn);

// C = A^T * A, for a tall matrix A (rows x R): a blocked double-precision
// reduction, rounded once to float. Result is R x R and exactly
// symmetric. The only gram in the library: ALS initialisation, every
// update and checkpoint resume all use it, which keeps resumed runs
// bit-identical.
DenseMatrix gram(const DenseMatrix& a);

// C = A .* B elementwise; shapes must match.
DenseMatrix hadamard(const DenseMatrix& a, const DenseMatrix& b);

// C = A * B (naive triple loop; used only for R x R and validation sizes).
DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b);

// Sum of elementwise products <A, B>; shapes must match.
double dot(const DenseMatrix& a, const DenseMatrix& b);

}  // namespace amped::linalg

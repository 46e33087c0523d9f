/**
 * @file
 * Small dense matrix with the linear algebra the library needs:
 * Cholesky and partial-pivot LU solves, matrix products, transpose.
 *
 * Used by exact linear-Gaussian inference (graph/exact), collaborative
 * filtering, and the MLP in mlsched.  Not meant for large matrices.
 */

#ifndef BPERF_COMMON_MATRIX_H
#define BPERF_COMMON_MATRIX_H

#include <cstddef>
#include <vector>

namespace bperf {

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix filled with `fill`. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /** Identity matrix of size n. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /**
     * Reshape to rows x cols and fill every entry with `fill`.
     * Allocation-free when the existing storage capacity suffices
     * (capacity() never shrinks), which lets hot loops reuse one
     * Matrix across solves of equal size.
     */
    void reset(std::size_t rows, std::size_t cols, double fill = 0.0);

    /** Element storage capacity (for allocation accounting). */
    std::size_t capacity() const { return data_.capacity(); }

    double &operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

    /**
     * Raw row-major storage, element (r, c) at data()[r * cols() + c].
     * No bounds checks — for hot loops where the per-element
     * bp_assert of operator() costs more than the arithmetic.
     */
    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    Matrix operator+(const Matrix &other) const;
    Matrix operator-(const Matrix &other) const;
    Matrix operator*(const Matrix &other) const;
    Matrix operator*(double scalar) const;

    Matrix transpose() const;

    /** Matrix-vector product. Requires v.size() == cols(). */
    std::vector<double> apply(const std::vector<double> &v) const;

    /**
     * Solve A x = b for symmetric positive-definite A via Cholesky.
     * Dies (panic) if the matrix is not SPD within tolerance.
     */
    std::vector<double> solveCholesky(const std::vector<double> &b) const;

    /**
     * Solve A x = b via LU with partial pivoting.
     * Dies (panic) if the matrix is singular within tolerance.
     */
    std::vector<double> solveLU(const std::vector<double> &b) const;

    /** Inverse via LU; requires a square non-singular matrix. */
    Matrix inverse() const;

    /**
     * Inverse of a symmetric positive-definite matrix via one envelope
     * Cholesky factorization: each row is factored from its first
     * nonzero on, and the inverse follows from the Takahashi recurrence
     * L^T A^-1 = L^-1.  O(n w^2 + n^2 w) for envelope width w (w = n
     * for a dense matrix).  Dies if the matrix is not SPD within
     * tolerance.
     */
    Matrix choleskyInverse() const;

    /**
     * choleskyInverse() writing into `out`, with the factorization
     * scratch kept in `lscratch` (one n*n buffer).  Allocation-free
     * when out and lscratch already have the capacity for n*n.
     */
    void choleskyInverseInto(Matrix &out, std::vector<double> &lscratch)
        const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace bperf

#endif // BPERF_COMMON_MATRIX_H

#include "common/matrix.h"

#include <cmath>

#include "common/logging.h"

namespace bperf {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

void
Matrix::reset(std::size_t rows, std::size_t cols, double fill)
{
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

double &
Matrix::operator()(std::size_t r, std::size_t c)
{
    bp_assert(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

double
Matrix::operator()(std::size_t r, std::size_t c) const
{
    bp_assert(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    bp_assert(rows_ == other.rows_ && cols_ == other.cols_,
              "matrix shape mismatch in +");
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] + other.data_[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    bp_assert(rows_ == other.rows_ && cols_ == other.cols_,
              "matrix shape mismatch in -");
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] - other.data_[i];
    return out;
}

Matrix
Matrix::operator*(const Matrix &other) const
{
    bp_assert(cols_ == other.rows_, "matrix shape mismatch in *");
    Matrix out(rows_, other.cols_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = data_[i * cols_ + k];
            if (a == 0.0)
                continue;
            for (std::size_t j = 0; j < other.cols_; ++j)
                out.data_[i * other.cols_ + j] +=
                    a * other.data_[k * other.cols_ + j];
        }
    }
    return out;
}

Matrix
Matrix::operator*(double scalar) const
{
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] * scalar;
    return out;
}

Matrix
Matrix::transpose() const
{
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out(c, r) = (*this)(r, c);
    return out;
}

std::vector<double>
Matrix::apply(const std::vector<double> &v) const
{
    bp_assert(v.size() == cols_, "matrix-vector shape mismatch");
    std::vector<double> out(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < cols_; ++c)
            s += data_[r * cols_ + c] * v[c];
        out[r] = s;
    }
    return out;
}

std::vector<double>
Matrix::solveCholesky(const std::vector<double> &b) const
{
    bp_assert(rows_ == cols_, "solveCholesky requires square matrix");
    bp_assert(b.size() == rows_, "solveCholesky rhs shape mismatch");
    const std::size_t n = rows_;

    // L (lower) such that A = L L^T.
    std::vector<double> L(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double s = (*this)(i, j);
            for (std::size_t k = 0; k < j; ++k)
                s -= L[i * n + k] * L[j * n + k];
            if (i == j) {
                bp_assert(s > 0.0, "matrix not positive definite");
                L[i * n + i] = std::sqrt(s);
            } else {
                L[i * n + j] = s / L[j * n + j];
            }
        }
    }

    // Forward substitution: L y = b.
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t k = 0; k < i; ++k)
            s -= L[i * n + k] * y[k];
        y[i] = s / L[i * n + i];
    }

    // Back substitution: L^T x = y.
    std::vector<double> x(n);
    for (std::size_t ii = n; ii > 0; --ii) {
        const std::size_t i = ii - 1;
        double s = y[i];
        for (std::size_t k = i + 1; k < n; ++k)
            s -= L[k * n + i] * x[k];
        x[i] = s / L[i * n + i];
    }
    return x;
}

std::vector<double>
Matrix::solveLU(const std::vector<double> &b) const
{
    bp_assert(rows_ == cols_, "solveLU requires square matrix");
    bp_assert(b.size() == rows_, "solveLU rhs shape mismatch");
    const std::size_t n = rows_;

    std::vector<double> a = data_;
    std::vector<double> x = b;
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot.
        std::size_t pivot = col;
        double best = std::abs(a[perm[col] * n + col]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double v = std::abs(a[perm[r] * n + col]);
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        bp_assert(best > 1e-300, "singular matrix in solveLU");
        std::swap(perm[col], perm[pivot]);
        std::swap(x[col], x[pivot]);

        const double d = a[perm[col] * n + col];
        for (std::size_t r = col + 1; r < n; ++r) {
            const double f = a[perm[r] * n + col] / d;
            if (f == 0.0)
                continue;
            a[perm[r] * n + col] = 0.0;
            for (std::size_t c = col + 1; c < n; ++c)
                a[perm[r] * n + c] -= f * a[perm[col] * n + c];
            x[r] -= f * x[col];
        }
    }

    // Back substitution.
    std::vector<double> out(n);
    for (std::size_t ii = n; ii > 0; --ii) {
        const std::size_t i = ii - 1;
        double s = x[i];
        for (std::size_t c = i + 1; c < n; ++c)
            s -= a[perm[i] * n + c] * out[c];
        out[i] = s / a[perm[i] * n + i];
    }
    return out;
}

Matrix
Matrix::inverse() const
{
    bp_assert(rows_ == cols_, "inverse requires square matrix");
    const std::size_t n = rows_;
    Matrix out(n, n);
    std::vector<double> e(n, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
        e[c] = 1.0;
        const std::vector<double> col = solveLU(e);
        e[c] = 0.0;
        for (std::size_t r = 0; r < n; ++r)
            out(r, c) = col[r];
    }
    return out;
}

Matrix
Matrix::choleskyInverse() const
{
    Matrix out;
    std::vector<double> lscratch;
    choleskyInverseInto(out, lscratch);
    return out;
}

void
Matrix::choleskyInverseInto(Matrix &out, std::vector<double> &lscratch)
    const
{
    bp_assert(rows_ == cols_, "choleskyInverse requires square matrix");
    const std::size_t n = rows_;

    // lscratch holds L twice: row-major in the lower triangle (row i
    // of L is contiguous for the factorization's dot products) and
    // transposed in the upper triangle (column i of L is contiguous
    // for the inverse).  Entries outside the envelope stay zero.
    lscratch.assign(n * n, 0.0);
    double *L = lscratch.data();

    // Envelope Cholesky A = L L^T (raw pointers: operator()'s bounds
    // assert would dominate these loops).  Row i of L is zero left of
    // the first nonzero of row i of A, so each row is factored over
    // its envelope only: O(n w^2) for envelope width w, and a dense
    // matrix is simply w = n.
    const double *a = data_.data();
    for (std::size_t i = 0; i < n; ++i) {
        const double *ai = a + i * n;
        std::size_t first = 0;
        while (first < i && ai[first] == 0.0)
            ++first;
        double *li = L + i * n;
        for (std::size_t j = first; j <= i; ++j) {
            const double *lj = L + j * n;
            double s = ai[j];
            for (std::size_t k = first; k < j; ++k)
                s -= li[k] * lj[k];
            if (i == j) {
                bp_assert(s > 0.0, "matrix not positive definite");
                li[i] = std::sqrt(s);
            } else {
                li[j] = s / lj[j];
                L[j * n + i] = li[j];
            }
        }
    }

    // Takahashi recurrence L^T A^-1 = L^-1, bottom row up: the part of
    // row i right of the diagonal needs only column i of L (at most w
    // nonzeros) and the rows below, so the whole inverse costs
    // O(n^2 w).  Each finished row is mirrored into its column, which
    // completes the rows below for the rows still to come.
    out.reset(n, n, 0.0);
    double *o = out.data();
    for (std::size_t i = n; i-- > 0;) {
        double *oi = o + i * n;
        const double *lcol = L + i * n; // lcol[k] = L(k, i) for k > i
        for (std::size_t k = i + 1; k < n; ++k) {
            const double l = lcol[k];
            if (l == 0.0)
                continue;
            const double *ok = o + k * n;
            for (std::size_t j = i + 1; j < n; ++j)
                oi[j] -= l * ok[j];
        }
        const double inv_d = 1.0 / lcol[i];
        double s = inv_d;
        for (std::size_t k = i + 1; k < n; ++k) {
            oi[k] *= inv_d;
            s -= lcol[k] * oi[k];
            o[k * n + i] = oi[k];
        }
        oi[i] = s * inv_d;
    }
}

double
Matrix::frobeniusNorm() const
{
    double s = 0.0;
    for (double v : data_)
        s += v * v;
    return std::sqrt(s);
}

} // namespace bperf

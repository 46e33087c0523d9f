/** @file Tests for the dense matrix and linear solves. */

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/rng.h"

namespace bperf {
namespace {

Matrix
randomSpd(std::size_t n, Rng &rng)
{
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            a(r, c) = rng.normal();
    Matrix spd = a * a.transpose();
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += static_cast<double>(n);
    return spd;
}

TEST(Matrix, IdentityProperties)
{
    const Matrix eye = Matrix::identity(4);
    Matrix m(4, 4);
    Rng rng(3);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            m(r, c) = rng.normal();
    const Matrix prod = eye * m;
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            EXPECT_DOUBLE_EQ(prod(r, c), m(r, c));
}

TEST(Matrix, TransposeInvolution)
{
    Rng rng(5);
    Matrix m(3, 5);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            m(r, c) = rng.normal();
    const Matrix tt = m.transpose().transpose();
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            EXPECT_DOUBLE_EQ(tt(r, c), m(r, c));
}

TEST(Matrix, SolveCholeskyRecoversSolution)
{
    Rng rng(7);
    const std::size_t n = 12;
    const Matrix a = randomSpd(n, rng);
    std::vector<double> x_true(n);
    for (double &v : x_true)
        v = rng.normal();
    const std::vector<double> b = a.apply(x_true);
    const std::vector<double> x = a.solveCholesky(b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Matrix, SolveLuHandlesNonSymmetric)
{
    Rng rng(9);
    const std::size_t n = 10;
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            a(r, c) = rng.normal() + (r == c ? 5.0 : 0.0);
    std::vector<double> x_true(n);
    for (double &v : x_true)
        v = rng.normal();
    const std::vector<double> b = a.apply(x_true);
    const std::vector<double> x = a.solveLU(b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Matrix, InverseTimesSelfIsIdentity)
{
    Rng rng(11);
    const Matrix a = randomSpd(8, rng);
    const Matrix prod = a * a.inverse();
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 8; ++c)
            EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-8);
}

/** Symmetric, diagonally dominant (hence SPD) matrix whose entry
 * (r, c), r > c, is nonzero exactly when coupled(r, c). */
template <typename Coupled>
Matrix
structuredSpd(std::size_t n, Rng &rng, Coupled coupled)
{
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < r; ++c)
            if (coupled(r, c))
                a(r, c) = a(c, r) = rng.normal();
    for (std::size_t r = 0; r < n; ++r) {
        double off = 0.0;
        for (std::size_t c = 0; c < n; ++c)
            off += std::abs(a(r, c));
        a(r, r) = off + 1.0 + rng.uniform();
    }
    return a;
}

TEST(Matrix, CholeskyInverseMatchesLuInverse)
{
    // The envelope factorization must agree with LU on every envelope
    // shape: a window's slice-major block-tridiagonal precision, the
    // golden suite's event-major ordering, a dense matrix, an envelope
    // that is not monotone (a late row coupled to column 0), and 1x1.
    Rng rng(13);
    constexpr std::size_t kEvents = 5, kSlices = 4, n = kEvents * kSlices;
    const std::pair<const char *, Matrix> cases[] = {
        {"slice-major", structuredSpd(n, rng,
                                      [](std::size_t r, std::size_t c) {
                                          return r / kEvents == c / kEvents ||
                                                 r - c == kEvents;
                                      })},
        {"event-major",
         structuredSpd(n, rng,
                       [](std::size_t r, std::size_t c) {
                           // Walks along each event's slices, and an
                           // invariant over events 0-2 in each slice.
                           return (r - c == 1 && r / kSlices == c / kSlices) ||
                                  (r % kSlices == c % kSlices &&
                                   r / kSlices < 3);
                       })},
        {"dense", randomSpd(15, rng)},
        {"late row coupled to column 0",
         structuredSpd(n, rng,
                       [](std::size_t r, std::size_t c) {
                           return r - c == 1 || (r == n - 1 && c == 0);
                       })},
        {"1x1", Matrix(1, 1, 4.0)},
    };
    for (const auto &[name, a] : cases) {
        const Matrix inv_lu = a.inverse();
        const Matrix inv_ch = a.choleskyInverse();
        ASSERT_EQ(inv_ch.rows(), a.rows()) << name;
        double scale = 0.0;
        for (std::size_t r = 0; r < a.rows(); ++r)
            for (std::size_t c = 0; c < a.cols(); ++c)
                scale = std::max(scale, std::abs(inv_lu(r, c)));
        for (std::size_t r = 0; r < a.rows(); ++r)
            for (std::size_t c = 0; c < a.cols(); ++c) {
                EXPECT_NEAR(inv_ch(r, c), inv_lu(r, c), 1e-12 * scale)
                    << name << " (" << r << ", " << c << ")";
                EXPECT_EQ(inv_ch(r, c), inv_ch(c, r)) << name;
            }
    }
}

TEST(Matrix, CholeskyInverseIsSymmetric)
{
    Rng rng(17);
    const Matrix inv = randomSpd(9, rng).choleskyInverse();
    for (std::size_t r = 0; r < 9; ++r)
        for (std::size_t c = 0; c < 9; ++c)
            EXPECT_DOUBLE_EQ(inv(r, c), inv(c, r));
}

TEST(MatrixDeathTest, NonSpdPanics)
{
    Matrix m(2, 2);
    m(0, 0) = 1.0;
    m(1, 1) = -1.0;
    EXPECT_DEATH((void)m.choleskyInverse(), "positive definite");
}

TEST(Matrix, ApplyMatchesOperator)
{
    Rng rng(19);
    Matrix a(4, 3);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            a(r, c) = rng.normal();
    const std::vector<double> v = {1.0, -2.0, 0.5};
    const std::vector<double> av = a.apply(v);
    for (std::size_t r = 0; r < 4; ++r) {
        double expect = 0.0;
        for (std::size_t c = 0; c < 3; ++c)
            expect += a(r, c) * v[c];
        EXPECT_NEAR(av[r], expect, 1e-12);
    }
}

TEST(Matrix, FrobeniusNorm)
{
    Matrix m(2, 2);
    m(0, 0) = 3.0;
    m(1, 1) = 4.0;
    EXPECT_DOUBLE_EQ(m.frobeniusNorm(), 5.0);
}

} // namespace
} // namespace bperf

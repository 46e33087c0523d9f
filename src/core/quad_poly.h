/**
 * @file
 * Polynomial exp/log kernels shared by every quadrature backend.
 *
 * The EP quadrature kernel (quad_kernel.*) exists in scalar and AVX2
 * variants that must agree to the last bit: the golden suite
 * pins SIMD-vs-scalar posteriors to <= 1e-10, and the cheapest way to
 * guarantee that is to make all variants run the *same* arithmetic —
 * identical range reductions, identical coefficients, identical FMA
 * placement.  libm's exp/log1p cannot be used on the vector side, so
 * neither side uses them; this header is the single source of truth
 * for the shared constants, and the scalar reference implementations
 * below are written so that each std::fma corresponds 1:1 to a vector
 * FMA in the SIMD translation units.
 *
 * Accuracy: ~2 ulp over the domains the quadrature uses (exp on
 * [-708, 0], log(1+q) for q >= 0), far below the 1e-6 tolerance of
 * the golden posteriors.
 */

#ifndef BPERF_CORE_QUAD_POLY_H
#define BPERF_CORE_QUAD_POLY_H

#include <cmath>
#include <cstdint>
#include <cstring>

namespace bperf {
namespace core {
namespace quadpoly {

// --- shared constants (the SIMD TUs broadcast these) ---------------

inline constexpr double kLog2E = 1.44269504088896338700e+00;
/** ln2 split for Cody-Waite range reduction (hi exact in 32 bits). */
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;

/** exp argument clamp: keeps 2^k in the normal range (and the
 * quadrature never needs weights below e^-708 ~ 3e-308). */
inline constexpr double kExpLoClamp = -708.0;
inline constexpr double kExpHiClamp = 709.0;

/** Taylor coefficients of exp on [-ln2/2, ln2/2]: 1/j!. */
inline constexpr double kExpCoeff[14] = {
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0,
};
inline constexpr std::size_t kExpDegree = 14;

/** atanh-series coefficients: log(m) = 2s * sum c_j s^(2j),
 * s = (m-1)/(m+1), m in [sqrt(2)/2, sqrt(2)), c_j = 1/(2j+1). */
inline constexpr double kLogCoeff[10] = {
    1.0,
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
};
inline constexpr std::size_t kLogDegree = 10;

/** Bit pattern of sqrt(2)/2: the mantissa pivot of the log range
 * reduction (subtracting it folds x into [sqrt(2)/2, sqrt(2))). */
inline constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcdULL;
inline constexpr std::uint64_t kMantissaMask = 0x000fffffffffffffULL;

// --- scalar reference implementations ------------------------------

inline double
bitsToDouble(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

inline std::uint64_t
doubleToBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** exp(y), clamped to [kExpLoClamp, kExpHiClamp]. */
inline double
polyExp(double y)
{
    y = std::min(std::max(y, kExpLoClamp), kExpHiClamp);
    // y = k ln2 + r, |r| <= ln2/2; nearbyint = nearest-even, matching
    // the SIMD round instruction.
    const double kd = std::nearbyint(y * kLog2E);
    double r = std::fma(kd, -kLn2Hi, y);
    r = std::fma(kd, -kLn2Lo, r);
    double p = kExpCoeff[kExpDegree - 1];
    for (std::size_t j = kExpDegree - 1; j-- > 0;)
        p = std::fma(p, r, kExpCoeff[j]);
    // 2^k via the exponent field; k in [-1022, 1024) after the clamp.
    const std::int64_t k = static_cast<std::int64_t>(kd);
    const double scale = bitsToDouble(
        static_cast<std::uint64_t>(k + 1023) << 52);
    return p * scale;
}

/** log(1 + q) for q >= 0 (the quadrature's Student-t term). */
inline double
polyLog1p(double q)
{
    const double a = 1.0 + q; // q >= 0: no cancellation, a >= 1
    // Fold a = m * 2^e with m in [sqrt(2)/2, sqrt(2)).
    const std::uint64_t tmp = doubleToBits(a) - kSqrtHalfBits;
    const double e = static_cast<double>(
        static_cast<std::int64_t>(tmp >> 52));
    const double m = bitsToDouble((tmp & kMantissaMask) + kSqrtHalfBits);
    // log(m) = 2 atanh(s), s = (m-1)/(m+1), |s| <= 0.172.
    const double s = (m - 1.0) / (m + 1.0);
    const double t2 = s * s;
    double p = kLogCoeff[kLogDegree - 1];
    for (std::size_t j = kLogDegree - 1; j-- > 0;)
        p = std::fma(p, t2, kLogCoeff[j]);
    const double two_s = s + s;
    return std::fma(e, kLn2Hi, std::fma(e, kLn2Lo, two_s * p));
}

} // namespace quadpoly
} // namespace core
} // namespace bperf

#endif // BPERF_CORE_QUAD_POLY_H

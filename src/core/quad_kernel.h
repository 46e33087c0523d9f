/**
 * @file
 * The EP moment-matching quadrature kernel: a runtime-dispatched
 * AVX2 variant on x86-64 with a portable scalar fallback.
 *
 * All variants evaluate the same two-pass algorithm over the grid
 *   x_i = lo + step * i,  i = 0 .. points-1:
 *   pass 1: logw_i = -u_i^2/2 - (nu+1)/2 * log(1 + t_i^2/nu) into a
 *           thread-local buffer, tracking the running max;
 *   pass 2: w_i = exp(logw_i - max), accumulating {sum w, sum w x,
 *           sum w x^2} in four interleaved lanes.
 * Both passes use the shared polynomial exp/log of quad_poly.h and
 * the same lane/accumulation order, so scalar and SIMD results are
 * bit-identical — the property the golden suite's SIMD-vs-scalar
 * check rides on.  Outputs are the normalized tilted mean/variance.
 *
 * Dispatch: activeQuadKernel() probes the CPU once (AVX2+FMA via
 * cpuid) and falls back to the scalar kernel when SIMD is
 * unavailable or compiled out (-DBPERF_SIMD=OFF), and on every other
 * ISA.
 */

#ifndef BPERF_CORE_QUAD_KERNEL_H
#define BPERF_CORE_QUAD_KERNEL_H

#include <cstddef>

namespace bperf {
namespace core {

/** Grid and density parameters of one tilted-moment evaluation. */
struct QuadParams
{
    double lo = 0.0;         ///< first grid point
    double step = 0.0;       ///< grid spacing
    std::size_t points = 0;  ///< grid size (<= kMaxQuadPoints)
    double cavityMean = 0.0;
    double invSd = 0.0;      ///< 1 / cavity stddev
    double loc = 0.0;        ///< Student-t location
    double invScale = 0.0;   ///< 1 / Student-t scale
    double halfNup1 = 0.0;   ///< (nu + 1) / 2
    double invNu = 0.0;      ///< 1 / nu
};

/** Moment kernel: writes the normalized tilted mean and variance. */
using QuadKernelFn = void (*)(const QuadParams &params, double &mean_out,
                              double &var_out);

/** Upper bound on QuadParams::points (sizes the log-weight buffer). */
inline constexpr std::size_t kMaxQuadPoints = 2048;

/** Thread-local log-weight buffer shared by all kernel variants. */
double *quadLogWeightBuffer();

/** Portable scalar kernel (also the SIMD parity reference). */
void quadMomentsScalar(const QuadParams &params, double &mean_out,
                       double &var_out);

/** Best kernel for this CPU (scalar when SIMD is off/absent). */
QuadKernelFn activeQuadKernel();

/** Name of the active kernel: "avx2" or "scalar". */
const char *activeQuadKernelName();

#if defined(BPERF_SIMD) && defined(__x86_64__)
/** AVX2+FMA kernel (defined in quad_kernel_avx2.cc). */
void quadMomentsAvx2(const QuadParams &params, double &mean_out,
                     double &var_out);
#endif

} // namespace core
} // namespace bperf

#endif // BPERF_CORE_QUAD_KERNEL_H

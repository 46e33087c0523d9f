/**
 * @file
 * The covariance flush of BlockedJointUpdater: a runtime-dispatched
 * AVX2 kernel with a portable scalar fallback.
 *
 * Both apply `pending` deferred Sherman-Morrison downdates to the
 * stored lower triangle of a row-major n x n covariance:
 *   cov[r][k] -= a_i * W[i][k]  for k <= r,  a_i = C[i] * W[i][r],
 * skipping the updates whose a_i is exactly zero.  A chunk of each row
 * stays in registers across all pending updates, so the row is read
 * and written once per flush instead of once per update.  Every
 * element still takes its subtractions in increasing i, each a
 * rounded multiply then a rounded subtract (no FMA), so the kernels
 * agree bit for bit with each other and with applying the updates one
 * at a time.
 *
 * Dispatch: activeFlushKernel() picks the AVX2 kernel behind the same
 * CPU probe as the quadrature kernel (common/cpu_features.h) and the
 * scalar one otherwise, including -DBPERF_SIMD=OFF builds.
 */

#ifndef BPERF_GRAPH_FLUSH_KERNEL_H
#define BPERF_GRAPH_FLUSH_KERNEL_H

#include <cstddef>

namespace bperf {
namespace graph {

/** Most pending updates one flush applies (sizes the kernels' stack
 * buffers). */
inline constexpr std::size_t kMaxFlushUpdates = 64;

/**
 * Flush kernel: applies to the lower triangle of `cov` the `pending`
 * (<= kMaxFlushUpdates) updates whose columns are the rows of `W`
 * (pending x n) and whose downdate coefficients are `C`.
 */
using FlushKernelFn = void (*)(double *cov, std::size_t n, const double *W,
                               const double *C, std::size_t pending);

/** Portable scalar kernel (also the AVX2 parity reference). */
void flushScalar(double *cov, std::size_t n, const double *W,
                 const double *C, std::size_t pending);

#if defined(BPERF_SIMD) && defined(__x86_64__)
/** AVX2 kernel (defined in flush_kernel_avx2.cc). */
void flushAvx2(double *cov, std::size_t n, const double *W,
               const double *C, std::size_t pending);
#endif

/** Best kernel for this CPU. */
FlushKernelFn activeFlushKernel();

/** Name of the active kernel: "avx2" or "scalar". */
const char *activeFlushKernelName();

} // namespace graph
} // namespace bperf

#endif // BPERF_GRAPH_FLUSH_KERNEL_H

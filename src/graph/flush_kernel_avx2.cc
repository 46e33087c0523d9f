/**
 * AVX2 variant of the covariance flush.  This file is compiled with
 * -mavx2 -ffp-contract=off and without -mfma (CMake adds the flags
 * only on x86-64 with BPERF_SIMD=ON) and otherwise compiles to
 * nothing, so the library never carries AVX2 code it could not have
 * dispatched.
 *
 * Bit-identity contract with flushScalar: every lane performs the
 * scalar kernel's operations on its element — one rounded multiply and
 * one rounded subtract per pending update, in push order.  No FMA is
 * what keeps it exact; do not add -mfma to this file.
 */

#include "graph/flush_kernel.h"

#if defined(BPERF_SIMD) && defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include "common/logging.h"

namespace bperf {
namespace graph {

void
flushAvx2(double *cov, std::size_t n, const double *W, const double *C,
          std::size_t pending)
{
    bp_assert(pending <= kMaxFlushUpdates, "too many pending updates");
    double a[kMaxFlushUpdates];
    const double *w[kMaxFlushUpdates];
    for (std::size_t r = 0; r < n; ++r) {
        std::size_t m = 0;
        for (std::size_t i = 0; i < pending; ++i) {
            const double ai = C[i] * W[i * n + r];
            if (ai == 0.0)
                continue;
            a[m] = ai;
            w[m] = W + i * n;
            ++m;
        }
        if (m == 0)
            continue;
        double *row = cov + r * n;
        std::size_t k = 0;
        // Sixteen elements in four registers: four independent chains
        // hide the subtraction latency.
        for (; k + 16 <= r + 1; k += 16) {
            __m256d x0 = _mm256_loadu_pd(row + k);
            __m256d x1 = _mm256_loadu_pd(row + k + 4);
            __m256d x2 = _mm256_loadu_pd(row + k + 8);
            __m256d x3 = _mm256_loadu_pd(row + k + 12);
            for (std::size_t t = 0; t < m; ++t) {
                const __m256d at = _mm256_set1_pd(a[t]);
                const double *wt = w[t] + k;
                x0 = _mm256_sub_pd(x0,
                                   _mm256_mul_pd(at, _mm256_loadu_pd(wt)));
                x1 = _mm256_sub_pd(
                    x1, _mm256_mul_pd(at, _mm256_loadu_pd(wt + 4)));
                x2 = _mm256_sub_pd(
                    x2, _mm256_mul_pd(at, _mm256_loadu_pd(wt + 8)));
                x3 = _mm256_sub_pd(
                    x3, _mm256_mul_pd(at, _mm256_loadu_pd(wt + 12)));
            }
            _mm256_storeu_pd(row + k, x0);
            _mm256_storeu_pd(row + k + 4, x1);
            _mm256_storeu_pd(row + k + 8, x2);
            _mm256_storeu_pd(row + k + 12, x3);
        }
        for (; k + 4 <= r + 1; k += 4) {
            __m256d x = _mm256_loadu_pd(row + k);
            for (std::size_t t = 0; t < m; ++t)
                x = _mm256_sub_pd(x,
                                  _mm256_mul_pd(_mm256_set1_pd(a[t]),
                                                _mm256_loadu_pd(w[t] + k)));
            _mm256_storeu_pd(row + k, x);
        }
        for (; k <= r; ++k) {
            double x = row[k];
            for (std::size_t t = 0; t < m; ++t)
                x -= a[t] * w[t][k];
            row[k] = x;
        }
    }
}

} // namespace graph
} // namespace bperf

#elif defined(BPERF_SIMD) && defined(__x86_64__)

// Built without -mavx2 (unexpected toolchain): the dispatcher still
// references this symbol, so satisfy it with the scalar kernel —
// bit-identical by the parity contract, just not vectorized.
namespace bperf {
namespace graph {

void
flushAvx2(double *cov, std::size_t n, const double *W, const double *C,
          std::size_t pending)
{
    flushScalar(cov, n, W, C, pending);
}

} // namespace graph
} // namespace bperf

#endif // BPERF_SIMD && __x86_64__ && __AVX2__

#include "graph/flush_kernel.h"

#include "common/cpu_features.h"
#include "common/logging.h"

namespace bperf {
namespace graph {

void
flushScalar(double *cov, std::size_t n, const double *W, const double *C,
            std::size_t pending)
{
    bp_assert(pending <= kMaxFlushUpdates, "too many pending updates");
    double a[kMaxFlushUpdates];
    const double *w[kMaxFlushUpdates];
    for (std::size_t r = 0; r < n; ++r) {
        // The updates that touch row r, in push order.
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
        // Four independent chains hide the subtraction latency.
        for (; k + 4 <= r + 1; k += 4) {
            double x0 = row[k], x1 = row[k + 1], x2 = row[k + 2],
                   x3 = row[k + 3];
            for (std::size_t t = 0; t < m; ++t) {
                const double *wt = w[t] + k;
                x0 -= a[t] * wt[0];
                x1 -= a[t] * wt[1];
                x2 -= a[t] * wt[2];
                x3 -= a[t] * wt[3];
            }
            row[k] = x0;
            row[k + 1] = x1;
            row[k + 2] = x2;
            row[k + 3] = x3;
        }
        for (; k <= r; ++k) {
            double x = row[k];
            for (std::size_t t = 0; t < m; ++t)
                x -= a[t] * w[t][k];
            row[k] = x;
        }
    }
}

FlushKernelFn
activeFlushKernel()
{
#if defined(BPERF_SIMD) && defined(__x86_64__)
    if (cpuHasAvx2Fma())
        return flushAvx2;
#endif
    return flushScalar;
}

const char *
activeFlushKernelName()
{
    return activeFlushKernel() == flushScalar ? "scalar" : "avx2";
}

} // namespace graph
} // namespace bperf

#include "core/quad_kernel.h"

#include <algorithm>

#include "common/cpu_features.h"
#include "common/logging.h"
#include "core/quad_poly.h"

namespace bperf {
namespace core {

double *
quadLogWeightBuffer()
{
    thread_local double buffer[kMaxQuadPoints];
    return buffer;
}

void
quadMomentsScalar(const QuadParams &p, double &mean_out, double &var_out)
{
    bp_assert(p.points >= 2 && p.points <= kMaxQuadPoints,
              "quadrature grid size out of range");
    double *logw = quadLogWeightBuffer();

    // Pass 1: log-weights and their max.  Every arithmetic step here
    // mirrors one vector instruction of the SIMD kernels (max is
    // exact, so its reduction order is free).
    double max_logw = -1e300;
    for (std::size_t i = 0; i < p.points; ++i) {
        const double x =
            std::fma(p.step, static_cast<double>(i), p.lo);
        const double u = (x - p.cavityMean) * p.invSd;
        const double g = (u * u) * -0.5;
        const double t = (x - p.loc) * p.invScale;
        const double q = (t * t) * p.invNu;
        const double lw = std::fma(-p.halfNup1, quadpoly::polyLog1p(q), g);
        logw[i] = lw;
        max_logw = std::max(max_logw, lw);
    }

    // Pass 2: shifted weights into four interleaved accumulator
    // lanes (lane = i mod 4), reduced in the fixed order the SIMD
    // kernels use — keeping scalar and SIMD sums bit-identical.
    // Moments accumulate in coordinates centered on the cavity mean
    // (the tilted mass always has cavity support), so the final
    // m2/z - mean^2 subtraction cancels O(var) terms instead of
    // O(mean^2) — the variance stays accurate even when it is ten
    // orders of magnitude below mean^2.
    double z[4] = {0.0, 0.0, 0.0, 0.0};
    double m1[4] = {0.0, 0.0, 0.0, 0.0};
    double m2[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < p.points; ++i) {
        const std::size_t lane = i & 3;
        const double x =
            std::fma(p.step, static_cast<double>(i), p.lo);
        const double dx = x - p.cavityMean;
        const double w = quadpoly::polyExp(logw[i] - max_logw);
        z[lane] += w;
        m1[lane] = std::fma(w, dx, m1[lane]);
        const double wdx = w * dx;
        m2[lane] = std::fma(wdx, dx, m2[lane]);
    }
    const double zs = (z[0] + z[1]) + (z[2] + z[3]);
    const double m1s = (m1[0] + m1[1]) + (m1[2] + m1[3]);
    const double m2s = (m2[0] + m2[1]) + (m2[2] + m2[3]);

    bp_assert(zs > 0.0, "tilted density vanished on the grid");
    const double mean_off = m1s / zs;
    mean_out = p.cavityMean + mean_off;
    var_out = std::max(m2s / zs - mean_off * mean_off, 1e-30);
}

QuadKernelFn
activeQuadKernel()
{
#if defined(BPERF_SIMD) && defined(__x86_64__)
    if (cpuHasAvx2Fma())
        return quadMomentsAvx2;
#endif
    return quadMomentsScalar;
}

const char *
activeQuadKernelName()
{
#if defined(BPERF_SIMD) && defined(__x86_64__)
    if (activeQuadKernel() == quadMomentsAvx2)
        return "avx2";
#endif
    return "scalar";
}

} // namespace core
} // namespace bperf

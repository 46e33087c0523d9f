/**
 * @file
 * The one CPU probe behind every runtime-dispatched SIMD kernel (EP
 * quadrature, covariance flush), so all of them switch together.
 */

#ifndef BPERF_COMMON_CPU_FEATURES_H
#define BPERF_COMMON_CPU_FEATURES_H

namespace bperf {

/**
 * True when the AVX2 kernels may run: an x86-64 CPU with AVX2 and FMA
 * (probed once via cpuid) in a build with BPERF_SIMD.  Always false
 * elsewhere, including -DBPERF_SIMD=OFF builds.
 */
inline bool
cpuHasAvx2Fma()
{
#if defined(BPERF_SIMD) && defined(__x86_64__)
    static const bool have = __builtin_cpu_supports("avx2") &&
                             __builtin_cpu_supports("fma");
    return have;
#else
    return false;
#endif
}

} // namespace bperf

#endif // BPERF_COMMON_CPU_FEATURES_H

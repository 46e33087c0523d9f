#include "accel/latency.h"

#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "core/ep.h"

namespace bperf {
namespace accel {

namespace {

/** Wall-time of fn() averaged over `iters` calls, in seconds. */
template <typename Fn>
double
timeIt(std::size_t iters, Fn &&fn)
{
    // Warm up caches and branch predictors.
    fn();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i)
        fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count() /
           static_cast<double>(iters);
}

} // namespace

ReadLatencyModel::ReadLatencyModel(LatencyModelConfig config)
    : config_(config)
{
    bp_assert(config_.hostClockGhz > 0.0, "bad host clock");
}

std::uint64_t
ReadLatencyModel::linuxReadCycles() const
{
    // perf_event read(): syscall entry/exit, fd lookup, IPI-free fast
    // path, copy_to_user of the count triple.
    return 3450;
}

std::uint64_t
ReadLatencyModel::rdpmcReadCycles() const
{
    // Userspace rdpmc: fence + rdpmc + mmap-page seqlock + the
    // tEnabled/tRunning scaling math.
    return 1120;
}

std::uint64_t
ReadLatencyModel::bayesPerfCpuCycles() const
{
    // The CPU implementation must refresh the posterior before
    // serving the value: per read, refresh `sitesPerRead` EP sites —
    // quadrature tilted moments plus the rank-1 Sherman-Morrison
    // downdate of the window's n x n covariance (the lower-triangle
    // sweep EP's incremental joint update performs).  Time the real
    // kernels.
    const std::size_t n = config_.windowVariables;
    std::vector<double> cov(n * n, 0.5);
    std::vector<double> col(n, 0.25);
    volatile double sink = 0.0;
    const double seconds = timeIt(config_.timedReads, [&]() {
        double m = 0.0, v = 0.0;
        for (std::size_t s = 0; s < config_.sitesPerRead; ++s) {
            core::tiltedMomentsQuadrature(1.0e6, 4.0e10, 1.05e6, 2.0e5,
                                          3.0, 129, m, v);
            // Rank-1 covariance refresh: one outer-product pass over
            // the stored lower triangle, as EP's joint updates do.
            const double c = 1e-3 * (m * 1e-6 + 1.0);
            for (std::size_t r = 0; r < n; ++r) {
                const double cr = c * col[r];
                double *row = cov.data() + r * n;
                for (std::size_t k = 0; k <= r; ++k)
                    row[k] -= cr * col[k];
            }
        }
        sink = cov[n * n - 1] + v;
    });
    (void)sink;
    return static_cast<std::uint64_t>(
        std::llround(seconds * config_.hostClockGhz * 1e9));
}

std::uint64_t
ReadLatencyModel::bayesPerfAccelCycles(const Accelerator &accel) const
{
    return accel.pollLatencyHostCycles(config_.hostClockGhz,
                                       linuxReadCycles());
}

std::uint64_t
ReadLatencyModel::counterMinerCycles() const
{
    // Online CounterMiner must re-mine its sample window on every
    // read: fit the normal, run the Gumbel test over the trace seen
    // so far, and recompute the imputation.  Time an equivalent
    // mining pass over `counterMinerTrace` samples.
    const std::size_t n = config_.counterMinerTrace;
    Rng rng(17);
    std::vector<double> trace(n);
    for (double &x : trace)
        x = 1.0e6 * (1.0 + 0.3 * rng.normal());
    volatile double sink = 0.0;
    const double seconds = timeIt(config_.timedReads, [&]() {
        // Mining pass: moments, then per-sample Gumbel scores and a
        // robust re-estimate (mirrors CounterMinerEstimator::series).
        double mean = 0.0;
        for (double x : trace)
            mean += x;
        mean /= static_cast<double>(n);
        double var = 0.0;
        for (double x : trace)
            var += (x - mean) * (x - mean);
        var /= static_cast<double>(n - 1);
        const double sd = std::sqrt(var);
        double kept = 0.0;
        std::size_t kept_n = 0;
        for (double x : trace) {
            const double z = std::abs(x - mean) / sd;
            const double phi = 0.5 * std::erfc(-z / std::sqrt(2.0));
            const double score =
                1.0 - std::pow(phi, static_cast<double>(n));
            if (score >= 0.03 || z <= 2.0) {
                kept += x;
                ++kept_n;
            }
        }
        sink = kept / static_cast<double>(kept_n ? kept_n : 1);
    });
    (void)sink;
    return static_cast<std::uint64_t>(
        std::llround(seconds * config_.hostClockGhz * 1e9));
}

std::vector<ReadLatency>
ReadLatencyModel::report(const Accelerator &accel) const
{
    return {
        {"Linux", linuxReadCycles(), false},
        {"Linux+RDPMC", rdpmcReadCycles(), false},
        {"BayesPerf (CPU)", bayesPerfCpuCycles(), true},
        {"BayesPerf (Acc)", bayesPerfAccelCycles(accel), false},
        {"CounterMiner", counterMinerCycles(), true},
    };
}

} // namespace accel
} // namespace bperf

#include "accel/accel_backend.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace bperf {
namespace accel {

namespace {

AcceleratorConfig
engineConfig(const AccelBackendConfig &cfg)
{
    bp_assert(cfg.numEngines >= 1, "accel backend needs >= 1 engine");
    bp_assert(cfg.slicePeriodSeconds > 0.0, "bad slice period");
    AcceleratorConfig engine = cfg.engine;
    // A pool engine is one EP engine with its own samplers;
    // window-level parallelism comes from the pool, not from within a
    // job.
    engine.epEngines = 1;
    engine.mcmcSamplers =
        std::max<std::size_t>(1, cfg.mcmcSamplersPerEngine);
    return engine;
}

InferenceJob
jobShape(const AccelBackendConfig &cfg, const core::WindowJob &job)
{
    InferenceJob shape;
    shape.numVariables = job.numVariables;
    shape.numSites = std::max<std::size_t>(1, job.numSites);
    shape.numSweeps = std::max<std::size_t>(1, job.numSweeps);
    shape.samplesPerSite = cfg.samplesPerSite;
    shape.inputBytes = std::max<std::size_t>(64, job.inputBytes);
    return shape;
}

} // namespace

AccelBackend::AccelBackend(AccelBackendConfig config)
    : config_(config), engine_(engineConfig(config)),
      name_(config.engine.hostInterface == HostInterface::Capi
                ? "accel-capi"
                : "accel-pcie"),
      freeAt_(config.numEngines, 0.0), engineJobs_(config.numEngines, 0),
      engineBusy_(config.numEngines, 0.0)
{
}

double
AccelBackend::serviceSeconds(const core::WindowJob &job) const
{
    return engine_.simulate(jobShape(config_, job)).totalSeconds;
}

core::WindowExecution
AccelBackend::execute(const core::WindowJob &job)
{
    const AcceleratorTiming timing =
        engine_.simulate(jobShape(config_, job));

    const double release =
        static_cast<double>(job.endSlice) * config_.slicePeriodSeconds;

    core::WindowExecution exec;
    exec.serviceSeconds = timing.totalSeconds;
    exec.transferSeconds =
        static_cast<double>(timing.hostTransferCycles) /
        (engine_.config().clockGhz * 1e9);

    std::lock_guard<std::mutex> lock(mutex_);
    // Earliest-start engine wins (ties to the lowest id), jobs run
    // FIFO in arrival order: k engines give k-way window parallelism
    // and anything beyond that waits in queue.
    std::size_t best = 0;
    double best_start = std::max(release, freeAt_[0]);
    for (std::size_t e = 1; e < freeAt_.size(); ++e) {
        const double start = std::max(release, freeAt_[e]);
        if (start < best_start) {
            best = e;
            best_start = start;
        }
    }
    exec.engineId = best;
    exec.endSlice = job.endSlice;
    exec.queueWaitSeconds = best_start - release;
    exec.modeledSeconds = exec.queueWaitSeconds + exec.serviceSeconds;
    freeAt_[best] = best_start + exec.serviceSeconds;
    lastReleaseSeconds_ = std::max(lastReleaseSeconds_, release);
    ++engineJobs_[best];
    engineBusy_[best] += exec.serviceSeconds;

    ++stats_.windowsExecuted;
    stats_.queueWaitSeconds.push(exec.queueWaitSeconds);
    stats_.serviceSeconds.push(exec.serviceSeconds);
    stats_.modeledSeconds.push(exec.modeledSeconds);

    static telemetry::Counter &windows =
        telemetry::MetricsRegistry::global().counter(
            "backend.accel.windows");
    static telemetry::Histogram &queue_ns =
        telemetry::MetricsRegistry::global().histogram(
            "backend.accel.queue_ns");
    static telemetry::Histogram &service_ns =
        telemetry::MetricsRegistry::global().histogram(
            "backend.accel.service_ns");
    windows.add();
    queue_ns.record(
        static_cast<std::uint64_t>(exec.queueWaitSeconds * 1e9));
    service_ns.record(
        static_cast<std::uint64_t>(exec.serviceSeconds * 1e9));
    return exec;
}

core::BackendStats
AccelBackend::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

core::BackendQueueDepth
AccelBackend::queueDepth(double nowSeconds) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    core::BackendQueueDepth depth;
    depth.engines = freeAt_.size();
    depth.nowSeconds = std::max(nowSeconds, lastReleaseSeconds_);
    depth.earliestFreeSeconds =
        *std::min_element(freeAt_.begin(), freeAt_.end());
    depth.latestFreeSeconds =
        *std::max_element(freeAt_.begin(), freeAt_.end());
    depth.queueSeconds = depth.queueSecondsAt(depth.nowSeconds);
    for (double free_at : freeAt_) {
        const double backlog = free_at - depth.nowSeconds;
        if (backlog > 0.0)
            depth.totalBacklogSeconds += backlog;
    }
    return depth;
}

AccelPoolStats
AccelBackend::poolStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    AccelPoolStats out;
    out.engineJobs = engineJobs_;
    out.engineBusySeconds = engineBusy_;
    out.makespanSeconds =
        *std::max_element(freeAt_.begin(), freeAt_.end());
    return out;
}

void
AccelBackend::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = core::BackendStats{};
    std::fill(freeAt_.begin(), freeAt_.end(), 0.0);
    std::fill(engineJobs_.begin(), engineJobs_.end(), 0);
    std::fill(engineBusy_.begin(), engineBusy_.end(), 0.0);
    lastReleaseSeconds_ = 0.0;
}

} // namespace accel
} // namespace bperf

/**
 * @file
 * Accelerator execution backend: completed inference windows from the
 * monitoring service scheduled onto a pool of simulated FPGA EP
 * engines.
 *
 * The paper's accelerator runs k EP engines fed by a shared AcMC2
 * sampler pool; the host streams measurements in over CAPI (ppc64,
 * cache snooping) or PCIe DMA (x86, doorbell + payload).  This
 * backend models that deployment under real window traffic: each pool
 * engine is one EP engine (an accel::Accelerator instance with its
 * slice of the sampler pool), every completed window becomes an
 * InferenceJob released at its stream time (endSlice ticks of the
 * slice clock), and jobs queue FIFO on the earliest-available engine.
 * When live sessions outnumber engines the queues back up, and the
 * stamped WindowExecution exposes exactly the queue-wait / transfer /
 * compute split the bench and tests assert on.
 *
 * Numerics are untouched — posteriors still come from the host EP run
 * that produced the window; only the timing is modeled.
 */

#ifndef BPERF_ACCEL_ACCEL_BACKEND_H
#define BPERF_ACCEL_ACCEL_BACKEND_H

#include <mutex>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "core/backend.h"

namespace bperf {
namespace accel {

/** Pool-level configuration of the accelerator backend. */
struct AccelBackendConfig
{
    /** EP engines accepting whole-window jobs concurrently (the
     * paper's k). */
    std::size_t numEngines = 4;

    /**
     * MCMC sampler IPs attached to each engine (the paper's 12
     * samplers for 4 engines = 3 per engine).  Per-engine, so scaling
     * the pool scales the samplers with it — an engine's service time
     * does not depend on how many siblings it has.
     */
    std::size_t mcmcSamplersPerEngine = 3;

    /**
     * Modeled wall-clock length of one time slice: a window completed
     * by slice t is released to the pool at t * slicePeriodSeconds.
     * This is the stream clock that turns per-session window
     * completions into an arrival process the engines contend over.
     */
    double slicePeriodSeconds = 1e-3;

    /** MCMC samples per tilted-moment estimate (Alg. 1). */
    std::size_t samplesPerSite = 400;

    /**
     * Per-engine accelerator parameters (clock, NoC, host interface,
     * sampler pipeline).  epEngines and mcmcSamplers inside are
     * overridden by the pool split above.
     */
    AcceleratorConfig engine;
};

/** Point-in-time pool statistics. */
struct AccelPoolStats
{
    /** Jobs served by each engine. */
    std::vector<std::uint64_t> engineJobs;
    /** Modeled busy seconds accumulated by each engine. */
    std::vector<double> engineBusySeconds;
    /** Latest modeled completion time across the pool (seconds on the
     * stream clock). */
    double makespanSeconds = 0.0;
};

/**
 * core::InferenceBackend scheduling windows onto k simulated EP
 * engines with per-engine FIFO queues.  Thread-safe; shared by every
 * session of a MonitorService running BackendKind::Accel.
 */
class AccelBackend : public core::InferenceBackend
{
  public:
    explicit AccelBackend(AccelBackendConfig config = {});

    const std::string &name() const override { return name_; }

    /**
     * Schedule one window: released at endSlice * slicePeriodSeconds,
     * placed on the engine that can start it earliest (FIFO per
     * engine), served for the Accelerator-modeled transfer + compute
     * time of the job's shape.
     *
     * The scheduler is online: jobs are placed in the order execute()
     * is called, which under concurrent workers is real thread
     * interleaving, not release order.  Per-session posteriors and
     * service times are unaffected; queue waits (and so the bench's
     * latency percentiles) can jitter run to run under contention,
     * exactly as a live dispatch queue's would.
     */
    core::WindowExecution execute(const core::WindowJob &job) override;

    /**
     * Live pool backlog on the stream clock: how long a window
     * released "now" would wait for the earliest engine.  This is the
     * saturation signal the service's admission controller throttles
     * and sheds on.  "Now" is max(nowSeconds, latest release seen):
     * an idle caller advancing its stream clock sees the backlog
     * drain, instead of the stale last-release snapshot that used to
     * report phantom queue depth across idle gaps.
     */
    core::BackendQueueDepth
    queueDepth(double nowSeconds = 0.0) const override;

    /** Forget all queue state (bench and test reruns). */
    void reset();

    AccelPoolStats poolStats() const;

    const AccelBackendConfig &config() const { return config_; }
    const Accelerator &engineModel() const { return engine_; }

    /** Modeled service seconds (transfer + compute, no queueing) of
     * one job shape on one pool engine. */
    double serviceSeconds(const core::WindowJob &job) const;

  private:
    AccelBackendConfig config_;
    Accelerator engine_; // one pool engine (epEngines = 1)
    std::string name_;

    mutable std::mutex mutex_;
    /** Stream time each engine becomes free. */
    std::vector<double> freeAt_;
    std::vector<std::uint64_t> engineJobs_;
    std::vector<double> engineBusy_;
    /** Latest release time seen ("now" of the queue-depth snapshot). */
    double lastReleaseSeconds_ = 0.0;
};

} // namespace accel
} // namespace bperf

#endif // BPERF_ACCEL_ACCEL_BACKEND_H

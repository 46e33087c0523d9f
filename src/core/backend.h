/**
 * @file
 * Execution backends for completed inference windows.
 *
 * The windowed EP engine always computes posteriors on the host — the
 * numerics are backend-independent.  What a backend decides is *where
 * the window would have executed* and what that execution costs: the
 * host backend stamps the measured wall time of the EP run it just
 * watched, while the accelerator backend (accel/accel_backend.h)
 * schedules the window onto a pool of simulated FPGA EP engines and
 * stamps the modeled transfer + queue + compute latency.  This is how
 * the accelerator timing model of src/accel/ gets driven by the real
 * software pipeline (service sessions, window traffic, contention)
 * instead of synthetic job shapes.
 *
 * Thread contract: execute() may be called concurrently from many
 * workers (one per session being drained); implementations serialize
 * internally.
 */

#ifndef BPERF_CORE_BACKEND_H
#define BPERF_CORE_BACKEND_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/stats.h"

namespace bperf {
namespace core {

/**
 * Shape and provenance of one completed inference window, as handed
 * to a backend the moment the host EP run finishes.
 */
struct WindowJob
{
    /** Owning session (0 for engines outside the service). */
    std::uint64_t sessionKey = 0;
    /** Absolute index of the slice whose arrival completed the
     * window: the window's modeled release time is endSlice ticks of
     * the stream clock. */
    std::size_t endSlice = 0;
    /** Window length in slices. */
    std::size_t windowSlices = 0;
    /** Joint size of the window's factor graph. */
    std::size_t numVariables = 0;
    /** Student-t measurement sites EP refreshed. */
    std::size_t numSites = 0;
    /** EP sweeps until convergence. */
    std::size_t numSweeps = 0;
    /** Measurement + g(theta) bytes streamed into the engine. */
    std::size_t inputBytes = 0;
    /** Measured wall time of the host EP run (seconds). */
    double hostSeconds = 0.0;
};

/**
 * Wall-clock phase stamps of one window's trip through the pipeline
 * (telemetry::nowNanos() time base, which is also the shim's).  A
 * zero stamp means "phase not observed" — telemetry was disabled, or
 * the window was flushed at stream end with no triggering record
 * (the finish() tail leaves ingest/assemble unstamped).  Consumers
 * must treat 0 as absent, never as t=0.
 */
struct WindowSpan
{
    /** Process-unique id tying this window's phases together. */
    std::uint64_t traceId = 0;
    /** The triggering record entered the ring (producer side). */
    std::uint64_t ingestNanos = 0;
    /** The triggering record was drained into the slice assembler. */
    std::uint64_t assembleNanos = 0;
    /** Host EP solve started. */
    std::uint64_t epStartNanos = 0;
    /** Host EP solve finished (backend modeling follows). */
    std::uint64_t epEndNanos = 0;
    /** The window update entered fan-out (sinks, shim, hub). */
    std::uint64_t publishNanos = 0;
};

/** Where and at what modeled cost one window executed. */
struct WindowExecution
{
    /** Engine that served the window (always 0 on the host path). */
    std::size_t engineId = 0;
    /** Slice whose arrival completed the window (copied from the
     * WindowJob so window-completion consumers can place the window
     * on the stream clock). */
    std::size_t endSlice = 0;
    /** Modeled wait for a free engine (0 on the host path). */
    double queueWaitSeconds = 0.0;
    /** Modeled service time: transfer + compute. */
    double serviceSeconds = 0.0;
    /** Host-interface share of the service time. */
    double transferSeconds = 0.0;
    /** End-to-end modeled window latency: queue wait + service. */
    double modeledSeconds = 0.0;
    /** 1-based position of this window in its engine's run order —
     * the stable per-session window id (WindowUpdate.windowId).
     * 0 only for executions that never went through runWindow. */
    std::uint64_t windowOrdinal = 0;
    /** Observed phase stamps (engine-side fields; backends leave
     * this default — the engine stamps it after execute()). */
    WindowSpan span;
};

/** Aggregate accounting of one backend across every window it ran. */
struct BackendStats
{
    std::uint64_t windowsExecuted = 0;
    RunningStats queueWaitSeconds;
    RunningStats serviceSeconds;
    RunningStats modeledSeconds;
};

/**
 * Live modeled queue-depth snapshot of a backend's engine pool, on
 * the stream clock (seconds).  This is the latency signal the
 * service's admission controller feeds back into open()/push()
 * decisions: a window released "now" would wait `queueSeconds` for
 * the earliest engine to free up.
 */
struct BackendQueueDepth
{
    /** Engines in the pool (1 on the host path). */
    std::size_t engines = 1;
    /** Latest window release time the backend has seen. */
    double nowSeconds = 0.0;
    /** Stream time the earliest engine becomes free. */
    double earliestFreeSeconds = 0.0;
    /** Stream time the busiest engine becomes free. */
    double latestFreeSeconds = 0.0;
    /** max(0, earliestFree - now): the wait a window released at
     * nowSeconds would experience.  Always 0 on the host path. */
    double queueSeconds = 0.0;
    /** Sum over engines of their backlog beyond nowSeconds. */
    double totalBacklogSeconds = 0.0;

    /** Wait a window released at `atSeconds` would experience. */
    double queueSecondsAt(double atSeconds) const
    {
        const double wait = earliestFreeSeconds - atSeconds;
        return wait > 0.0 ? wait : 0.0;
    }
};

/**
 * A place completed windows execute.  Implementations must be safe to
 * share across sessions and worker threads.
 */
class InferenceBackend
{
  public:
    virtual ~InferenceBackend() = default;

    /** Short identifier ("host", "accel-capi", "accel-pcie"). */
    virtual const std::string &name() const = 0;

    /** Account one completed window; returns its modeled execution. */
    virtual WindowExecution execute(const WindowJob &job) = 0;

    /** Aggregate statistics snapshot. */
    virtual BackendStats stats() const = 0;

    /**
     * Live queue-depth snapshot.  The host path never queues, so the
     * default is an all-zero snapshot; pooled backends report their
     * modeled backlog for admission-control feedback.
     *
     * `nowSeconds` is the caller's stream clock ("now" on the release
     * timeline).  Pooled backends clamp their internal release clock
     * up to it, so backlog drains across idle gaps instead of staying
     * frozen at the last release (a stale "now" used to report
     * phantom queue depth to the admission controller).  Pass 0 to
     * read at the backend's own last-release clock.
     */
    virtual BackendQueueDepth queueDepth(double nowSeconds = 0.0) const
    {
        (void)nowSeconds;
        return BackendQueueDepth{};
    }

    /** Forget all queue state and statistics (bench reruns). */
    virtual void reset() = 0;
};

/**
 * The host CPU path: windows execute where they always did, so the
 * modeled latency is the measured EP wall time and nothing queues.
 */
class HostBackend : public InferenceBackend
{
  public:
    const std::string &name() const override { return name_; }
    WindowExecution execute(const WindowJob &job) override;
    BackendStats stats() const override;
    void reset() override;

  private:
    const std::string name_ = "host";
    mutable std::mutex mutex_;
    BackendStats stats_;
};

} // namespace core
} // namespace bperf

#endif // BPERF_CORE_BACKEND_H

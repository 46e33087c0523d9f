/**
 * @file
 * One live monitoring session inside the BayesPerf service.
 *
 * A session owns the three per-tenant pieces of the pipeline: the
 * SPSC sample ring its producer writes into (perf mmap semantics —
 * drop-on-full backpressure), the streaming windowed-inference engine
 * a worker drains it into, and the scheduling/statistics state the
 * service uses to multiplex many sessions over few workers.  It is
 * also where completed windows meet the stream clock: each one is
 * dispatched to the service's execution backend and stamped with its
 * trip through the pipeline before it is published.
 *
 * Thread roles:
 *   - exactly one producer thread calls offer();
 *   - exactly one worker at a time holds the session in Running state
 *     and calls drain()/finishStream() (the state machine enforces
 *     this — see SessionState); it alone touches the engine and the
 *     session's one WindowUpdate;
 *   - any thread may read statsSnapshot().  Posteriors leave the
 *     session only through the window sink (subscriptions, snapshot
 *     shim) and the close report.
 */

#ifndef BPERF_SERVICE_SESSION_H
#define BPERF_SERVICE_SESSION_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/backend.h"
#include "service/streaming_inference.h"
#include "service/subscription.h"
#include "sim/ring_buffer.h"

namespace bperf {
namespace service {

/** Service-wide session identifier. */
using SessionId = std::uint64_t;

/**
 * Work-scheduling state of a session (the classic dirty-flag actor
 * protocol).  Transitions:
 *   Idle -> Queued          producer enqueued work (session goes on
 *                           the worker pool's run queue)
 *   Queued -> Running       a worker claimed the session
 *   Running -> RunningDirty producer enqueued more work mid-drain
 *   RunningDirty -> Running the worker loops to drain again
 *   Running -> Idle         the worker found no follow-up work
 * A session is drained by at most one worker at any moment, which is
 * what makes the SPSC ring's single-consumer contract hold.
 */
enum class SessionState : int { Idle, Queued, Running, RunningDirty };

/** Per-session configuration. */
struct SessionConfig
{
    /**
     * Service sessions are long-lived, so unlike the batch engine
     * they cap posterior history by default (the close report then
     * covers the last retainSlices slices; see
     * InferenceConfig::retainSlices).  Set to 0 to keep everything.
     */
    static constexpr std::size_t kDefaultRetainSlices = 4096;

    SessionConfig() { streaming.inference.retainSlices = kDefaultRetainSlices; }

    /** Capacity of the sample ring (records, i.e. PMI window reads). */
    std::size_t queueCapacity = 1 << 12;

    StreamingConfig streaming;
};

/** Point-in-time statistics of one session. */
struct SessionStats
{
    std::uint64_t recordsOffered = 0;  // pushed + dropped
    std::uint64_t recordsIngested = 0; // accepted into the ring
    std::uint64_t recordsDropped = 0;  // ring backpressure drops
    std::uint64_t recordsRejected = 0; // malformed / out of order
    std::uint64_t slicesAssembled = 0;
    std::uint64_t windowsRun = 0;
    std::uint64_t epSweeps = 0;
    std::uint64_t drainPasses = 0;
    double inferSeconds = 0.0;
    /** Per-window EP latency distribution (seconds). */
    RunningStats windowSeconds;
    /** Modeled per-window latency on the execution backend (equals
     * windowSeconds on the host backend; queue wait + transfer +
     * compute of the simulated engine pool on the accel backend). */
    RunningStats modeledWindowSeconds;
    /** Modeled wait for a free backend engine (0 on the host path). */
    RunningStats backendQueueSeconds;

    /** Accumulate another session's (or snapshot's) numbers. */
    void merge(const SessionStats &other);
};

/**
 * Live per-session state.  Created by MonitorService::open and owned
 * via shared_ptr by the registry and any in-flight workers.
 */
class Session
{
  public:
    /**
     * Called once per completed window, from whichever worker (or
     * closing thread) ran it.  The service points this at its
     * subscription hub and admission controller.
     */
    using WindowSink = std::function<void(const WindowUpdate &)>;

    /** `backend` is the service's shared execution backend; it must
     * outlive the session. */
    Session(SessionId id, const sim::MicroarchDescriptor &uarch,
            std::vector<sim::EventId> events, SessionConfig config,
            core::InferenceBackend &backend, std::string tenant = {},
            WindowSink window_sink = nullptr);

    SessionId id() const { return id_; }
    /** Admission-control tenant this session belongs to. */
    const std::string &tenant() const { return tenant_; }
    const std::vector<sim::EventId> &events() const
    {
        return inference_.events();
    }

    /**
     * Producer side: enqueue one sample record.  Returns false when
     * the ring is full (the record is dropped and counted).
     */
    bool offer(const sim::PerfRecord &rec);

    /**
     * Worker side (requires Running state): pop every available
     * record into the streaming engine.  Returns records drained.
     */
    std::size_t drain();

    /**
     * Worker side: flush the assembler and run tail windows.  Called
     * once when the session closes.
     */
    void finishStream();

    /** Take the full posterior result (close path, worker-held). */
    core::InferenceResult takeResult() { return inference_.takeResult(); }

    /** Consistent statistics snapshot.  Safe from any thread. */
    SessionStats statsSnapshot() const;

    std::size_t queueSize() const { return queue_.size(); }

    std::atomic<SessionState> state{SessionState::Idle};

  private:
    void publishStats(bool drain_pass);
    /** Dispatch, stamp, account and publish the windows just run;
     * the stamps are those of the record that completed them (0 for
     * finish() tail windows). */
    void harvestWindows(std::uint64_t ingest_nanos,
                        std::uint64_t assemble_nanos);

    const SessionId id_;
    const std::string tenant_;
    sim::RingBuffer queue_;
    StreamingInference inference_;
    core::InferenceBackend &backend_;
    WindowSink windowSink_;
    /** Windows already handed to the sink (completion counter). */
    std::uint64_t windowsReported_ = 0;
    /** Highest producer slice drained: the earliest release time of
     * a window completed now. */
    std::size_t releaseFloor_ = 0;
    /** Reused buffer for the engine's window records. */
    std::vector<core::WindowRecord> windows_;
    /** The one summary every window goes out as (session id and
     * events set at construction; the rest refilled per window). */
    WindowUpdate update_;

    /** Guards the worker-written statistics below. */
    mutable std::mutex statsMutex_;
    SessionStats stats_;
};

} // namespace service
} // namespace bperf

#endif // BPERF_SERVICE_SESSION_H

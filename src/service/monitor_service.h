/**
 * @file
 * The BayesPerf monitoring daemon: many concurrent sessions, one
 * shared worker pool, streaming windowed inference per session.
 *
 * Pipeline (per session):
 *
 *   producer -> SPSC ring (perf mmap semantics, drop-on-full)
 *            -> worker pool drain -> SliceAssembler
 *            -> WindowedInference (EP per window, carry-over priors)
 *            -> posterior series / latest-posterior snapshot
 *
 * Scheduling: a session transitions Idle -> Queued when its producer
 * delivers records, is claimed Queued -> Running by exactly one
 * worker, and producers arriving mid-drain mark it RunningDirty so
 * the same worker loops — each session is single-consumer while the
 * pool stays fully work-conserving across sessions.
 */

#ifndef BPERF_SERVICE_MONITOR_SERVICE_H
#define BPERF_SERVICE_MONITOR_SERVICE_H

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "accel/accel_backend.h"
#include "core/backend.h"
#include "service/admission.h"
#include "service/session.h"
#include "service/session_registry.h"
#include "service/snapshot_publisher.h"
#include "service/subscription.h"
#include "service/worker_pool.h"
#include "sim/microarch.h"
#include "telemetry/trace.h"

namespace bperf {
namespace service {

/** Which execution backend completed windows are accounted against. */
enum class BackendKind {
    /** Windows execute where EP actually ran: the host CPU. */
    Host,
    /** Windows are scheduled onto the simulated FPGA EP-engine pool
     * (accel::AccelBackend); posteriors are unchanged, latency is
     * modeled. */
    Accel,
};

/** Service-wide configuration. */
struct MonitorServiceConfig
{
    /** Inference worker threads shared by all sessions. */
    std::size_t numWorkers = 4;

    /** Registry shards (lock granularity of session lookup). */
    std::size_t numShards = 16;

    /** Defaults applied to sessions opened without overrides. */
    SessionConfig sessionDefaults;

    /** Execution backend every session's windows run on. */
    BackendKind backend = BackendKind::Host;

    /** Engine-pool parameters when backend == BackendKind::Accel. */
    accel::AccelBackendConfig accel;

    /**
     * Admission control (disabled by default).  When the backend is
     * Accel, the controller's stream clock is aligned with the pool's
     * slicePeriodSeconds automatically so latency feedback and window
     * releases share one time base.
     */
    AdmissionConfig admission;

    /** Bound of each window-subscription queue (drop-oldest beyond). */
    std::size_t subscriberQueueCapacity = 256;

    /**
     * Posterior snapshot shim (disabled by default): mirror every
     * session's latest window posterior into a seqlock snapshot
     * table that consumers poll wait-free — in-process, or from
     * another process when `snapshot.shmName` names a POSIX shm
     * segment (the paper's consumer interface).
     */
    SnapshotConfig snapshot;

    /**
     * Optional trace sink: every completed window's span is recorded
     * here (from the worker that ran it) for Chrome-trace export.
     * Not owned; must outlive the service.  nullptr disables tracing.
     */
    telemetry::TraceCollector *trace = nullptr;
};

/** Aggregate statistics across live and closed sessions. */
struct ServiceStats
{
    std::uint64_t sessionsOpened = 0;
    std::uint64_t sessionsClosed = 0;
    std::size_t sessionsLive = 0;
    /** Sums over every session ever opened. */
    SessionStats totals;
    /** Active execution backend; its per-window accounting is in
     * totals (windowsRun, modeledWindowSeconds, backendQueueSeconds). */
    std::string backendName;
    /** Live modeled queue depth of the backend's engine pool. */
    core::BackendQueueDepth backendQueue;
    /** Per-tenant admission accounting (empty when disabled). */
    std::vector<TenantAdmissionStats> admission;
    /** Snapshot-shim publish accounting (enabled == false when the
     * shim is off). */
    SnapshotPublisherStats snapshot;
    /** Process-wide bp_warn / bp_error(+fatal) counts, mirrored from
     * the telemetry registry (counted even when telemetry is off). */
    std::uint64_t logWarnings = 0;
    std::uint64_t logErrors = 0;
};

/** Typed outcome of an admission-controlled open. */
struct OpenResult
{
    /** The session id, when admitted. */
    std::optional<SessionId> id;
    /** AdmissionError::None when admitted, else the denial reason. */
    AdmissionError error = AdmissionError::None;

    bool admitted() const { return id.has_value(); }
};

/** Everything a closed session hands back. */
struct SessionReport
{
    SessionId id = 0;
    std::vector<sim::EventId> events;
    core::InferenceResult posterior;
    SessionStats stats;
};

/**
 * Concurrent multi-session BayesPerf monitoring service.
 *
 * Thread contract: open/close/stats/latest may be called from any
 * thread; ingest/ingestBatch for one session must come from a single
 * producer thread at a time (the SPSC ring's producer side).
 */
class MonitorService
{
  public:
    explicit MonitorService(const sim::MicroarchDescriptor &uarch,
                            MonitorServiceConfig config = {});
    ~MonitorService();

    MonitorService(const MonitorService &) = delete;
    MonitorService &operator=(const MonitorService &) = delete;

    /**
     * Open a session monitoring `events` (fixed counters are always
     * added, perf_event_open style).  Dies if an event cannot be
     * scheduled on this PMU at all.  `overrides` replaces the
     * service-wide session defaults when given.
     *
     * Admission-blind convenience form: attributes the session to the
     * anonymous tenant and dies if admission control rejects it —
     * callers running with admission enabled should use the tenant
     * overload and handle the typed denial.
     */
    SessionId open(const std::vector<sim::EventId> &events,
                   const SessionConfig *overrides = nullptr);

    /**
     * Admission-controlled open on behalf of `tenant`: the tenant's
     * session quota and the backend's modeled queue depth are
     * consulted first, and a denial comes back as a typed
     * AdmissionError instead of a session id.
     */
    OpenResult open(const std::string &tenant,
                    const std::vector<sim::EventId> &events,
                    const SessionConfig *overrides = nullptr);

    /**
     * Deliver one sample record.  Returns false when the session is
     * unknown, admission control throttled/shed the record, or the
     * record was dropped by ring backpressure.
     */
    bool ingest(SessionId id, const sim::PerfRecord &rec);

    /**
     * Deliver a batch with one session lookup and one worker
     * notification.  Returns the number of records accepted.
     */
    std::size_t ingestBatch(SessionId id,
                            const std::vector<sim::PerfRecord> &records);

    /**
     * Close a session: drain whatever is still queued, flush the
     * assembler, run the tail windows and return the full posterior.
     * The producer must have stopped ingesting.  nullopt for unknown
     * ids.
     */
    std::optional<SessionReport> close(SessionId id);

    /** Monitored events of a live session (empty if unknown). */
    std::vector<sim::EventId> monitoredEvents(SessionId id) const;

    /** Latest posterior of one event of one session; nullopt before
     * the first inferred window or for unknown ids/events. */
    std::optional<core::PosteriorPoint> latest(SessionId id,
                                               sim::EventId event) const;

    /** Block until every delivered record has been processed.  Safe
     * from any thread except a subscription callback (the dispatcher
     * must not wait on the pool it is downstream of). */
    void quiesce() { pool_.quiesce(); }

    /**
     * Subscribe to a session's window completions: `callback` runs on
     * the hub's dispatcher thread once per completed window, with the
     * window's posterior summary and modeled execution.  A slow
     * consumer's queue drops its oldest updates (drop-and-count);
     * callbacks must not call close() or the service destructor.
     * nullopt for unknown session ids.
     */
    std::optional<SubscriptionId> subscribe(SessionId id,
                                            WindowCallback callback);

    /** Remove a subscription; false for unknown ids. */
    bool unsubscribe(SubscriptionId id);

    /** Delivery accounting of one subscription (survives
     * unsubscribe; nullopt for never-known ids). */
    std::optional<SubscriptionStats>
    subscriptionStats(SubscriptionId id) const;

    /** Block until every published window update has been delivered
     * (or dropped).  Pair with quiesce() in tests and shutdown. */
    void flushSubscriptions() { hub_.flush(); }

    /** Admission controller (quota edits, per-tenant stats). */
    AdmissionController &admission() { return admission_; }
    const AdmissionController &admission() const { return admission_; }

    /**
     * The exported posterior snapshot table; nullptr when the shim is
     * disabled.  In-process consumers construct a
     * shim::SnapshotReader over it; cross-process consumers attach by
     * the configured shm name instead.  Safe from any thread.
     */
    const shim::SnapshotRegion *snapshotRegion() const
    {
        return snapshot_ ? &snapshot_->region() : nullptr;
    }

    /** Aggregate statistics (live sessions + closed accumulator);
     * one coherent snapshot, safe from any thread. */
    ServiceStats stats() const;

    /**
     * Publish the monitor's own health metrics through the snapshot
     * shim under SnapshotPublisher::kSelfMetricsSessionId, so a
     * shim_reader in another process watches the monitor exactly like
     * a tenant.  Metric ids are the SelfMetricId enum below.  False
     * when the shim is disabled or its table is full.
     */
    bool publishSelfMetrics();

    /**
     * Stamp the snapshot segment's writer heartbeat without
     * publishing anything — an idle daemon's keepalive, so attached
     * readers watching writerIdleNanos() can tell "alive but quiet"
     * from "dead".  No-op when the shim is disabled.
     */
    void heartbeatSnapshot();

    /**
     * Shim "event ids" of the self-metrics slot.  A reader sees
     * (id, mean) pairs; the mean carries the metric value and the
     * variance is always 0.
     */
    enum SelfMetricId : sim::EventId {
        SelfSessionsLive = 1,
        SelfWindowsRun = 2,
        SelfRecordsIngested = 3,
        SelfRecordsDropped = 4,
        SelfEpSweeps = 5,
        SelfLogWarnings = 6,
        SelfLogErrors = 7,
        SelfShimPublishes = 8,
        SelfEpWindowP99Nanos = 9,
    };

    /** Live session count (registry size).  Safe from any thread. */
    std::size_t openSessions() const { return registry_.size(); }
    /** The microarchitecture every session monitors against. */
    const sim::MicroarchDescriptor &uarch() const { return uarch_; }
    /** The configuration the service was built with (immutable). */
    const MonitorServiceConfig &config() const { return config_; }

    /** Engine-pool view of the backend; nullptr on the host path. */
    const accel::AccelBackend *accelBackend() const
    {
        return config_.backend == BackendKind::Accel
                   ? static_cast<const accel::AccelBackend *>(
                         backend_.get())
                   : nullptr;
    }

  private:
    /** Worker callback: claim and drain one queued session. */
    void processSession(SessionId id);

    /** Producer-side: make sure a worker will visit the session. */
    void notifyWork(Session &session);

    /** Record's position on the admission stream clock. */
    double streamSeconds(const sim::PerfRecord &rec) const
    {
        return static_cast<double>(rec.slice) *
               admission_.config().slicePeriodSeconds;
    }

    const sim::MicroarchDescriptor &uarch_;
    MonitorServiceConfig config_;
    /** Shared by every session; must outlive the workers (pool_ is
     * the last member, so it is destroyed first). */
    std::unique_ptr<core::InferenceBackend> backend_;
    /** Reads backend_'s modeled queue; must outlive the workers. */
    AdmissionController admission_;
    SessionRegistry registry_;

    mutable std::mutex closedMutex_;
    SessionStats closedTotals_;
    /** Sessions between registry erase and closed-totals merge. */
    std::vector<std::shared_ptr<Session>> closing_;
    std::uint64_t sessionsOpened_ = 0;
    std::uint64_t sessionsClosed_ = 0;

    /** Workers mirror window posteriors here (snapshot shim); like
     * the hub it must be destroyed after the pool stops publishing.
     * nullptr when the shim is disabled. */
    std::unique_ptr<SnapshotPublisher> snapshot_;

    /** Workers publish window updates here, so the hub is destroyed
     * after the pool: publishes stop, then the dispatcher joins. */
    SubscriptionHub hub_;

    /** Last member: workers must stop before anything else dies. */
    WorkerPool pool_;
};

} // namespace service
} // namespace bperf

#endif // BPERF_SERVICE_MONITOR_SERVICE_H

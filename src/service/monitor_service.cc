#include "service/monitor_service.h"

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "common/logging.h"
#include "core/bayesperf.h"
#include "telemetry/telemetry.h"

namespace bperf {
namespace service {

namespace {

std::unique_ptr<core::InferenceBackend>
makeBackend(const MonitorServiceConfig &config)
{
    if (config.backend == BackendKind::Accel)
        return std::make_unique<accel::AccelBackend>(config.accel);
    return std::make_unique<core::HostBackend>();
}

/** Admission config with its stream clock aligned to the pool's. */
AdmissionConfig
alignedAdmission(const MonitorServiceConfig &config)
{
    AdmissionConfig admission = config.admission;
    if (config.backend == BackendKind::Accel)
        admission.slicePeriodSeconds = config.accel.slicePeriodSeconds;
    return admission;
}

} // namespace

MonitorService::MonitorService(const sim::MicroarchDescriptor &uarch,
                               MonitorServiceConfig config)
    : uarch_(uarch), config_(config), backend_(makeBackend(config)),
      admission_(alignedAdmission(config), backend_.get()),
      registry_(config.numShards),
      snapshot_(config.snapshot.enabled
                    ? std::make_unique<SnapshotPublisher>(config.snapshot)
                    : nullptr),
      hub_(config.subscriberQueueCapacity),
      pool_(config.numWorkers, [this](SessionId id) { processSession(id); })
{
}

MonitorService::~MonitorService() = default;

SessionId
MonitorService::open(const std::vector<sim::EventId> &events,
                     const SessionConfig *overrides)
{
    const OpenResult result = open(std::string{}, events, overrides);
    bp_assert(result.admitted(),
              "admission rejected an untargeted open ("
                  << admissionErrorName(result.error)
                  << "); use the tenant overload under admission control");
    return *result.id;
}

OpenResult
MonitorService::open(const std::string &tenant,
                     const std::vector<sim::EventId> &events,
                     const SessionConfig *overrides)
{
    const AdmissionError verdict = admission_.admitSession(tenant);
    if (verdict != AdmissionError::None)
        return OpenResult{std::nullopt, verdict};

    std::vector<sim::EventId> monitored =
        core::resolveMonitoredSet(uarch_, events);

    const SessionConfig &cfg =
        overrides != nullptr ? *overrides : config_.sessionDefaults;
    const SessionId id = registry_.allocateId();
    // A session is exported through the snapshot shim only if a slot
    // is free and its event set fits one; otherwise it still runs,
    // un-exported, and its windows count as snapshot drops.
    std::optional<std::size_t> snapshot_slot;
    if (snapshot_)
        snapshot_slot = snapshot_->allocate(id, monitored.size());
    // Every completed window flows to the snapshot table (freshest
    // posterior first, so a shim poll never lags the push path), the
    // subscription hub, and the tenant's in-flight window accounting.
    Session::WindowSink sink = [this, tenant,
                                snapshot_slot](const WindowUpdate &u) {
        admission_.windowExecuted(tenant, u.execution);
        if (snapshot_) {
            if (snapshot_slot)
                snapshot_->publish(*snapshot_slot, u);
            else
                snapshot_->countDrop();
        }
        hub_.publish(u);
        if (config_.trace != nullptr)
            config_.trace->addWindow(u.sessionId, u.windowId, u.execution);
    };
    // The session dispatches its windows to the service's backend.
    registry_.insert(std::make_shared<Session>(id, uarch_, std::move(monitored),
                                               cfg, *backend_, tenant,
                                               std::move(sink)));
    {
        std::lock_guard<std::mutex> lock(closedMutex_);
        ++sessionsOpened_;
    }
    return OpenResult{id, AdmissionError::None};
}

void
MonitorService::notifyWork(Session &session)
{
    for (;;) {
        SessionState state = session.state.load(std::memory_order_acquire);
        switch (state) {
          case SessionState::Idle:
            if (session.state.compare_exchange_weak(state,
                                                    SessionState::Queued)) {
                pool_.submit(session.id());
                return;
            }
            break;
          case SessionState::Running:
            if (session.state.compare_exchange_weak(
                    state, SessionState::RunningDirty))
                return;
            break;
          case SessionState::Queued:
          case SessionState::RunningDirty:
            // A visit is already guaranteed to see this record: the
            // claiming worker drains after clearing the dirty flag.
            return;
        }
    }
}

void
MonitorService::processSession(SessionId id)
{
    const std::shared_ptr<Session> session = registry_.find(id);
    if (!session)
        return; // closed between submit and pop
    SessionState expected = SessionState::Queued;
    if (!session->state.compare_exchange_strong(expected,
                                                SessionState::Running))
        return; // a closer claimed the session first
    for (;;) {
        session->drain();
        expected = SessionState::Running;
        if (session->state.compare_exchange_strong(expected,
                                                   SessionState::Idle))
            return;
        // RunningDirty: records arrived mid-drain; loop.
        bp_assert(expected == SessionState::RunningDirty,
                  "unexpected session state " << static_cast<int>(expected));
        session->state.store(SessionState::Running,
                             std::memory_order_release);
    }
}

bool
MonitorService::ingest(SessionId id, const sim::PerfRecord &rec)
{
    const std::shared_ptr<Session> session = registry_.find(id);
    if (!session)
        return false;
    if (admission_.enabled() &&
        admission_.admitRecord(session->tenant(), streamSeconds(rec)) !=
            AdmissionError::None)
        return false;
    const bool accepted = session->offer(rec);
    if (accepted)
        notifyWork(*session);
    return accepted;
}

std::size_t
MonitorService::ingestBatch(SessionId id,
                            const std::vector<sim::PerfRecord> &records)
{
    const std::shared_ptr<Session> session = registry_.find(id);
    if (!session)
        return 0;
    const bool gated = admission_.enabled();
    std::size_t accepted = 0;
    for (const auto &rec : records) {
        if (gated && admission_.admitRecord(session->tenant(),
                                            streamSeconds(rec)) !=
                         AdmissionError::None)
            continue;
        if (session->offer(rec) && ++accepted == 1) {
            // Wake a worker on the first accepted record so a batch
            // larger than the ring drains concurrently instead of
            // guaranteeing overflow drops.
            notifyWork(*session);
        }
    }
    if (accepted > 0) {
        // Re-notify after the last push: the worker may have gone
        // Idle between our offers, missing the tail of the batch.
        notifyWork(*session);
    }
    return accepted;
}

std::optional<SessionReport>
MonitorService::close(SessionId id)
{
    std::shared_ptr<Session> session = registry_.find(id);
    if (!session)
        return std::nullopt;

    // Keep the session visible to stats() through every step of the
    // close: it joins closing_ BEFORE leaving the registry (stats()
    // dedups by id), and leaves closing_ in the same critical
    // section that merges it into the closed totals — so aggregate
    // counters never transiently lose a session.
    {
        std::lock_guard<std::mutex> lock(closedMutex_);
        closing_.push_back(session);
    }
    if (!registry_.erase(id)) {
        // A concurrent close() of the same id won the race.
        std::lock_guard<std::mutex> lock(closedMutex_);
        closing_.erase(std::find(closing_.begin(), closing_.end(), session));
        return std::nullopt;
    }

    // Claim the session away from the workers.  After the erase no
    // new visits can be scheduled; a worker still holding the session
    // finishes its drain and parks it Idle (or leaves it Queued in
    // the pool queue, where the visit will miss the registry lookup).
    for (;;) {
        SessionState state = SessionState::Idle;
        if (session->state.compare_exchange_strong(state,
                                                   SessionState::Running))
            break;
        state = SessionState::Queued;
        if (session->state.compare_exchange_strong(state,
                                                   SessionState::Running))
            break;
        std::this_thread::yield();
    }

    session->drain();
    session->finishStream();

    SessionReport report;
    report.id = id;
    report.events = session->events();
    report.stats = session->statsSnapshot();
    report.posterior = session->takeResult();
    {
        std::lock_guard<std::mutex> lock(closedMutex_);
        ++sessionsClosed_;
        closedTotals_.merge(report.stats);
        closing_.erase(std::find(closing_.begin(), closing_.end(), session));
    }
    admission_.sessionClosed(session->tenant());
    if (snapshot_)
        snapshot_->release(id); // after the tail windows published
    return report;
}

std::optional<SubscriptionId>
MonitorService::subscribe(SessionId id, WindowCallback callback)
{
    if (!registry_.find(id))
        return std::nullopt;
    return hub_.subscribe(id, std::move(callback));
}

bool
MonitorService::unsubscribe(SubscriptionId id)
{
    return hub_.unsubscribe(id);
}

std::optional<SubscriptionStats>
MonitorService::subscriptionStats(SubscriptionId id) const
{
    return hub_.stats(id);
}

std::vector<sim::EventId>
MonitorService::monitoredEvents(SessionId id) const
{
    const std::shared_ptr<Session> session = registry_.find(id);
    return session ? session->events() : std::vector<sim::EventId>{};
}

ServiceStats
MonitorService::stats() const
{
    ServiceStats out;
    // Hold closedMutex_ across the whole aggregation: every session
    // membership transition (closing_ push -> registry erase ->
    // closed-totals merge) begins by acquiring it, so the
    // closing_/registry/closedTotals_ topology is frozen while we sum
    // and no session can fall between the buckets mid-scan.  Lock
    // order closedMutex_ -> registry shard -> session stats is
    // acyclic with close()'s strictly sequential acquisitions.
    std::lock_guard<std::mutex> lock(closedMutex_);
    out.sessionsOpened = sessionsOpened_;
    out.sessionsClosed = sessionsClosed_;
    out.totals = closedTotals_;
    out.backendName = backend_->name();
    // Read the backlog at the controller's stream clock so an idle
    // service reports a drained queue, not the last-release snapshot.
    out.backendQueue = admission_.backendQueue();
    out.admission = admission_.stats();
    if (snapshot_)
        out.snapshot = snapshot_->stats();
    {
        auto &registry = telemetry::MetricsRegistry::global();
        out.logWarnings = registry.counterValue("log.warnings");
        out.logErrors = registry.counterValue("log.errors");
    }
    std::unordered_set<SessionId> closing_ids;
    for (const auto &session : closing_) {
        // Racing closers can list a session twice; count it once.
        if (closing_ids.insert(session->id()).second)
            out.totals.merge(session->statsSnapshot());
    }
    out.sessionsLive = 0;
    registry_.forEach([&out, &closing_ids](const Session &session) {
        // A closing session may still be in the registry for an
        // instant; it was already counted through closing_.
        if (closing_ids.count(session.id()))
            return;
        ++out.sessionsLive;
        out.totals.merge(session.statsSnapshot());
    });
    return out;
}

bool
MonitorService::publishSelfMetrics()
{
    if (!snapshot_)
        return false;
    const ServiceStats s = stats();
    auto &registry = telemetry::MetricsRegistry::global();
    const telemetry::Histogram::Snapshot ep_window =
        registry.histogramSnapshot("ep.window_ns");
    const double ep_p99 =
        ep_window.count > 0 ? ep_window.percentile(99.0) : 0.0;
    const std::vector<SnapshotPublisher::SelfMetric> metrics = {
        {SelfSessionsLive, static_cast<double>(s.sessionsLive)},
        {SelfWindowsRun, static_cast<double>(s.totals.windowsRun)},
        {SelfRecordsIngested,
         static_cast<double>(s.totals.recordsIngested)},
        {SelfRecordsDropped, static_cast<double>(s.totals.recordsDropped)},
        {SelfEpSweeps, static_cast<double>(s.totals.epSweeps)},
        {SelfLogWarnings, static_cast<double>(s.logWarnings)},
        {SelfLogErrors, static_cast<double>(s.logErrors)},
        {SelfShimPublishes, static_cast<double>(s.snapshot.publishes)},
        {SelfEpWindowP99Nanos, ep_p99},
    };
    return snapshot_->publishSelfMetrics(metrics);
}

void
MonitorService::heartbeatSnapshot()
{
    if (snapshot_)
        snapshot_->heartbeat();
}

} // namespace service
} // namespace bperf

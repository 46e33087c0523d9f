/** @file Tests for the concurrent multi-session monitoring service. */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/inference.h"
#include "service/monitor_service.h"
#include "service/record_stream.h"
#include "service/slice_assembler.h"
#include "sim/ground_truth.h"
#include "workloads/hibench.h"

namespace bperf {
namespace service {
namespace {

const sim::MicroarchDescriptor &
uarch()
{
    static const sim::MicroarchDescriptor u = sim::makeX86Skylake();
    return u;
}

/** A moderately multiplexed monitored set (fixed counters included). */
std::vector<sim::EventId>
monitoredSet()
{
    std::vector<sim::EventId> events;
    for (sim::EventId e : uarch().fixedEvents())
        events.push_back(e);
    for (sim::Role r :
         {sim::Role::LlcMiss, sim::Role::L2Miss, sim::Role::L1DMiss,
          sim::Role::Loads, sim::Role::Stores, sim::Role::Branches,
          sim::Role::BranchMisses, sim::Role::StallMem})
        events.push_back(uarch().idForRole(r));
    return events;
}

/** One sampled measurement run over a bursty workload. */
sim::PerfResult
measuredRun(const std::vector<sim::EventId> &monitored,
            std::size_t num_slices, std::uint64_t seed)
{
    const sim::WorkloadProfile workload = wl::makeHibench("KMeans");
    const sim::GroundTruthGenerator generator(uarch(), workload);
    const sim::TruthTrace truth = generator.generate(num_slices, seed);
    sim::PerfSessionConfig cfg;
    cfg.seed = seed * 3 + 1;
    sim::PerfSession session(uarch(), cfg);
    return session.runRoundRobin(truth, monitored);
}

core::InferenceConfig
testInference()
{
    core::InferenceConfig cfg;
    cfg.windowSlices = 6; // fixed k so batch and streaming agree
    return cfg;
}

sim::PerfRecord
rec(std::uint32_t slice, sim::EventId event, double value)
{
    sim::PerfRecord r;
    r.slice = slice;
    r.event = event;
    r.value = value;
    r.timeEnabled = 1.0;
    r.timeRunning = 0.5;
    return r;
}

TEST(SliceAssembler, GroupsRecordsIntoSlices)
{
    const std::vector<sim::EventId> events = {3, 7};
    SliceAssembler assembler(events);
    std::vector<core::SliceMeasurements> out;

    EXPECT_EQ(assembler.feed(rec(0, 3, 10.0), out), 0u);
    EXPECT_EQ(assembler.feed(rec(0, 3, 12.0), out), 0u);
    EXPECT_EQ(assembler.feed(rec(0, 7, 5.0), out), 0u);
    // A record for slice 1 finalizes slice 0.
    EXPECT_EQ(assembler.feed(rec(1, 7, 6.0), out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0][0].observed);
    EXPECT_DOUBLE_EQ(out[0][0].rawCount, 22.0);
    ASSERT_EQ(out[0][0].windows.size(), 2u);
    EXPECT_TRUE(out[0][1].observed);
    // Single-window samples are split so the Student-t fit has >= 2.
    ASSERT_EQ(out[0][1].windows.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0][1].windows[0] + out[0][1].windows[1], 5.0);

    EXPECT_EQ(assembler.flush(out), 1u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_FALSE(out[1][0].observed);
    EXPECT_TRUE(out[1][1].observed);
    EXPECT_EQ(assembler.recordsAccepted(), 4u);
}

TEST(SliceAssembler, EmitsGapSlicesAndRejectsStaleRecords)
{
    const std::vector<sim::EventId> events = {1};
    SliceAssembler assembler(events);
    std::vector<core::SliceMeasurements> out;

    assembler.feed(rec(0, 1, 1.0), out);
    // Jump to slice 3: slice 0 finalizes, slices 1-2 emit unobserved.
    EXPECT_EQ(assembler.feed(rec(3, 1, 2.0), out), 3u);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(out[0][0].observed);
    EXPECT_FALSE(out[1][0].observed);
    EXPECT_FALSE(out[2][0].observed);

    // Stale (already finalized) slice and unknown event are rejected.
    EXPECT_EQ(assembler.feed(rec(1, 1, 9.0), out), 0u);
    EXPECT_EQ(assembler.feed(rec(3, 42, 9.0), out), 0u);
    EXPECT_EQ(assembler.recordsRejected(), 2u);
}

TEST(WindowedInference, StreamingMatchesBatchSliceLevel)
{
    const auto monitored = monitoredSet();
    const auto run = measuredRun(monitored, 24, 101);

    core::InferenceEngine engine(uarch(), testInference());
    const core::InferenceResult batch = engine.infer(run);

    core::WindowedInference streaming(uarch(), monitored, testInference(),
                                      run.schedule.size());
    core::SliceMeasurements slice(monitored.size());
    for (std::size_t t = 0; t < 24; ++t) {
        for (std::size_t i = 0; i < monitored.size(); ++i)
            slice[i] = run.traces[i].slices[t];
        streaming.push(slice);
    }
    streaming.finish();

    EXPECT_EQ(streaming.windowsRun(), batch.windowsRun);
    EXPECT_EQ(streaming.slicesCovered(), 24u);
    for (std::size_t i = 0; i < monitored.size(); ++i) {
        for (std::size_t t = 0; t < 24; ++t) {
            EXPECT_DOUBLE_EQ(streaming.series()[i][t].mean,
                             batch.series[i][t].mean);
            EXPECT_DOUBLE_EQ(streaming.series()[i][t].stddev,
                             batch.series[i][t].stddev);
        }
    }
}

TEST(WindowedInference, SteadyStateWindowsReuseEpWorkspace)
{
    const auto monitored = monitoredSet();
    const auto run = measuredRun(monitored, 48, 505);

    core::WindowedInference streaming(uarch(), monitored, testInference(),
                                      run.schedule.size());
    core::SliceMeasurements slice(monitored.size());
    std::size_t warm_allocs = 0;
    bool warmed = false;
    for (std::size_t t = 0; t < 48; ++t) {
        for (std::size_t i = 0; i < monitored.size(); ++i)
            slice[i] = run.traces[i].slices[t];
        streaming.push(slice);
        if (!warmed && streaming.windowsRun() >= 2) {
            warmed = true;
            warm_allocs = streaming.epWorkspaceAllocations();
        }
    }
    ASSERT_TRUE(warmed);
    EXPECT_GT(warm_allocs, 0u); // the warm-up window does allocate
    streaming.finish();

    // Zero steady-state allocations: after the warm-up, every window
    // (including the truncated tail ones, which are no larger) reuses
    // the EP workspace without growing any buffer.
    EXPECT_EQ(streaming.epWorkspaceAllocations(), warm_allocs);
    EXPECT_GT(streaming.windowsRun(), 2u);

    // Batch replays the same stream through the same engine type, so
    // its result reports the identical reuse counter.
    core::InferenceEngine engine(uarch(), testInference());
    const core::InferenceResult batch = engine.infer(run);
    EXPECT_EQ(batch.epWorkspaceAllocations, warm_allocs);
}

TEST(WindowedInference, BoundedRetentionKeepsMatchingTail)
{
    const auto monitored = monitoredSet();
    const auto run = measuredRun(monitored, 24, 303);

    core::InferenceEngine engine(uarch(), testInference());
    const core::InferenceResult batch = engine.infer(run);

    core::InferenceConfig bounded = testInference();
    bounded.retainSlices = 8;
    core::WindowedInference streaming(uarch(), monitored, bounded,
                                      run.schedule.size());
    core::SliceMeasurements slice(monitored.size());
    for (std::size_t t = 0; t < 24; ++t) {
        for (std::size_t i = 0; i < monitored.size(); ++i)
            slice[i] = run.traces[i].slices[t];
        streaming.push(slice);
    }
    streaming.finish();

    // Only the tail is retained, and retention must not perturb the
    // inference itself: retained posteriors equal the full batch run.
    const std::size_t base = streaming.firstRetainedSlice();
    EXPECT_GE(base, 24u - 8 - streaming.windowSlices());
    EXPECT_LE(24u - base, 8u + streaming.windowSlices());
    for (std::size_t i = 0; i < monitored.size(); ++i) {
        ASSERT_EQ(streaming.series()[i].size(), 24u - base);
        for (std::size_t t = base; t < 24; ++t) {
            EXPECT_DOUBLE_EQ(streaming.series()[i][t - base].mean,
                             batch.series[i][t].mean);
        }
        EXPECT_DOUBLE_EQ(streaming.latest(i).mean,
                         batch.series[i][23].mean);
    }

    core::InferenceResult result = streaming.takeResult();
    EXPECT_EQ(result.firstSlice, base);
    EXPECT_EQ(result.series.front().size(), 24u - base);
}

TEST(MonitorService, StreamingMatchesBatchThroughDaemon)
{
    MonitorServiceConfig cfg;
    cfg.numWorkers = 2;
    cfg.sessionDefaults.streaming.inference = testInference();
    MonitorService daemon(uarch(), cfg);

    const SessionId id = daemon.open(monitoredSet());
    const auto monitored = daemon.monitoredEvents(id);
    const auto run = measuredRun(monitored, 24, 2024);

    daemon.ingestBatch(id, recordStream(run));
    const auto report = daemon.close(id);
    ASSERT_TRUE(report.has_value());

    core::InferenceEngine engine(uarch(), testInference());
    const core::InferenceResult batch = engine.infer(run);

    // The record stream carries the full measurement (every PMI
    // window read), so the streamed posterior must match whole-trace
    // EP far inside the 5% acceptance tolerance.
    for (sim::EventId e : monitored) {
        const auto batch_mean = batch.meanSeries(e);
        const auto stream_mean = report->posterior.meanSeries(e);
        ASSERT_EQ(stream_mean.size(), batch_mean.size());
        double abs_err = 0.0, abs_ref = 0.0;
        for (std::size_t t = 0; t < batch_mean.size(); ++t) {
            abs_err += std::abs(stream_mean[t] - batch_mean[t]);
            abs_ref += std::abs(batch_mean[t]);
        }
        EXPECT_LT(abs_err, 0.05 * abs_ref)
            << "event " << uarch().event(e).name;
    }

    EXPECT_EQ(report->stats.recordsDropped, 0u);
    EXPECT_EQ(report->stats.slicesAssembled, 24u);
    EXPECT_EQ(report->stats.windowsRun, batch.windowsRun);
}

TEST(MonitorService, RegistryOpenCloseUnderThreads)
{
    MonitorServiceConfig cfg;
    cfg.numWorkers = 2;
    cfg.numShards = 4;
    cfg.sessionDefaults.streaming.inference = testInference();
    MonitorService daemon(uarch(), cfg);

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kSessionsPerThread = 6;
    std::atomic<std::size_t> closed{0};

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&daemon, &closed] {
            for (std::size_t s = 0; s < kSessionsPerThread; ++s) {
                const SessionId id = daemon.open(monitoredSet());
                EXPECT_FALSE(daemon.monitoredEvents(id).empty());
                if (daemon.close(id).has_value())
                    closed.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(closed.load(), kThreads * kSessionsPerThread);
    EXPECT_EQ(daemon.openSessions(), 0u);
    const ServiceStats stats = daemon.stats();
    EXPECT_EQ(stats.sessionsOpened, kThreads * kSessionsPerThread);
    EXPECT_EQ(stats.sessionsClosed, kThreads * kSessionsPerThread);
    EXPECT_EQ(stats.sessionsLive, 0u);

    // Closing an unknown / already closed id is a clean no-op.
    EXPECT_FALSE(daemon.close(999999).has_value());
}

TEST(MonitorService, StatsSnapshotInvariantHoldsUnderConcurrentOffers)
{
    // Regression: the snapshot used to read the ring's push and drop
    // counters at different instants, so recordsOffered (their sum)
    // could disagree with the offer() calls actually completed.  With
    // the coherent counter snapshot the invariant holds in every
    // observation while a producer hammers a tiny ring.
    SessionConfig cfg;
    cfg.queueCapacity = 4;
    core::HostBackend backend;
    Session session(1, uarch(), monitoredSet(), cfg, backend);
    // An unmonitored event id: the assembler rejects each record, so
    // the drain loop exercises the ring and counters at full speed
    // without running EP windows.
    const sim::EventId e = 65001;

    constexpr std::uint32_t kAttempts = 100000;
    std::atomic<bool> done{false};
    std::thread producer([&] {
        for (std::uint32_t i = 0; i < kAttempts; ++i) {
            session.offer(rec(i, e, 1.0));
            if (i % 64 == 0) {
                // Keep the ring bouncing between full and empty so
                // both counters move.
                while (session.queueSize() > 1)
                    std::this_thread::yield();
            }
        }
        done.store(true);
    });
    std::thread consumer([&] {
        while (!done.load())
            session.drain();
        session.drain();
    });

    // The observation count is deliberately unasserted: on a loaded
    // single-core host the producer may finish before this loop runs.
    std::uint64_t last_offered = 0;
    while (!done.load()) {
        const SessionStats snap = session.statsSnapshot();
        ASSERT_EQ(snap.recordsOffered,
                  snap.recordsIngested + snap.recordsDropped);
        ASSERT_LE(snap.recordsOffered, kAttempts);
        ASSERT_GE(snap.recordsOffered, last_offered);
        last_offered = snap.recordsOffered;
    }
    producer.join();
    consumer.join();

    const SessionStats final_snap = session.statsSnapshot();
    EXPECT_EQ(final_snap.recordsOffered, kAttempts);
    EXPECT_EQ(final_snap.recordsOffered,
              final_snap.recordsIngested + final_snap.recordsDropped);
}

TEST(MonitorService, BackpressureDropAccounting)
{
    // A session with a tiny ring and no worker visiting it: overflow
    // must drop new records and count every one of them.
    SessionConfig cfg;
    cfg.queueCapacity = 8;
    core::HostBackend backend;
    Session session(1, uarch(), monitoredSet(), cfg, backend);

    const sim::EventId e = monitoredSet().front();
    std::size_t accepted = 0;
    for (std::uint32_t i = 0; i < 20; ++i) {
        if (session.offer(rec(i, e, 1.0)))
            ++accepted;
    }
    EXPECT_EQ(accepted, 8u);
    const SessionStats stats = session.statsSnapshot();
    EXPECT_EQ(stats.recordsIngested, 8u);
    EXPECT_EQ(stats.recordsDropped, 12u);
    EXPECT_EQ(stats.recordsOffered, 20u);
}

/**
 * One full daemon run of the deterministic end-to-end pipeline:
 * seeded producer threads -> per-session SPSC rings -> worker pool ->
 * SliceAssembler -> windowed EP -> posterior series.  Returns every
 * session's posterior series in session order.
 */
std::vector<std::vector<std::vector<core::PosteriorPoint>>>
deterministicServiceRun(std::size_t num_workers, std::size_t num_sessions,
                        std::size_t num_slices)
{
    MonitorServiceConfig cfg;
    cfg.numWorkers = num_workers;
    cfg.sessionDefaults.streaming.inference = testInference();
    MonitorService daemon(uarch(), cfg);

    std::vector<SessionId> ids;
    for (std::size_t s = 0; s < num_sessions; ++s)
        ids.push_back(daemon.open(monitoredSet()));
    const auto monitored = daemon.monitoredEvents(ids[0]);

    std::vector<std::thread> producers;
    for (std::size_t s = 0; s < num_sessions; ++s) {
        producers.emplace_back(
            [&daemon, &monitored, id = ids[s], s, num_slices] {
                const auto run =
                    measuredRun(monitored, num_slices, 900 + s);
                for (std::size_t t = 0; t < num_slices; ++t)
                    daemon.ingestBatch(id, sliceRecords(run, t));
            });
    }
    for (auto &p : producers)
        p.join();

    std::vector<std::vector<std::vector<core::PosteriorPoint>>> series;
    for (SessionId id : ids) {
        auto report = daemon.close(id);
        EXPECT_TRUE(report.has_value());
        EXPECT_EQ(report->stats.recordsDropped, 0u);
        series.push_back(std::move(report->posterior.series));
    }
    return series;
}

TEST(MonitorService, EndToEndPosteriorsAreDeterministic)
{
    // The full concurrent pipeline must be a pure function of the
    // seeded inputs: worker scheduling, drain batching and producer
    // timing may vary freely between runs, but every session's
    // posterior series has to come out bit-identical — across
    // repeated runs and across worker counts.
    constexpr std::size_t kSessions = 3;
    constexpr std::size_t kSlices = 18;

    const auto base = deterministicServiceRun(2, kSessions, kSlices);
    const auto repeat = deterministicServiceRun(2, kSessions, kSlices);
    const auto more_workers =
        deterministicServiceRun(5, kSessions, kSlices);

    ASSERT_EQ(base.size(), kSessions);
    for (const auto *other : {&repeat, &more_workers}) {
        ASSERT_EQ(other->size(), base.size());
        for (std::size_t s = 0; s < base.size(); ++s) {
            ASSERT_EQ((*other)[s].size(), base[s].size());
            for (std::size_t i = 0; i < base[s].size(); ++i) {
                ASSERT_EQ((*other)[s][i].size(), base[s][i].size());
                for (std::size_t t = 0; t < base[s][i].size(); ++t) {
                    // Bit-identical, not approximately equal.
                    EXPECT_EQ((*other)[s][i][t].mean,
                              base[s][i][t].mean)
                        << "session " << s << " event " << i
                        << " slice " << t;
                    EXPECT_EQ((*other)[s][i][t].stddev,
                              base[s][i][t].stddev)
                        << "session " << s << " event " << i
                        << " slice " << t;
                }
            }
        }
    }
}

TEST(MonitorService, ConcurrentSessionsStreamConcurrently)
{
    MonitorServiceConfig cfg;
    cfg.numWorkers = 4;
    cfg.sessionDefaults.streaming.inference = testInference();
    MonitorService daemon(uarch(), cfg);

    constexpr std::size_t kSessions = 6;
    constexpr std::size_t kSlices = 18;

    std::vector<SessionId> ids;
    for (std::size_t s = 0; s < kSessions; ++s)
        ids.push_back(daemon.open(monitoredSet()));
    const auto monitored = daemon.monitoredEvents(ids[0]);

    // One producer thread per session, replaying slice by slice.
    std::vector<std::thread> producers;
    for (std::size_t s = 0; s < kSessions; ++s) {
        producers.emplace_back([&daemon, &monitored, id = ids[s], s] {
            const auto run = measuredRun(monitored, kSlices, 500 + s);
            for (std::size_t t = 0; t < kSlices; ++t)
                daemon.ingestBatch(id, sliceRecords(run, t));
        });
    }
    for (auto &p : producers)
        p.join();
    daemon.quiesce();

    // Every session assembled every slice except the one still under
    // assembly (the assembler can't know slice N-1 ended).
    const ServiceStats mid = daemon.stats();
    EXPECT_EQ(mid.sessionsLive, kSessions);
    EXPECT_EQ(mid.totals.recordsDropped, 0u);
    EXPECT_EQ(mid.totals.slicesAssembled, kSessions * (kSlices - 1));
    EXPECT_GT(mid.totals.windowsRun, 0u);

    const sim::EventId llc = uarch().idForRole(sim::Role::LlcMiss);
    for (SessionId id : ids) {
        const auto point = daemon.latest(id, llc);
        ASSERT_TRUE(point.has_value());
        EXPECT_GT(point->stddev, 0.0);
    }

    for (SessionId id : ids) {
        const auto report = daemon.close(id);
        ASSERT_TRUE(report.has_value());
        EXPECT_EQ(report->stats.slicesAssembled, kSlices);
        EXPECT_EQ(report->posterior.series.front().size(), kSlices);
        EXPECT_GT(report->stats.windowSeconds.count(), 0u);
    }
    EXPECT_EQ(daemon.openSessions(), 0u);
}

} // namespace
} // namespace service
} // namespace bperf

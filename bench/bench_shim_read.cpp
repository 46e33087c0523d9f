/**
 * @file
 * Cost model of the posterior snapshot shim — the paper's consumer
 * interface: how fast can a consumer poll corrected posteriors, how
 * stale are they, and what does keeping the table fresh cost the
 * service's hot path?
 *
 * Three measurements:
 *
 *   1. Reader latency.  A consumer-side SnapshotReader performs
 *      timed reads of a 13-event slot, uncontended and against a
 *      writer hammering the same slot at full speed: per-read
 *      p50/p95/p99 plus the seqlock retry rate.  A by-session read
 *      in pipebench live_tenants' table geometry (16 sessions in 64
 *      slots) is timed against the direct slot read.
 *
 *   2. Staleness.  Every read reports its age (reader clock minus
 *      the writer's publish stamp).  Against a continuously
 *      publishing writer, this bounds how far a poll can lag the
 *      freshest posterior; it is compared with the push path — the
 *      delivery lag of a SubscriptionHub callback for the very same
 *      windows, measured inside a live service run.
 *
 *   3. Writer overhead.  The direct cost of one seqlock publish, and
 *      the end-to-end service wall time of an identical replay with
 *      the shim off vs on (the hot-path overhead the WindowSink
 *      mirror adds).
 *
 * Writes BENCH_shim.json (schema documented in docs/BENCH.md).
 * BP_QUICK=1 shrinks the run.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "service/monitor_service.h"
#include "service/record_stream.h"
#include "shim/snapshot_reader.h"
#include "shim/snapshot_region.h"
#include "sim/ground_truth.h"
#include "workloads/hibench.h"

using namespace bperf;

namespace {

/** Same time base the shim's writer/reader stamp with. */
std::uint64_t
nowNanos()
{
    return shim::steadyNowNanos();
}

/** 13 monitored events: 3 fixed + 10 multiplexed roles. */
std::vector<sim::EventId>
monitoredSet(const sim::MicroarchDescriptor &uarch)
{
    std::vector<sim::EventId> events;
    for (sim::EventId e : uarch.fixedEvents())
        events.push_back(e);
    for (sim::Role r :
         {sim::Role::LlcMiss, sim::Role::L2Miss, sim::Role::L1DMiss,
          sim::Role::Loads, sim::Role::Stores, sim::Role::Branches,
          sim::Role::BranchMisses, sim::Role::StallMem,
          sim::Role::StallTotal, sim::Role::DramBytes})
        events.push_back(uarch.idForRole(r));
    return events;
}

struct NsSummary
{
    double mean = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
};

NsSummary
summarizeNs(std::vector<double> &xs)
{
    NsSummary s;
    if (xs.empty())
        return s;
    double sum = 0.0, max = 0.0;
    for (double x : xs) {
        sum += x;
        max = std::max(max, x);
    }
    s.mean = sum / static_cast<double>(xs.size());
    s.max = max;
    s.p50 = bench::percentileOrNan(xs, 50.0);
    s.p95 = bench::percentileOrNan(xs, 95.0);
    s.p99 = bench::percentileOrNan(xs, 99.0);
    return s;
}

void
writeNsSummary(bench::JsonWriter &json, const std::string &key,
               const NsSummary &s, std::size_t samples)
{
    json.beginObject(key)
        .field("samples", samples)
        .field("meanNs", s.mean)
        .field("p50Ns", s.p50)
        .field("p95Ns", s.p95)
        .field("p99Ns", s.p99)
        .field("maxNs", s.max)
        .endObject();
}

struct ReadBenchResult
{
    NsSummary latency;
    NsSummary staleness;
    std::size_t reads = 0;
    std::uint64_t retriedReads = 0;
    std::uint64_t tornReads = 0;
    /** Reads that called the writer dead.  Every writer in this bench
     * is alive, so CI asserts zero against the hammering writer. */
    std::uint64_t writerDeadReads = 0;
    /** Checksum mismatches under a stable even sequence.  Nothing in
     * this bench corrupts memory, so any nonzero count is a protocol
     * bug — asserted zero via the exit code. */
    std::uint64_t corruptReads = 0;
};

/**
 * Time `reads` snapshot reads into one reused snapshot: of slot 0, or
 * by id when `session` is given.  The caller decides whether a writer
 * is hammering concurrently.
 */
ReadBenchResult
timeReads(const shim::SnapshotReader &reader, std::size_t reads,
          std::optional<std::uint64_t> session = std::nullopt)
{
    ReadBenchResult result;
    std::vector<double> latency, age;
    latency.reserve(reads);
    age.reserve(reads);
    shim::PosteriorSnapshot snap;
    while (latency.size() < reads) {
        const std::uint64_t t0 = nowNanos();
        const shim::ReadStatus status = session
                                             ? reader.read(*session, snap)
                                             : reader.readSlot(0, snap);
        const std::uint64_t t1 = nowNanos();
        if (status == shim::ReadStatus::Corrupt) {
            ++result.corruptReads;
            continue;
        }
        if (status == shim::ReadStatus::WriterDead) {
            ++result.writerDeadReads;
            continue;
        }
        if (status != shim::ReadStatus::Ok) {
            ++result.tornReads; // Torn: retry bound exhausted
            continue;
        }
        latency.push_back(static_cast<double>(t1 - t0));
        age.push_back(static_cast<double>(snap.ageNanos));
        if (snap.retries > 0)
            ++result.retriedReads;
    }
    result.reads = latency.size();
    result.latency = summarizeNs(latency);
    result.staleness = summarizeNs(age);
    return result;
}

/** Lag summaries of the service comparison run. */
struct ServiceCompareResult
{
    double offSeconds = 0.0; ///< replay wall time, shim disabled
    double onSeconds = 0.0;  ///< replay wall time, shim enabled
    NsSummary callbackLag;   ///< publish -> subscription callback
    NsSummary shimAge;       ///< publish -> shim read, same windows
    std::size_t windows = 0;
    bool bitIdentical = false;
};

/** Replay one tenant run through the service; returns wall seconds. */
double
replayRun(service::MonitorService &daemon, const sim::PerfResult &run,
          std::size_t num_slices, service::SessionId id)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < num_slices; ++s)
        daemon.ingestBatch(id, service::sliceRecords(run, s));
    daemon.quiesce();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main()
{
    const bool quick = bench::quickMode();
    const std::size_t kDirectReads = quick ? 20000 : 200000;
    const std::size_t kPublishes = quick ? 20000 : 200000;
    const std::size_t kSlices = quick ? 24 : 48;
    constexpr std::size_t kEvents = 13;

    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    const std::vector<sim::EventId> monitored = monitoredSet(uarch);

    // ---------------------------------------------------- 1. direct
    // A 13-event slot, written directly (no service), read directly.
    shim::SnapshotRegionConfig region_cfg;
    region_cfg.slots = 4;
    region_cfg.maxEvents = 16;
    shim::SnapshotRegion region(region_cfg);
    shim::SnapshotReader reader(region);

    std::vector<sim::EventId> events(kEvents);
    std::vector<core::PosteriorPoint> posterior(kEvents);
    for (std::size_t i = 0; i < kEvents; ++i) {
        events[i] = static_cast<sim::EventId>(i);
        posterior[i] = {1e6 + static_cast<double>(i), 42.0};
    }
    core::WindowExecution exec;
    exec.modeledSeconds = 2.57e-4;

    // Writer cost: a tight publish loop.
    const std::uint64_t w0 = nowNanos();
    for (std::size_t i = 0; i < kPublishes; ++i)
        region.write(0, 1, i, i, exec, events, posterior, nowNanos());
    const double publish_ns =
        static_cast<double>(nowNanos() - w0) /
        static_cast<double>(kPublishes);

    // Uncontended reads (writer idle) — checksums verified (default).
    const ReadBenchResult uncontended = timeReads(reader, kDirectReads);

    // The same reads with verification off: the v2 integrity tax is
    // the delta between these two paths.
    shim::SnapshotReader raw_reader(region);
    raw_reader.setVerifyChecksums(false);
    const ReadBenchResult uncontended_raw =
        timeReads(raw_reader, kDirectReads);

    // By-session reads in pipebench live_tenants' geometry: 16
    // sessions of 13 events in a 64-slot, 32-event table, read by the
    // id of the last one opened.  A read that scanned the table would
    // cost ~16 slot reads; a hinted one costs about one.
    constexpr std::size_t kTableSlots = 64;
    constexpr std::size_t kTableSessions = 16;
    shim::SnapshotRegion tenants(
        shim::SnapshotRegionConfig{kTableSlots, 32});
    for (std::size_t s = 0; s < kTableSessions; ++s)
        tenants.write(s, /*session_id=*/s + 1, 0, 0, exec, events,
                      posterior, nowNanos());
    const shim::SnapshotReader tenant_reader(tenants);
    const ReadBenchResult by_session =
        timeReads(tenant_reader, kDirectReads, kTableSessions);

    // Reads against a hammering writer, verify on and off.
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        std::uint64_t w = kPublishes;
        while (!stop.load(std::memory_order_relaxed)) {
            region.write(0, 1, w, w, exec, events, posterior,
                         nowNanos());
            ++w;
        }
    });
    const ReadBenchResult hammered = timeReads(reader, kDirectReads);
    const ReadBenchResult hammered_raw =
        timeReads(raw_reader, kDirectReads);
    stop.store(true);
    writer.join();

    const auto overhead_pct = [](double with, double without) {
        return without > 0.0 ? 100.0 * (with - without) / without : 0.0;
    };
    const std::uint64_t corrupt_reads =
        uncontended.corruptReads + hammered.corruptReads +
        uncontended_raw.corruptReads + hammered_raw.corruptReads +
        by_session.corruptReads;

    // --------------------------------------------- 2+3. service run
    // Identical single-tenant replays with the shim off vs on; with
    // it on, a subscriber records its delivery lag against the
    // publish stamp of the matching snapshot (push path vs the poll
    // path's staleness for the very same windows).
    service::MonitorServiceConfig cfg;
    cfg.numWorkers = 2;
    cfg.sessionDefaults.streaming.inference.windowSlices = 6;

    const sim::GroundTruthGenerator generator(uarch,
                                              wl::makeHibench("KMeans"));
    const sim::TruthTrace truth = generator.generate(kSlices, 4242);
    sim::PerfSessionConfig perf_cfg;
    perf_cfg.seed = 99;
    ServiceCompareResult service_result;
    std::vector<core::PosteriorPoint> off_final;

    {
        service::MonitorService daemon(uarch, cfg);
        const service::SessionId id = daemon.open(monitored);
        sim::PerfSession session(uarch, perf_cfg);
        const sim::PerfResult run =
            session.runRoundRobin(truth, daemon.monitoredEvents(id));
        service_result.offSeconds = replayRun(daemon, run, kSlices, id);
        const auto report = daemon.close(id);
        if (report) {
            service_result.windows = report->stats.windowsRun;
            for (const auto &series : report->posterior.series)
                off_final.push_back(series.back());
        }
    }
    {
        service::MonitorServiceConfig on_cfg = cfg;
        on_cfg.snapshot.enabled = true;
        on_cfg.snapshot.slots = 8;
        on_cfg.snapshot.maxEvents = 16;
        service::MonitorService daemon(uarch, on_cfg);
        const service::SessionId id = daemon.open(monitored);
        shim::SnapshotReader service_reader(*daemon.snapshotRegion());

        std::mutex lag_mutex;
        std::vector<double> callback_lag, shim_age;
        bool stream_mismatch = false;
        const auto sub = daemon.subscribe(
            id, [&](const service::WindowUpdate &u) {
                // The snapshot for this window (or a fresher one) is
                // already in the table: the sink publishes to the
                // shim before the hub.  Its publish stamp dates the
                // callback's delivery lag; an immediate shim read
                // dates the poll path for comparison.
                shim::PosteriorSnapshot snap;
                if (service_reader.read(u.sessionId, snap) !=
                        shim::ReadStatus::Ok ||
                    snap.windowIndex < u.windowIndex)
                    return;
                const std::uint64_t now = nowNanos();
                const double lag =
                    now > snap.publishNanos
                        ? static_cast<double>(now - snap.publishNanos)
                        : 0.0;
                std::lock_guard<std::mutex> lock(lag_mutex);
                callback_lag.push_back(lag);
                shim_age.push_back(static_cast<double>(snap.ageNanos));
                // When the read caught exactly this window, the poll
                // and push paths must agree bit for bit.
                if (snap.windowIndex == u.windowIndex &&
                    snap.counters.size() == u.posterior.size()) {
                    for (std::size_t i = 0; i < snap.counters.size();
                         ++i) {
                        if (shim::doubleBits(
                                snap.counters[i].posterior.mean) !=
                                shim::doubleBits(u.posterior[i].mean) ||
                            shim::doubleBits(
                                snap.counters[i].posterior.stddev) !=
                                shim::doubleBits(u.posterior[i].stddev))
                            stream_mismatch = true;
                    }
                }
            });
        (void)sub;

        sim::PerfSession session(uarch, perf_cfg);
        const sim::PerfResult run =
            session.runRoundRobin(truth, daemon.monitoredEvents(id));
        service_result.onSeconds = replayRun(daemon, run, kSlices, id);
        daemon.flushSubscriptions();

        // Bit-identity: the identical replay with the shim on must
        // close with exactly the off run's posterior.  Flush again:
        // the close's tail windows publish to a callback whose
        // captures (reader, lag vectors) die before the daemon does.
        const auto report = daemon.close(id);
        daemon.flushSubscriptions();
        service_result.bitIdentical =
            report && !off_final.empty() &&
            off_final.size() == report->posterior.series.size();
        if (service_result.bitIdentical) {
            for (std::size_t i = 0; i < off_final.size(); ++i) {
                const core::PosteriorPoint &on_point =
                    report->posterior.series[i].back();
                if (shim::doubleBits(off_final[i].mean) !=
                        shim::doubleBits(on_point.mean) ||
                    shim::doubleBits(off_final[i].stddev) !=
                        shim::doubleBits(on_point.stddev)) {
                    service_result.bitIdentical = false;
                    break;
                }
            }
        }
        {
            std::lock_guard<std::mutex> lock(lag_mutex);
            service_result.bitIdentical =
                service_result.bitIdentical && !stream_mismatch;
            service_result.callbackLag = summarizeNs(callback_lag);
            service_result.shimAge = summarizeNs(shim_age);
        }
    }

    // ------------------------------------------------------ report
    TablePrinter table({"path", "p50 ns", "p99 ns", "max ns",
                        "mean staleness ns"});
    table.addRow("read (idle writer)",
                 {uncontended.latency.p50, uncontended.latency.p99,
                  uncontended.latency.max, uncontended.staleness.mean});
    table.addRow("read by session (16 of 64)",
                 {by_session.latency.p50, by_session.latency.p99,
                  by_session.latency.max, by_session.staleness.mean});
    table.addRow("read (idle, no verify)",
                 {uncontended_raw.latency.p50,
                  uncontended_raw.latency.p99,
                  uncontended_raw.latency.max,
                  uncontended_raw.staleness.mean});
    table.addRow("read (hammered)",
                 {hammered.latency.p50, hammered.latency.p99,
                  hammered.latency.max, hammered.staleness.mean});
    table.addRow("read (hammered, no verify)",
                 {hammered_raw.latency.p50, hammered_raw.latency.p99,
                  hammered_raw.latency.max,
                  hammered_raw.staleness.mean});
    table.addRow("subscription callback",
                 {service_result.callbackLag.p50,
                  service_result.callbackLag.p99,
                  service_result.callbackLag.max,
                  service_result.shimAge.mean});
    table.print(std::cout);
    std::cout << "checksum verify tax (uncontended): p50 "
              << overhead_pct(uncontended.latency.p50,
                              uncontended_raw.latency.p50)
              << "% p99 "
              << overhead_pct(uncontended.latency.p99,
                              uncontended_raw.latency.p99)
              << "%; corrupt reads: " << corrupt_reads
              << (corrupt_reads == 0 ? "" : " (PROTOCOL BUG)") << "\n";
    std::cout << "publish cost: " << publish_ns << " ns/publish; "
              << "service replay " << 1e3 * service_result.offSeconds
              << " ms (shim off) vs "
              << 1e3 * service_result.onSeconds << " ms (shim on); "
              << "posteriors bit-identical: "
              << (service_result.bitIdentical ? "yes" : "NO") << "\n";

    bench::JsonWriter json;
    json.beginObject()
        .field("bench", "shim_read")
        .field("quick", quick)
        .beginObject("config")
        .field("events", kEvents)
        .field("directReads", kDirectReads)
        .field("publishes", kPublishes)
        .field("slices", kSlices)
        .field("maxRetries", shim::SnapshotReader::kDefaultMaxRetries)
        .endObject();

    json.beginObject("uncontended");
    writeNsSummary(json, "readLatency", uncontended.latency,
                   uncontended.reads);
    writeNsSummary(json, "staleness", uncontended.staleness,
                   uncontended.reads);
    json.field("retriedReads", uncontended.retriedReads)
        .field("tornReads", uncontended.tornReads)
        .field("writerDeadReads", uncontended.writerDeadReads)
        .endObject();

    json.beginObject("bySession")
        .field("slots", kTableSlots)
        .field("sessions", kTableSessions);
    writeNsSummary(json, "readLatency", by_session.latency,
                   by_session.reads);
    json.field("p50VsUncontended",
               uncontended.latency.p50 > 0.0
                   ? by_session.latency.p50 / uncontended.latency.p50
                   : 0.0)
        .endObject();

    json.beginObject("hammered");
    writeNsSummary(json, "readLatency", hammered.latency,
                   hammered.reads);
    writeNsSummary(json, "staleness", hammered.staleness,
                   hammered.reads);
    json.field("retriedReads", hammered.retriedReads)
        .field("tornReads", hammered.tornReads)
        .field("writerDeadReads", hammered.writerDeadReads)
        .endObject();

    // The v2 integrity tax: identical read loops with verification
    // off, plus the relative overhead the checksum adds.  corruptReads
    // doubles as an in-band protocol assertion (nonzero fails the run).
    json.beginObject("checksum");
    writeNsSummary(json, "uncontendedNoVerify", uncontended_raw.latency,
                   uncontended_raw.reads);
    writeNsSummary(json, "hammeredNoVerify", hammered_raw.latency,
                   hammered_raw.reads);
    json.field("verifyOverheadPctP50",
               overhead_pct(uncontended.latency.p50,
                            uncontended_raw.latency.p50))
        .field("verifyOverheadPctP99",
               overhead_pct(uncontended.latency.p99,
                            uncontended_raw.latency.p99))
        .field("corruptReads", corrupt_reads)
        .endObject();

    json.beginObject("writer")
        .field("publishNs", publish_ns)
        .field("serviceOffSeconds", service_result.offSeconds)
        .field("serviceOnSeconds", service_result.onSeconds)
        .field("overheadPct",
               service_result.offSeconds > 0.0
                   ? 100.0 * (service_result.onSeconds -
                              service_result.offSeconds) /
                         service_result.offSeconds
                   : 0.0)
        .endObject();

    json.beginObject("service");
    json.field("windows", service_result.windows);
    writeNsSummary(json, "subscriptionLag", service_result.callbackLag,
                   service_result.windows);
    writeNsSummary(json, "shimReadAge", service_result.shimAge,
                   service_result.windows);
    json.field("posteriorsBitIdentical", service_result.bitIdentical)
        .endObject();

    json.endObject();
    if (!json.writeFile("BENCH_shim.json"))
        std::cerr << "failed to write BENCH_shim.json\n";
    else
        std::cout << "wrote BENCH_shim.json\n";
    return (service_result.bitIdentical && corrupt_reads == 0) ? 0 : 1;
}

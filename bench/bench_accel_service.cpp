/**
 * @file
 * Accelerator-in-the-loop window scheduling under service contention.
 *
 * Replays several tenant sessions through the monitoring service
 * twice: once on the host execution backend (windows cost their
 * measured EP wall time) and once per accelerator engine count
 * (windows are scheduled onto the simulated FPGA EP-engine pool,
 * released at their stream time, queueing FIFO on the
 * earliest-available engine).  Posteriors are identical across
 * backends by construction — what changes is the modeled per-window
 * latency distribution, which this bench reports as p50/p95/p99 plus
 * mean queue wait, engine utilization and speedup vs the host path
 * for each engine count.
 *
 * The slice period is set short enough that the aggregate window
 * arrival rate of the tenant mix overloads a 1-engine pool and
 * saturates a 2-engine pool, so the contention knee is visible in the
 * table.  The pool scheduler is online (jobs queue in the order the
 * worker threads deliver them), so the wait-driven percentiles jitter
 * a little run to run under contention; the knee itself is stable.
 *
 * Writes BENCH_accel_service.json (uploaded by CI next to the EP
 * window artifact).  BP_QUICK=1 shrinks the run.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "service/monitor_service.h"
#include "service/record_stream.h"
#include "sim/ground_truth.h"
#include "telemetry/telemetry.h"
#include "workloads/hibench.h"

using namespace bperf;

namespace {

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

struct LatencySummary
{
    double meanUs = 0.0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    double meanWaitUs = 0.0;
    /** Per-stage split of the modeled latency: queue (meanWaitUs),
     * host-interface transfer, and engine compute. */
    double meanTransferUs = 0.0;
    double meanComputeUs = 0.0;
    std::size_t windows = 0;
};

LatencySummary
summarize(const std::vector<core::WindowExecution> &execs)
{
    LatencySummary s;
    std::vector<double> modeled, waits, transfers, computes;
    modeled.reserve(execs.size());
    waits.reserve(execs.size());
    for (const auto &e : execs) {
        modeled.push_back(1e6 * e.modeledSeconds);
        waits.push_back(1e6 * e.queueWaitSeconds);
        transfers.push_back(1e6 * e.transferSeconds);
        computes.push_back(
            1e6 * std::max(0.0, e.serviceSeconds - e.transferSeconds));
    }
    s.windows = execs.size();
    s.meanUs = mean(modeled);
    // NaN (serialized as null) on a 0-window run, never a bare nan
    // token in the JSON artifact.
    s.p50Us = bench::percentileOrNan(modeled, 50.0);
    s.p95Us = bench::percentileOrNan(modeled, 95.0);
    s.p99Us = bench::percentileOrNan(modeled, 99.0);
    s.meanWaitUs = mean(waits);
    s.meanTransferUs = mean(transfers);
    s.meanComputeUs = mean(computes);
    return s;
}

/**
 * Run the tenant mix through a fresh service on the given backend and
 * return every window's modeled execution, pool utilization included.
 */
struct ServiceRun
{
    LatencySummary latency;
    double engineUtilization = 0.0; // accel only
    std::string backendName;
    /** Publish-stage (window fan-out) latency, from the telemetry
     * registry's publish.fanout_ns histogram over this run. */
    double publishP50Us = 0.0;
    double publishP99Us = 0.0;
};

ServiceRun
runService(const sim::MicroarchDescriptor &uarch,
           const std::vector<sim::PerfResult> &runs,
           std::size_t num_slices, const service::MonitorServiceConfig &cfg)
{
    // Per-run stage accounting: the registry is process-global, so
    // clear it at each run's start and scrape it at the end.
    telemetry::MetricsRegistry::global().reset();
    // Every window's modeled execution, from the subscription stream
    // (callbacks run serially on the hub's dispatcher thread, which
    // the daemon joins before `execs` goes out of scope).
    std::vector<core::WindowExecution> execs;
    service::MonitorService daemon(uarch, cfg);
    std::vector<service::SessionId> ids;
    const auto monitored = monitoredSet(uarch);
    for (std::size_t s = 0; s < runs.size(); ++s) {
        ids.push_back(daemon.open(monitored));
        daemon.subscribe(ids.back(),
                         [&execs](const service::WindowUpdate &u) {
                             execs.push_back(u.execution);
                         });
    }

    // Slice-major round-robin ingest: every tenant's slice-t records
    // land before any tenant's slice t+1, the arrival pattern a
    // shared PMI tick would produce.
    for (std::size_t t = 0; t < num_slices; ++t) {
        for (std::size_t s = 0; s < runs.size(); ++s)
            daemon.ingestBatch(ids[s], service::sliceRecords(runs[s], t));
    }
    daemon.quiesce();

    for (service::SessionId id : ids)
        daemon.close(id);
    daemon.flushSubscriptions();

    ServiceRun out;
    out.backendName = daemon.stats().backendName;
    out.latency = summarize(execs);
    if (const accel::AccelBackend *accel = daemon.accelBackend()) {
        const accel::AccelPoolStats pool = accel->poolStats();
        double busy = 0.0;
        for (double b : pool.engineBusySeconds)
            busy += b;
        if (pool.makespanSeconds > 0.0)
            out.engineUtilization =
                busy / (pool.makespanSeconds *
                        static_cast<double>(pool.engineJobs.size()));
    }
    const telemetry::Histogram::Snapshot fanout =
        telemetry::MetricsRegistry::global().histogramSnapshot(
            "publish.fanout_ns");
    if (fanout.count > 0) {
        out.publishP50Us = fanout.percentile(50.0) / 1e3;
        out.publishP99Us = fanout.percentile(99.0) / 1e3;
    }
    return out;
}

} // namespace

int
main()
{
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    const std::size_t num_sessions = bench::quickMode() ? 4 : 8;
    const std::size_t num_slices = bench::quickMode() ? 24 : 48;
    const double slice_period_us = 100.0;
    const std::vector<std::size_t> engine_counts = {1, 2, 4, 8};

    const auto monitored = monitoredSet(uarch);
    const std::vector<std::string> tenants = {"KMeans", "Sort", "Bayes",
                                              "PageRank"};
    std::vector<sim::PerfResult> runs;
    for (std::size_t s = 0; s < num_sessions; ++s) {
        const sim::GroundTruthGenerator generator(
            uarch, wl::makeHibench(tenants[s % tenants.size()]));
        const sim::TruthTrace truth =
            generator.generate(num_slices, 7000 + s);
        sim::PerfSessionConfig perf_cfg;
        perf_cfg.seed = 31 * s + 5;
        sim::PerfSession session(uarch, perf_cfg);
        runs.push_back(session.runRoundRobin(truth, monitored));
    }

    service::MonitorServiceConfig base;
    base.numWorkers = 4;
    base.sessionDefaults.streaming.inference.windowSlices = 6;

    // Host baseline: windows cost their measured EP wall time.
    service::MonitorServiceConfig host_cfg = base;
    host_cfg.backend = service::BackendKind::Host;
    const ServiceRun host = runService(uarch, runs, num_slices, host_cfg);

    TablePrinter table({"engines", "p50 us", "p95 us", "p99 us",
                        "mean wait us", "util", "speedup vs host"});
    table.addRow("host", {host.latency.p50Us, host.latency.p95Us,
                          host.latency.p99Us, 0.0, 0.0, 1.0});

    struct AccelRow
    {
        std::size_t engines;
        ServiceRun run;
    };
    std::vector<AccelRow> rows;
    for (std::size_t engines : engine_counts) {
        service::MonitorServiceConfig cfg = base;
        cfg.backend = service::BackendKind::Accel;
        cfg.accel.numEngines = engines;
        cfg.accel.slicePeriodSeconds = slice_period_us * 1e-6;
        const ServiceRun accel = runService(uarch, runs, num_slices, cfg);
        table.addRow(std::to_string(engines),
                     {accel.latency.p50Us, accel.latency.p95Us,
                      accel.latency.p99Us, accel.latency.meanWaitUs,
                      accel.engineUtilization,
                      host.latency.meanUs / accel.latency.meanUs});
        rows.push_back({engines, accel});
    }

    std::cout << "\nModeled window latency under contention ("
              << num_sessions << " sessions x " << num_slices
              << " slices, k=6, slice period " << slice_period_us
              << " us, " << host.latency.windows << " windows/run):\n";
    table.print(std::cout);

    bench::JsonWriter json;
    json.beginObject()
        .field("sessions", num_sessions)
        .field("slices", num_slices)
        .field("window_slices", 6)
        .field("events", monitored.size())
        .field("slice_period_us", slice_period_us)
        .beginObject("host")
        .field("backend", host.backendName)
        .field("windows", host.latency.windows)
        .field("mean_us", host.latency.meanUs)
        .field("p50_us", host.latency.p50Us)
        .field("p95_us", host.latency.p95Us)
        .field("p99_us", host.latency.p99Us)
        .field("mean_queue_wait_us", host.latency.meanWaitUs)
        .field("mean_transfer_us", host.latency.meanTransferUs)
        .field("mean_compute_us", host.latency.meanComputeUs)
        .field("publish_p50_us", host.publishP50Us)
        .field("publish_p99_us", host.publishP99Us)
        .endObject()
        .beginArray("accel");
    for (const AccelRow &row : rows) {
        json.beginObject()
            .field("engines", row.engines)
            .field("backend", row.run.backendName)
            .field("windows", row.run.latency.windows)
            .field("mean_us", row.run.latency.meanUs)
            .field("p50_us", row.run.latency.p50Us)
            .field("p95_us", row.run.latency.p95Us)
            .field("p99_us", row.run.latency.p99Us)
            .field("mean_queue_wait_us", row.run.latency.meanWaitUs)
            .field("mean_transfer_us", row.run.latency.meanTransferUs)
            .field("mean_compute_us", row.run.latency.meanComputeUs)
            .field("publish_p50_us", row.run.publishP50Us)
            .field("publish_p99_us", row.run.publishP99Us)
            .field("engine_utilization", row.run.engineUtilization)
            .field("speedup_vs_host",
                   host.latency.meanUs / row.run.latency.meanUs)
            .endObject();
    }
    json.endArray().endObject();
    if (!json.writeFile("BENCH_accel_service.json")) {
        std::cerr << "failed to write BENCH_accel_service.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_accel_service.json\n";
    return 0;
}

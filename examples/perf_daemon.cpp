/**
 * @file
 * The BayesPerf monitoring daemon end to end: several tenants stream
 * live PMI records into one service, posteriors are polled mid-run,
 * and each session's final posterior is scored against ground truth.
 *
 * Walks through the service API:
 *   1. start a MonitorService (shared worker pool, sharded registry),
 *   2. open one admission-controlled session per tenant workload,
 *   3. subscribe to one tenant's window completions (push updates),
 *   4. stream each tenant's PerfRecords from a producer thread,
 *      slice by slice, through the per-session SPSC ring,
 *   5. poll latest() while inference is still running,
 *   6. close the sessions and read full posterior series + stats.
 *
 * Usage: perf_daemon [host|capi|pcie] [engines]
 *                    [--max-sessions=N] [--records-per-sec=R]
 *                    [--max-inflight-windows=N] [--max-queue-us=X]
 *                    [--shm=/name] [--linger-ms=N] [--tenants=N]
 *                    [--trace-out=FILE] [--metrics-every-ms=N]
 *
 * The first argument selects the execution backend: "host" (windows
 * cost their measured EP wall time) or the simulated FPGA EP-engine
 * pool over the CAPI / PCIe host interface; "engines" sizes that
 * pool (default 4).  Any quota flag enables admission control with
 * that per-tenant limit; --max-queue-us sheds opens and pushes once
 * the pool's modeled queue exceeds the threshold.  --shm exports the
 * posterior snapshot table over POSIX shared memory so a separate
 * process (see examples/shim_reader.cpp) can poll live posteriors;
 * --linger-ms keeps the sessions (and so the table) alive that long
 * after streaming finishes, giving external readers time to attach.
 * Posteriors are identical across backends — the table's
 * modeled-latency columns are what changes.
 *
 * Observability flags: --tenants=N scales the workload (tenant names
 * cycle KMeans/Sort/Bayes/PageRank with -1, -2, ... suffixes);
 * --trace-out=FILE writes every window's phase spans as Chrome
 * trace-event JSON (load in Perfetto or chrome://tracing);
 * --metrics-every-ms=N starts a scraper thread that prints a
 * one-line telemetry digest every N ms and republishes the daemon's
 * self-metrics through the snapshot shim (pseudo-session 0), so a
 * shim_reader in another process watches the monitor itself.
 * Unknown arguments, a zero engine/tenant/period count or a
 * malformed flag value print usage and exit non-zero.
 */

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "example_args.h"
#include "service/monitor_service.h"
#include "service/record_stream.h"
#include "shim/snapshot_reader.h"
#include "sim/ground_truth.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "workloads/hibench.h"

using namespace bperf;
using examples::parseCount;
using examples::parseDouble;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [host|capi|pcie] [engines]\n"
                 "          [--max-sessions=N] [--records-per-sec=R]\n"
                 "          [--max-inflight-windows=N] "
                 "[--max-queue-us=X]\n"
                 "          [--shm=/name] [--linger-ms=N] "
                 "[--tenants=N]\n"
                 "          [--trace-out=FILE] "
                 "[--metrics-every-ms=N]\n",
                 argv0);
}

/** One-line digest of the registry, printed by the scraper thread. */
void
printMetricsDigest(const char *tag)
{
    auto &registry = telemetry::MetricsRegistry::global();
    const telemetry::MetricsSnapshot snap = registry.scrape();
    const telemetry::Histogram::Snapshot ep_window =
        registry.histogramSnapshot("ep.window_ns");
    std::printf("[metrics %s] %zu counters, %zu histograms; "
                "ep.windows=%llu ring.drops=%llu sub.drops=%llu "
                "shim.publishes=%llu log.warn=%llu log.err=%llu "
                "ep.window p99=%.0f us\n",
                tag, snap.counters.size(), snap.histograms.size(),
                static_cast<unsigned long long>(
                    registry.counterValue("ep.windows")),
                static_cast<unsigned long long>(
                    registry.counterValue("ring.drops")),
                static_cast<unsigned long long>(
                    registry.counterValue("subscription.drops")),
                static_cast<unsigned long long>(
                    registry.counterValue("shim.publishes")),
                static_cast<unsigned long long>(
                    registry.counterValue("log.warnings")),
                static_cast<unsigned long long>(
                    registry.counterValue("log.errors")),
                ep_window.count > 0 ? ep_window.percentile(99.0) / 1e3
                                    : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();

    // 1. The daemon: 4 inference workers shared by every tenant, the
    // execution backend and admission quotas picked from argv.
    service::MonitorServiceConfig cfg;
    cfg.numWorkers = 4;
    cfg.sessionDefaults.streaming.inference.windowSlices = 6;

    std::string backend_arg = "capi";
    std::size_t linger_ms = 0;
    std::size_t num_tenants = 4;
    std::size_t metrics_every_ms = 0;
    std::string trace_out;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        double dval = 0.0;
        std::size_t nval = 0;
        if (arg.rfind("--shm=", 0) == 0) {
            const std::string name = arg.substr(6);
            // Validate here so a malformed name is a usage error, not
            // an shm_open abort deep in the snapshot region.
            if (!examples::validShmName(name)) {
                std::fprintf(stderr,
                             "%s: bad %s (want \"/name\", no further "
                             "'/', <= 250 chars)\n",
                             argv[0], argv[i]);
                return 2;
            }
            cfg.snapshot.enabled = true;
            cfg.snapshot.shmName = name;
            continue;
        }
        if (arg.rfind("--linger-ms=", 0) == 0) {
            if (!parseCount(arg.c_str() + 12, &nval)) {
                std::fprintf(stderr, "%s: bad %s\n", argv[0], argv[i]);
                return 2;
            }
            linger_ms = nval;
            continue;
        }
        if (arg.rfind("--tenants=", 0) == 0) {
            if (!parseCount(arg.c_str() + 10, &nval) || nval == 0) {
                std::fprintf(stderr, "%s: bad %s\n", argv[0], argv[i]);
                return 2;
            }
            num_tenants = nval;
            continue;
        }
        if (arg.rfind("--metrics-every-ms=", 0) == 0) {
            if (!parseCount(arg.c_str() + 19, &nval) || nval == 0) {
                std::fprintf(stderr, "%s: bad %s\n", argv[0], argv[i]);
                return 2;
            }
            metrics_every_ms = nval;
            continue;
        }
        if (arg.rfind("--trace-out=", 0) == 0) {
            trace_out = arg.substr(12);
            if (trace_out.empty()) {
                std::fprintf(stderr, "%s: bad %s\n", argv[0], argv[i]);
                return 2;
            }
            continue;
        }
        if (arg.rfind("--max-sessions=", 0) == 0) {
            if (!parseCount(arg.c_str() + 15, &nval) || nval == 0) {
                std::fprintf(stderr, "%s: bad %s\n", argv[0], argv[i]);
                return 2;
            }
            cfg.admission.enabled = true;
            cfg.admission.defaultQuota.maxSessions = nval;
        } else if (arg.rfind("--records-per-sec=", 0) == 0) {
            if (!parseDouble(arg.c_str() + 18, &dval) || dval <= 0.0) {
                std::fprintf(stderr, "%s: bad %s\n", argv[0], argv[i]);
                return 2;
            }
            cfg.admission.enabled = true;
            cfg.admission.defaultQuota.recordsPerSecond = dval;
        } else if (arg.rfind("--max-inflight-windows=", 0) == 0) {
            if (!parseCount(arg.c_str() + 23, &nval) || nval == 0) {
                std::fprintf(stderr, "%s: bad %s\n", argv[0], argv[i]);
                return 2;
            }
            cfg.admission.enabled = true;
            cfg.admission.defaultQuota.maxInFlightWindows = nval;
        } else if (arg.rfind("--max-queue-us=", 0) == 0) {
            if (!parseDouble(arg.c_str() + 15, &dval) || dval <= 0.0) {
                std::fprintf(stderr, "%s: bad %s\n", argv[0], argv[i]);
                return 2;
            }
            cfg.admission.enabled = true;
            cfg.admission.throttleQueueSeconds = dval * 1e-6;
            cfg.admission.shedQueueSeconds = dval * 1e-6;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "%s: unknown flag %s\n", argv[0],
                         argv[i]);
            usage(argv[0]);
            return 2;
        } else {
            positional.push_back(arg);
        }
    }

    if (positional.size() > 2) {
        usage(argv[0]);
        return 2;
    }
    if (!positional.empty())
        backend_arg = positional[0];
    if (backend_arg == "capi" || backend_arg == "pcie") {
        cfg.backend = service::BackendKind::Accel;
        cfg.accel.engine.hostInterface =
            backend_arg == "capi" ? accel::HostInterface::Capi
                                  : accel::HostInterface::PcieDma;
        if (positional.size() > 1) {
            std::size_t engines = 0;
            if (!parseCount(positional[1].c_str(), &engines) ||
                engines == 0) {
                std::fprintf(stderr, "%s: engines must be a positive "
                                     "integer, got \"%s\"\n",
                             argv[0], positional[1].c_str());
                return 2;
            }
            cfg.accel.numEngines = engines;
        }
    } else if (backend_arg == "host") {
        if (positional.size() > 1) {
            std::fprintf(stderr, "%s: the host backend takes no engine "
                                 "count\n",
                         argv[0]);
            usage(argv[0]);
            return 2;
        }
    } else {
        std::fprintf(stderr, "%s: unknown backend \"%s\"\n", argv[0],
                     backend_arg.c_str());
        usage(argv[0]);
        return 2;
    }
    // Window spans flow to the collector from every worker; the file
    // is written once the sessions have closed (tail windows traced).
    telemetry::TraceCollector trace;
    if (!trace_out.empty())
        cfg.trace = &trace;
    service::MonitorService daemon(uarch, cfg);

    // 2. N tenants (default 4), each monitoring 13 events (3 fixed +
    // 10 multiplexed) on its own workload, opened through admission
    // control under their tenant name.
    const std::vector<std::string> tenant_bases = {"KMeans", "Sort",
                                                   "Bayes", "PageRank"};
    std::vector<std::string> tenants;
    for (std::size_t t = 0; t < num_tenants; ++t) {
        std::string name = tenant_bases[t % tenant_bases.size()];
        if (t >= tenant_bases.size())
            name += "-" + std::to_string(t / tenant_bases.size());
        tenants.push_back(name);
    }
    std::vector<sim::EventId> events;
    for (sim::Role r :
         {sim::Role::LlcMiss, sim::Role::L2Miss, sim::Role::L1DMiss,
          sim::Role::Loads, sim::Role::Stores, sim::Role::Branches,
          sim::Role::BranchMisses, sim::Role::StallMem,
          sim::Role::StallTotal, sim::Role::DramBytes})
        events.push_back(uarch.idForRole(r));

    const std::size_t num_slices = 48;
    std::vector<service::SessionId> ids;
    std::vector<std::string> admitted_tenants;
    std::vector<sim::TruthTrace> truths;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const service::OpenResult result =
            daemon.open(tenants[t], events);
        if (!result.admitted()) {
            std::printf("tenant %s: open rejected (%s)\n",
                        tenants[t].c_str(),
                        service::admissionErrorName(result.error));
            continue;
        }
        ids.push_back(*result.id);
        admitted_tenants.push_back(tenants[t]);
        // Suffixed tenants ("KMeans-1") run the base workload; the
        // suffix only distinguishes the admission/subscription name.
        const sim::GroundTruthGenerator generator(
            uarch,
            wl::makeHibench(tenant_bases[t % tenant_bases.size()]));
        truths.push_back(generator.generate(num_slices, 1000 + t));
    }
    if (ids.empty()) {
        std::fprintf(stderr, "%s: no tenant admitted\n", argv[0]);
        return 1;
    }
    const auto monitored = daemon.monitoredEvents(ids[0]);

    // Periodic self-observation: print a registry digest and mirror
    // the daemon's own health metrics into the snapshot shim, where a
    // cross-process shim_reader sees them as pseudo-session 0.  No
    // early return below until the thread is joined.
    std::mutex metrics_mutex;
    std::condition_variable metrics_cv;
    bool metrics_stop = false;
    std::thread metrics_thread;
    if (metrics_every_ms > 0) {
        metrics_thread = std::thread([&] {
            std::unique_lock<std::mutex> lock(metrics_mutex);
            while (!metrics_cv.wait_for(
                       lock, std::chrono::milliseconds(metrics_every_ms),
                       [&] { return metrics_stop; })) {
                lock.unlock();
                printMetricsDigest("scrape");
                daemon.publishSelfMetrics();
                lock.lock();
            }
        });
    }

    // 3. Subscribe to the first tenant's window completions: the push
    // counterpart of the latest() polling below.
    const sim::EventId llc = uarch.idForRole(sim::Role::LlcMiss);
    std::size_t llc_index = 0;
    for (std::size_t i = 0; i < monitored.size(); ++i) {
        if (monitored[i] == llc)
            llc_index = i;
    }
    const auto subscription = daemon.subscribe(
        ids[0], [&, tenant = admitted_tenants[0]](
                    const service::WindowUpdate &update) {
            if (update.windowIndex >= 3 ||
                update.posterior.size() <= llc_index)
                return; // stay quiet after the first few windows
            std::printf("[subscribed] %s window %llu (end slice %zu): "
                        "LLC misses %.0f +/- %.0f, modeled %.2f ms\n",
                        tenant.c_str(),
                        static_cast<unsigned long long>(
                            update.windowIndex),
                        update.endSlice,
                        update.posterior[llc_index].mean,
                        update.posterior[llc_index].stddev,
                        1e3 * update.execution.modeledSeconds);
        });

    // 4. One producer thread per tenant, replaying the kernel-side
    // record stream slice by slice.
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < ids.size(); ++t) {
        producers.emplace_back([&, t] {
            sim::PerfSessionConfig perf_cfg;
            perf_cfg.seed = 42 + t;
            sim::PerfSession session(uarch, perf_cfg);
            const sim::PerfResult run =
                session.runRoundRobin(truths[t], monitored);
            for (std::size_t s = 0; s < num_slices; ++s)
                daemon.ingestBatch(ids[t], service::sliceRecords(run, s));
        });
    }

    // 5. Poll one tenant's LLC-miss posterior while streaming.
    for (int poll = 0; poll < 3; ++poll) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (const auto p = daemon.latest(ids[0], llc)) {
            std::printf("[poll %d] %s LLC misses: %.0f +/- %.0f\n", poll,
                        admitted_tenants[0].c_str(), p->mean, p->stddev);
        }
    }
    for (auto &p : producers)
        p.join();
    daemon.quiesce();
    daemon.flushSubscriptions();

    // Make the monitor's own metrics visible at least once, even
    // without a scraper thread: a lingering shim_reader sees the
    // final numbers under pseudo-session 0.
    if (cfg.snapshot.enabled)
        daemon.publishSelfMetrics();

    // Keep the snapshot table populated long enough for an external
    // shim_reader to attach and poll before the sessions close and
    // their slots are invalidated.  The linger sleeps in steps,
    // stamping the segment's writer heartbeat each step, so a reader
    // watching writerIdleNanos() sees "alive but idle" — not the
    // growing silence of a dead daemon — even with no metrics thread
    // publishing.
    if (linger_ms > 0) {
        if (cfg.snapshot.enabled)
            std::printf("lingering %zu ms with snapshot table \"%s\" "
                        "live...\n",
                        linger_ms, cfg.snapshot.shmName.c_str());
        const auto linger_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(linger_ms);
        constexpr std::chrono::milliseconds kHeartbeatStep(50);
        while (std::chrono::steady_clock::now() < linger_deadline) {
            daemon.heartbeatSnapshot();
            const auto remaining = linger_deadline -
                                   std::chrono::steady_clock::now();
            std::this_thread::sleep_for(
                remaining < kHeartbeatStep
                    ? std::chrono::duration_cast<
                          std::chrono::milliseconds>(remaining)
                    : kHeartbeatStep);
        }
    }

    if (metrics_thread.joinable()) {
        {
            std::lock_guard<std::mutex> lock(metrics_mutex);
            metrics_stop = true;
        }
        metrics_cv.notify_all();
        metrics_thread.join();
    }

    // Snapshot-shim accounting, taken while the sessions still own
    // their slots (closing invalidates them, which would always show
    // "0 slots live").
    const service::SnapshotPublisherStats snapshot_stats =
        daemon.stats().snapshot;

    // Self-scan: read the daemon's own table the way a consumer
    // would, and report the scan's health verdict — any degraded slot
    // (torn/writer-dead/corrupt) in the daemon's own log is a segment
    // integrity problem worth noticing before a consumer does.
    if (daemon.snapshotRegion() != nullptr) {
        shim::SnapshotReader self_reader(*daemon.snapshotRegion());
        shim::ScanHealth health;
        const auto live = self_reader.sessions(&health);
        std::printf("snapshot self-scan: %zu active slots, %zu empty, "
                    "%zu degraded (torn %zu, writer-dead %zu, "
                    "corrupt %zu)\n",
                    live.size(), health.empty, health.degraded(),
                    health.torn, health.writerDead, health.corrupt);
    }

    // 6. Close everything; score posteriors against ground truth and
    // report the backend's modeled window latency next to the
    // measured host EP time.
    TablePrinter table({"tenant", "slices", "windows", "ms/window",
                        "modeled ms", "queue ms", "post err %"});
    for (std::size_t t = 0; t < ids.size(); ++t) {
        const auto report = daemon.close(ids[t]);
        if (!report)
            continue;
        const auto mean = report->posterior.meanSeries(llc);
        double err = 0.0;
        for (std::size_t s = 0; s < mean.size(); ++s) {
            const double truth_val = truths[t].sliceTotal(s, llc);
            err += std::abs(mean[s] - truth_val) /
                   std::max(truth_val, 1.0);
        }
        table.addRow(admitted_tenants[t],
                     {static_cast<double>(report->stats.slicesAssembled),
                      static_cast<double>(report->stats.windowsRun),
                      1e3 * report->stats.windowSeconds.mean(),
                      1e3 * report->stats.modeledWindowSeconds.mean(),
                      1e3 * report->stats.backendQueueSeconds.mean(),
                      100.0 * err / static_cast<double>(mean.size())});
    }
    table.print(std::cout);

    if (subscription) {
        if (const auto sub_stats =
                daemon.subscriptionStats(*subscription)) {
            std::printf("subscription: %llu windows published, %llu "
                        "delivered, %llu dropped\n",
                        static_cast<unsigned long long>(
                            sub_stats->published),
                        static_cast<unsigned long long>(
                            sub_stats->delivered),
                        static_cast<unsigned long long>(
                            sub_stats->dropped));
        }
    }

    const service::ServiceStats stats = daemon.stats();
    if (snapshot_stats.enabled) {
        std::printf("snapshot shim \"%s\": %llu windows published, "
                    "%llu dropped, %zu/%zu slots live pre-close "
                    "(+%llu tail publishes from close)\n",
                    cfg.snapshot.shmName.empty()
                        ? "(in-process)"
                        : cfg.snapshot.shmName.c_str(),
                    static_cast<unsigned long long>(
                        snapshot_stats.publishes),
                    static_cast<unsigned long long>(
                        snapshot_stats.publishDrops),
                    snapshot_stats.slotsLive,
                    snapshot_stats.slotCapacity,
                    static_cast<unsigned long long>(
                        stats.snapshot.publishes -
                        snapshot_stats.publishes));
    }
    if (!stats.admission.empty()) {
        TablePrinter admission_table({"tenant", "sessions ok",
                                      "sessions rej", "records ok",
                                      "throttled", "shed"});
        for (const auto &row : stats.admission) {
            admission_table.addRow(
                row.tenant.empty() ? "(default)" : row.tenant,
                {static_cast<double>(row.stats.sessionsAdmitted),
                 static_cast<double>(row.stats.sessionsRejected),
                 static_cast<double>(row.stats.recordsAdmitted),
                 static_cast<double>(row.stats.recordsThrottled),
                 static_cast<double>(row.stats.recordsShed)});
        }
        std::printf("admission (modeled queue now %.2f ms):\n",
                    1e3 * stats.backendQueue.queueSeconds);
        admission_table.print(std::cout);
    }

    std::printf("backend %s: %llu windows, mean modeled %.2f ms "
                "(queue %.2f ms)\n",
                stats.backendName.c_str(),
                static_cast<unsigned long long>(stats.totals.windowsRun),
                1e3 * stats.totals.modeledWindowSeconds.mean(),
                1e3 * stats.totals.backendQueueSeconds.mean());
    std::printf("sessions: %llu opened, %llu closed; records: %llu "
                "ingested, %llu dropped; windows: %llu (%.1f EP "
                "sweeps/window)\n",
                static_cast<unsigned long long>(stats.sessionsOpened),
                static_cast<unsigned long long>(stats.sessionsClosed),
                static_cast<unsigned long long>(
                    stats.totals.recordsIngested),
                static_cast<unsigned long long>(
                    stats.totals.recordsDropped),
                static_cast<unsigned long long>(stats.totals.windowsRun),
                stats.totals.windowsRun
                    ? static_cast<double>(stats.totals.epSweeps) /
                          static_cast<double>(stats.totals.windowsRun)
                    : 0.0);

    if (metrics_every_ms > 0)
        printMetricsDigest("final");

    // Write the trace last: the close() loop above ran the tail
    // windows, so their spans are in the collector by now.
    if (!trace_out.empty()) {
        if (!trace.writeChromeTrace(trace_out)) {
            std::fprintf(stderr, "%s: cannot write trace to %s\n",
                         argv[0], trace_out.c_str());
            return 1;
        }
        std::printf("trace: %zu phase slices (%llu dropped) -> %s\n",
                    trace.eventCount(),
                    static_cast<unsigned long long>(trace.dropped()),
                    trace_out.c_str());
    }
    return 0;
}

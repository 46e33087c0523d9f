/**
 * @file
 * Aggregate slice-processing throughput of the monitoring service:
 * sessions x events x slices/sec scaling with the worker thread
 * count.
 *
 * The service is driven with 1, 2, 4 and 8 workers over the same
 * pre-generated record streams; each row reports wall time,
 * slices/sec and dropped records.  There is no speedup column: a
 * fair baseline would have to run the service's rings, workers and
 * telemetry too, and pipebench's `service.worker_scaling_x` measures
 * worker scaling that way on one path.
 *
 * BP_QUICK=1 shrinks sessions and slices for smoke runs.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "service/monitor_service.h"
#include "service/record_stream.h"
#include "sim/ground_truth.h"
#include "workloads/hibench.h"

using namespace bperf;

namespace {

struct StreamSet
{
    std::vector<sim::EventId> monitored;
    std::size_t numSlices = 0;
    std::size_t schedulePeriod = 0;
    /** One pre-flattened record stream per session. */
    std::vector<std::vector<sim::PerfRecord>> streams;
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Pre-generate every session's record stream (untimed). */
StreamSet
makeStreams(const sim::MicroarchDescriptor &uarch, std::size_t sessions,
            std::size_t num_slices)
{
    static const char *kWorkloads[] = {"KMeans", "Sort", "Bayes",
                                       "PageRank"};
    StreamSet set;
    set.numSlices = num_slices;
    for (sim::EventId e : uarch.fixedEvents())
        set.monitored.push_back(e);
    for (sim::Role r :
         {sim::Role::LlcMiss, sim::Role::L2Miss, sim::Role::L1DMiss,
          sim::Role::Loads, sim::Role::Stores, sim::Role::Branches,
          sim::Role::BranchMisses, sim::Role::StallMem,
          sim::Role::StallTotal, sim::Role::DramBytes})
        set.monitored.push_back(uarch.idForRole(r));

    for (std::size_t s = 0; s < sessions; ++s) {
        const auto workload = wl::makeHibench(kWorkloads[s % 4]);
        const sim::GroundTruthGenerator generator(uarch, workload);
        const sim::TruthTrace truth =
            generator.generate(num_slices, 9000 + s);
        sim::PerfSessionConfig cfg;
        cfg.seed = 77 + s * 13;
        sim::PerfSession session(uarch, cfg);
        const sim::PerfResult run =
            session.runRoundRobin(truth, set.monitored);
        set.schedulePeriod = run.schedule.size();
        set.streams.push_back(service::recordStream(run));
    }
    return set;
}

core::InferenceConfig
benchInference()
{
    core::InferenceConfig cfg;
    cfg.windowSlices = 6;
    return cfg;
}

/** Service run: P producer threads feeding W workers. */
double
runService(const sim::MicroarchDescriptor &uarch, const StreamSet &set,
           std::size_t workers, std::uint64_t &dropped)
{
    service::MonitorServiceConfig cfg;
    cfg.numWorkers = workers;
    cfg.sessionDefaults.queueCapacity = 1 << 15;
    cfg.sessionDefaults.streaming.inference = benchInference();
    cfg.sessionDefaults.streaming.schedulePeriod = set.schedulePeriod;
    service::MonitorService daemon(uarch, cfg);

    std::vector<service::SessionId> ids;
    for (std::size_t s = 0; s < set.streams.size(); ++s)
        ids.push_back(daemon.open(set.monitored));

    const std::size_t producers =
        std::min<std::size_t>(4, set.streams.size());
    const double t0 = now();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (std::size_t s = p; s < set.streams.size(); s += producers)
                daemon.ingestBatch(ids[s], set.streams[s]);
        });
    }
    for (auto &t : threads)
        t.join();
    for (service::SessionId id : ids)
        daemon.close(id);
    const double wall = now() - t0;
    dropped = daemon.stats().totals.recordsDropped;
    return wall;
}

} // namespace

int
main()
{
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    const std::size_t sessions = bench::quickMode() ? 8 : 32;
    const std::size_t num_slices = bench::quickMode() ? 12 : 48;

    std::cout << "generating " << sessions << " session streams ("
              << num_slices << " slices each)...\n";
    const StreamSet set = makeStreams(uarch, sessions, num_slices);
    const double total_slices =
        static_cast<double>(sessions * num_slices);

    TablePrinter table({"config", "wall s", "slices/s", "dropped"});
    for (std::size_t workers : {1u, 2u, 4u, 8u}) {
        std::uint64_t dropped = 0;
        const double wall = runService(uarch, set, workers, dropped);
        table.addRow("service, " + std::to_string(workers) + " workers",
                     {wall, total_slices / wall,
                      static_cast<double>(dropped)});
    }

    std::cout << "\nService throughput: " << sessions << " sessions x "
              << set.monitored.size() << " events x " << num_slices
              << " slices (" << std::thread::hardware_concurrency()
              << " hardware threads)\n";
    table.print(std::cout);
    return 0;
}

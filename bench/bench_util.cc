#include "bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "baselines/bayesperf_estimator.h"
#include "baselines/counterminer.h"
#include "baselines/linux_scaling.h"
#include "baselines/wmpin.h"
#include "common/logging.h"
#include "common/stats.h"
#include "core/bayesperf.h"
#include "core/derived.h"

namespace bperf {
namespace bench {

using sim::EventId;
using sim::Role;

std::vector<EventId>
evaluationEventSet(const sim::MicroarchDescriptor &uarch)
{
    // 29 programmable events: the metric HPCs plus invariant
    // neighbours, mirroring the 29-counter derived-event example of
    // section 2.
    static const Role roles[] = {
        // Metric events.
        Role::StallTotal, Role::StallMem, Role::StallFrontend,
        Role::StallBranch, Role::BranchMisses, Role::LlcMiss,
        Role::DramBytes, Role::DmaBytes, Role::UopsIssued,
        // Invariant neighbours.
        Role::ActiveCycles, Role::Loads, Role::Stores, Role::Branches,
        Role::OtherOps, Role::BranchTaken, Role::BranchNotTaken,
        Role::L1DAccess, Role::L1DMiss, Role::L1IMiss, Role::L2Access,
        Role::L2Miss, Role::L2Prefetch, Role::LlcAccess,
        Role::DramReads, Role::DramWrites, Role::PcieReadBytes,
        Role::PcieWriteBytes, Role::OffcoreReads, Role::OffcoreWrites};
    std::vector<EventId> out;
    for (Role r : roles)
        out.push_back(uarch.idForRole(r));
    return out;
}

std::vector<EventId>
paddedEventSet(const sim::MicroarchDescriptor &uarch, std::size_t n)
{
    std::vector<EventId> base = evaluationEventSet(uarch);
    // Extend with the remaining programmable events, in catalog order.
    for (EventId e : uarch.programmableEvents())
        if (std::find(base.begin(), base.end(), e) == base.end())
            base.push_back(e);
    bp_assert(n <= base.size(),
              "requested more events than the catalog provides");
    base.resize(n);
    return base;
}

std::vector<EstimatorErrors>
compareEstimators(const sim::MicroarchDescriptor &uarch,
                  const sim::WorkloadProfile &workload,
                  const std::vector<EventId> &monitored,
                  const ComparisonConfig &config)
{
    const sim::GroundTruthGenerator generator(uarch, workload);
    const sim::TruthTrace truth =
        generator.generate(config.numSlices, config.truthSeed);

    // Sampling run through the BayesPerf session (which also gives
    // the raw perf result the baselines consume).
    core::BayesPerfConfig bp_cfg;
    bp_cfg.perf.seed = config.samplingSeed;
    bp_cfg.scheduler.reserveOverlapSlot = config.useOverlapSchedule;
    core::BayesPerfSession session(uarch, bp_cfg);
    session.open(monitored);

    core::OverlapScheduler scheduler(uarch, bp_cfg.scheduler);
    const core::ScheduleResult schedule =
        scheduler.build(session.monitored());
    sim::PerfSessionConfig perf_cfg = bp_cfg.perf;
    sim::PerfSession perf(uarch, perf_cfg);
    const sim::PerfResult sampled =
        perf.run(truth, session.monitored(), schedule.configs);

    // Polled reference run of the same execution.
    sim::PerfSessionConfig poll_cfg;
    poll_cfg.seed = config.pollSeed;
    sim::PerfSession poll(uarch, poll_cfg);
    const sim::PerfResult polled =
        poll.runPolling(truth, session.monitored());

    const auto &metrics = core::standardDerivedMetrics();
    auto ref_series = [&](EventId e) {
        return polled.traceFor(e).estimateSeries();
    };

    auto score = [&](const baselines::Estimator &est) {
        EstimatorErrors errors;
        errors.name = est.name();
        auto est_series = [&](EventId e) { return est.series(sampled, e); };
        errors.derivedErrorPct = ana::derivedErrorPercent(
            uarch, metrics, config.numSlices, est_series, ref_series);
        RunningStats ev;
        for (EventId e : session.monitored())
            ev.push(ana::traceErrorPercent(est.series(sampled, e),
                                           ref_series(e)));
        errors.eventErrorPct = ev.mean();
        return errors;
    };

    std::vector<EstimatorErrors> out;
    out.push_back(score(baselines::LinuxEstimator()));
    out.push_back(score(baselines::CounterMinerEstimator()));
    if (config.includeWmPin)
        out.push_back(score(baselines::WmPinEstimator(uarch)));
    if (config.includeBayesPerf)
        out.push_back(score(baselines::BayesPerfEstimator(uarch)));
    return out;
}

bool
quickMode()
{
    const char *env = std::getenv("BP_QUICK");
    return env && env[0] == '1';
}

std::size_t
defaultSlices()
{
    return quickMode() ? 48 : 96;
}

} // namespace bench
} // namespace bperf

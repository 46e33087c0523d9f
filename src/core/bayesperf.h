/**
 * @file
 * BayesPerf public session API.
 *
 * Mirrors the perf_event_open workflow the paper's shim exposes
 * (section 5): a monitoring application opens the events of interest,
 * the session schedules them (overlap-aware by default), drives the
 * measurement, and serves full posterior distributions — mean plus
 * uncertainty — for every event at every time slice.
 */

#ifndef BPERF_CORE_BAYESPERF_H
#define BPERF_CORE_BAYESPERF_H

#include <vector>

#include "core/inference.h"
#include "core/scheduler.h"
#include "sim/ground_truth.h"
#include "sim/perf_session.h"

namespace bperf {
namespace core {

/** Top-level configuration of a BayesPerf session. */
struct BayesPerfConfig
{
    sim::PerfSessionConfig perf;
    InferenceConfig inference;
    /** scheduler.reserveOverlapSlot = false falls back to Linux
     * round-robin packing (the scheduling ablation). */
    SchedulerConfig scheduler;
};

/** Everything a measurement run produces. */
struct BayesPerfRun
{
    sim::PerfResult raw;
    InferenceResult posterior;
    ScheduleResult schedule;

    /** Posterior-mean series (the MLE the paper reports). */
    std::vector<double> estimate(sim::EventId event) const
    {
        return posterior.meanSeries(event);
    }

    /** Posterior-stddev series (the quantified uncertainty). */
    std::vector<double> uncertainty(sim::EventId event) const
    {
        return posterior.stddevSeries(event);
    }
};

/**
 * Resolve a requested event set to the session's monitored list:
 * fixed counters first (always on, perf_event_open semantics), then
 * the requested events deduplicated in order.  Dies if any event
 * cannot be scheduled on this PMU at all.  Shared by the batch
 * session API and the monitoring service.
 */
std::vector<sim::EventId>
resolveMonitoredSet(const sim::MicroarchDescriptor &uarch,
                    const std::vector<sim::EventId> &events);

/**
 * A BayesPerf monitoring session.
 */
class BayesPerfSession
{
  public:
    explicit BayesPerfSession(const sim::MicroarchDescriptor &uarch,
                              BayesPerfConfig config = {});

    /**
     * Register the events to monitor (perf_event_open equivalent).
     * Fixed events are always monitored and added automatically.
     * Dies if any event cannot be scheduled on this PMU at all.
     */
    void open(const std::vector<sim::EventId> &events);

    bool isOpen() const { return !monitored_.empty(); }
    const std::vector<sim::EventId> &monitored() const { return monitored_; }

    /** Run the measurement + inference pipeline over a trace. */
    BayesPerfRun measure(const sim::TruthTrace &truth);

    const sim::MicroarchDescriptor &uarch() const { return uarch_; }
    const BayesPerfConfig &config() const { return config_; }

  private:
    const sim::MicroarchDescriptor &uarch_;
    BayesPerfConfig config_;
    std::vector<sim::EventId> monitored_;
};

} // namespace core
} // namespace bperf

#endif // BPERF_CORE_BAYESPERF_H

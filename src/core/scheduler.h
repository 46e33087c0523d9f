/**
 * @file
 * Overlap-aware counter scheduling (paper section 4.1).
 *
 * Linux rotates counter configurations round-robin; BayesPerf instead
 * builds a schedule where consecutive configurations share at least
 * one event (directly, or through overlapping Markov blankets in the
 * event factor graph), so transitive statistical relationships chain
 * across time slices.  When an overlap cannot be placed under the
 * PMU's constraints, the chain breaks and restarts from a valid
 * configuration, exactly as the paper prescribes.
 *
 * The class also implements the bridge-construction path (shortest
 * event-to-event chains via graph search) and the two pruning
 * optimizations: removing common steps (condensing through a shared
 * blanket event) and removing redundant steps (dropping steps whose
 * blanket union does not change).
 */

#ifndef BPERF_CORE_SCHEDULER_H
#define BPERF_CORE_SCHEDULER_H

#include <set>
#include <vector>

#include "graph/factor_graph.h"
#include "sim/microarch.h"
#include "sim/pmu.h"

namespace bperf {
namespace core {

/** Scheduler knobs. */
struct SchedulerConfig
{
    /**
     * Reserve one counter per configuration for the carried overlap
     * event.  Disabling this yields plain round-robin packing (the
     * Linux baseline / ablation).
     */
    bool reserveOverlapSlot = true;
};

/** The produced schedule plus bookkeeping for analysis. */
struct ScheduleResult
{
    /** Configurations, rotated one per time slice. */
    std::vector<std::vector<sim::EventId>> configs;

    /**
     * carried[i] is the event shared between configs[i-1] and
     * configs[i] (kNoEvent for i = 0 or after a chain break).
     */
    std::vector<sim::EventId> carried;

    /** Number of times the overlap chain had to be broken. */
    std::size_t chainBreaks = 0;
};

/**
 * Builds overlap-aware schedules over a microarchitecture's event
 * factor graph.
 */
class OverlapScheduler
{
  public:
    explicit OverlapScheduler(const sim::MicroarchDescriptor &uarch,
                              SchedulerConfig config = {});

    /** Build the schedule for a monitored event set. */
    ScheduleResult build(const std::vector<sim::EventId> &monitored) const;

    /** Markov blanket of an event set within the event graph. */
    std::set<sim::EventId>
    blanketOf(const std::vector<sim::EventId> &events) const;

    /**
     * True when two configurations satisfy the transitive-dependency
     * criterion: they share an event, or their Markov blankets
     * intersect.
     */
    bool configsLinked(const std::vector<sim::EventId> &a,
                       const std::vector<sim::EventId> &b) const;

    /** Shortest event chain between two events (unit edge cost). */
    std::vector<sim::EventId> shortestEventPath(sim::EventId from,
                                                sim::EventId to) const;

    /**
     * Build the shortest bridge schedule C'_1..C'_m such that
     * from -> C'_1 -> ... -> C'_m -> to is statistically linked and
     * every C'_i is PMU-valid.  Returns an empty chain when the two
     * configurations are already linked.
     */
    std::vector<std::vector<sim::EventId>>
    bridge(const std::vector<sim::EventId> &from,
           const std::vector<sim::EventId> &to) const;

    /**
     * Optimization 1 (removing common steps): within each bridge
     * step, if all events share a common Markov-blanket event e*, the
     * step is condensed to {e*}.
     */
    std::vector<std::vector<sim::EventId>>
    pruneCommonSteps(std::vector<std::vector<sim::EventId>> chain) const;

    /**
     * Optimization 2 (removing redundant steps): drop step i+1 when
     * its Markov blanket equals step i's (no new information).
     */
    std::vector<std::vector<sim::EventId>>
    pruneRedundantSteps(std::vector<std::vector<sim::EventId>> chain) const;

  private:
    const sim::MicroarchDescriptor &uarch_;
    SchedulerConfig config_;
    sim::Pmu pmu_;
    /** The event-level factor graph: one variable per catalog event
     * (VarId == EventId), one factor per invariant. */
    graph::FactorGraph eventGraph_;
};

} // namespace core
} // namespace bperf

#endif // BPERF_CORE_SCHEDULER_H

#include "core/scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace bperf {
namespace core {

using sim::EventId;
using sim::kNoEvent;

namespace {

bool
intersects(const std::set<EventId> &a, const std::set<EventId> &b)
{
    for (EventId e : a)
        if (b.count(e))
            return true;
    return false;
}

std::set<EventId>
toSet(const std::vector<EventId> &v)
{
    return {v.begin(), v.end()};
}

} // namespace

OverlapScheduler::OverlapScheduler(const sim::MicroarchDescriptor &uarch,
                                   SchedulerConfig config)
    : uarch_(uarch), config_(config), pmu_(uarch)
{
    // Event graph: VarId i is catalog event i.
    for (const auto &def : uarch_.events())
        eventGraph_.addVariable(def.typicalPerSlice);
    for (const auto &inv : uarch_.invariants()) {
        std::vector<std::pair<graph::VarId, double>> terms;
        for (const auto &t : inv.terms)
            terms.emplace_back(uarch_.idForRole(t.role), t.coeff);
        eventGraph_.addLinearGaussian(terms, 0.0, 1.0);
    }
}

std::set<EventId>
OverlapScheduler::blanketOf(const std::vector<EventId> &events) const
{
    std::set<graph::VarId> vars(events.begin(), events.end());
    std::set<EventId> out;
    for (graph::VarId v : eventGraph_.markovBlanketOfSet(vars))
        out.insert(static_cast<EventId>(v));
    return out;
}

bool
OverlapScheduler::configsLinked(const std::vector<EventId> &a,
                                const std::vector<EventId> &b) const
{
    const auto sa = toSet(a);
    const auto sb = toSet(b);
    if (intersects(sa, sb))
        return true;
    const auto ba = blanketOf(a);
    const auto bb = blanketOf(b);
    return intersects(ba, sb) || intersects(sa, bb) || intersects(ba, bb);
}

std::vector<EventId>
OverlapScheduler::shortestEventPath(EventId from, EventId to) const
{
    std::vector<EventId> out;
    for (graph::VarId v : eventGraph_.shortestPath(from, to))
        out.push_back(static_cast<EventId>(v));
    return out;
}

ScheduleResult
OverlapScheduler::build(const std::vector<EventId> &monitored) const
{
    std::vector<EventId> pending;
    for (EventId e : monitored)
        if (!uarch_.event(e).fixed)
            pending.push_back(e);

    ScheduleResult result;
    if (pending.empty()) {
        result.configs = {{}};
        result.carried = {kNoEvent};
        return result;
    }

    if (!config_.reserveOverlapSlot) {
        result.configs = pmu_.packIntoConfigs(pending);
        result.carried.assign(result.configs.size(), kNoEvent);
        return result;
    }

    auto erase_from_pending = [&](EventId e) {
        pending.erase(std::remove(pending.begin(), pending.end(), e),
                      pending.end());
    };

    // Greedily grow `config` with events from pending, preferring
    // events inside `prefer`.
    auto fill_config = [&](std::vector<EventId> &config,
                           const std::set<EventId> &prefer) {
        std::vector<EventId> ordered;
        for (EventId e : pending)
            if (prefer.count(e))
                ordered.push_back(e);
        for (EventId e : pending)
            if (!prefer.count(e))
                ordered.push_back(e);
        for (EventId e : ordered) {
            if (config.size() >= uarch_.numProgrammableCounters())
                break;
            config.push_back(e);
            if (pmu_.validate(config)) {
                erase_from_pending(e);
            } else {
                config.pop_back();
            }
        }
    };

    // First configuration: no carry possible.
    {
        std::vector<EventId> config;
        fill_config(config, {});
        bp_assert(!config.empty(), "no monitored event is schedulable");
        result.configs.push_back(std::move(config));
        result.carried.push_back(kNoEvent);
    }

    while (!pending.empty()) {
        const std::vector<EventId> &prev = result.configs.back();

        // Candidate carries: events of the previous configuration
        // whose Markov blanket reaches into the pending set (so the
        // overlap transfers information the next slice needs).
        EventId carry = kNoEvent;
        const std::set<EventId> pending_set = toSet(pending);
        for (EventId c : prev) {
            std::set<graph::VarId> single{c};
            const auto blanket = eventGraph_.markovBlanket(c);
            bool reaches = false;
            for (graph::VarId v : blanket)
                if (pending_set.count(static_cast<EventId>(v)))
                    reaches = true;
            if (reaches) {
                carry = c;
                break;
            }
        }
        if (carry == kNoEvent && !prev.empty())
            carry = prev.front(); // still repeat an event across slices

        std::vector<EventId> config;
        if (carry != kNoEvent)
            config.push_back(carry);
        const std::set<EventId> prefer =
            carry != kNoEvent ? blanketOf({carry}) : std::set<EventId>{};
        fill_config(config, prefer);

        const bool only_carry =
            carry != kNoEvent && config.size() == 1;
        if (only_carry) {
            // The carry blocks every pending event (mask/MSR
            // conflicts): break the chain and restart from a valid
            // configuration, as section 4.1 prescribes.
            ++result.chainBreaks;
            config.clear();
            fill_config(config, {});
            bp_assert(!config.empty(), "pending event unschedulable");
            result.configs.push_back(std::move(config));
            result.carried.push_back(kNoEvent);
        } else {
            result.configs.push_back(std::move(config));
            result.carried.push_back(carry);
        }
    }
    return result;
}

std::vector<std::vector<EventId>>
OverlapScheduler::bridge(const std::vector<EventId> &from,
                         const std::vector<EventId> &to) const
{
    if (configsLinked(from, to))
        return {};

    // Shortest path over all endpoint pairs.
    std::vector<EventId> best;
    for (EventId a : from) {
        for (EventId b : to) {
            const auto path = shortestEventPath(a, b);
            if (path.empty())
                continue;
            if (best.empty() || path.size() < best.size())
                best = path;
        }
    }
    if (best.size() <= 2)
        return {}; // disconnected, or directly adjacent

    std::vector<std::vector<EventId>> chain;
    for (std::size_t i = 1; i + 1 < best.size(); ++i) {
        const EventId e = best[i];
        if (uarch_.event(e).fixed)
            continue; // fixed events are always measured; no step needed
        if (!pmu_.validate({e}))
            continue;
        chain.push_back({e});
    }
    chain = pruneCommonSteps(std::move(chain));
    chain = pruneRedundantSteps(std::move(chain));
    return chain;
}

std::vector<std::vector<EventId>>
OverlapScheduler::pruneCommonSteps(
    std::vector<std::vector<EventId>> chain) const
{
    for (auto &step : chain) {
        if (step.size() < 2)
            continue;
        // Intersect the Markov blankets of all events in the step.
        std::set<EventId> common;
        bool first = true;
        for (EventId e : step) {
            std::set<EventId> blanket;
            for (graph::VarId v : eventGraph_.markovBlanket(e))
                blanket.insert(static_cast<EventId>(v));
            if (first) {
                common = std::move(blanket);
                first = false;
            } else {
                std::set<EventId> kept;
                for (EventId c : common)
                    if (blanket.count(c))
                        kept.insert(c);
                common = std::move(kept);
            }
        }
        // Composition can flow through a single shared neighbour.
        for (EventId e_star : common) {
            if (!uarch_.event(e_star).fixed && pmu_.validate({e_star})) {
                step = {e_star};
                break;
            }
        }
    }
    return chain;
}

std::vector<std::vector<EventId>>
OverlapScheduler::pruneRedundantSteps(
    std::vector<std::vector<EventId>> chain) const
{
    std::vector<std::vector<EventId>> kept;
    std::set<EventId> prev_blanket;
    for (auto &step : chain) {
        auto blanket = blanketOf(step);
        if (!kept.empty() && blanket == prev_blanket)
            continue; // no change in blanket: skip straight ahead
        prev_blanket = blanket;
        kept.push_back(std::move(step));
    }
    return kept;
}

} // namespace core
} // namespace bperf

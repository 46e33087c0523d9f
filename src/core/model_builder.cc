#include "core/model_builder.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace bperf {
namespace core {

using graph::VarId;

WindowModel::WindowModel(const sim::MicroarchDescriptor &uarch,
                         const std::vector<sim::EventId> &events,
                         std::size_t num_slices, ModelConfig,
                         const std::vector<double> *levels,
                         const std::vector<double> *normalizer)
    : uarch_(uarch), events_(events), numSlices_(num_slices)
{
    bp_assert(!events_.empty(), "window needs at least one event");
    rebuild(num_slices, levels, normalizer);
}

void
WindowModel::rebuild(std::size_t num_slices,
                     const std::vector<double> *levels,
                     const std::vector<double> *normalizer)
{
    bp_assert(num_slices >= 1, "window needs at least one slice");
    numSlices_ = num_slices;

    if (normalizer) {
        bp_assert(normalizer->size() == numSlices_,
                  "normalizer must cover the window");
        assignReuse(normalizer_, *normalizer);
        for (double n : normalizer_)
            bp_assert(n > 0.0, "normalizer values must be positive");
    } else {
        normalizer_.clear();
    }

    if (levels) {
        bp_assert(levels->size() == events_.size(),
                  "level hints must align with events");
        assignReuse(levels_, *levels);
    } else {
        if (levels_.capacity() < events_.size())
            ++grows_;
        levels_.clear();
        for (sim::EventId e : events_)
            levels_.push_back(uarch_.event(e).typicalPerSlice);
    }

    graph_.reset();
    build();
}

void
WindowModel::build()
{
    if (eventIndex_.capacity() < uarch_.events().size())
        ++grows_;
    eventIndex_.assign(uarch_.events().size(),
                       std::numeric_limits<std::size_t>::max());
    for (std::size_t i = 0; i < events_.size(); ++i)
        eventIndex_[events_[i]] = i;

    // Variables + weak priors centered on the current level.
    if (varOf_.capacity() < numSlices_ * events_.size())
        ++grows_;
    varOf_.assign(numSlices_ * events_.size(), graph::kNoVar);
    for (std::size_t t = 0; t < numSlices_; ++t) {
        for (std::size_t i = 0; i < events_.size(); ++i) {
            const auto &def = uarch_.event(events_[i]);
            const VarId v = graph_.addVariable(def.typicalPerSlice);
            varOf_[t * events_.size() + i] = v;
            graph_.addGaussianPrior(
                v, levels_[i],
                ModelConfig::priorSigmaRel *
                    std::max(levels_[i], 0.05 * def.typicalPerSlice));
        }
    }

    // Invariant factors, per slice, for invariants fully covered by
    // the modeled event set.  Factor noise scales with the *current*
    // magnitude of the largest term (falling back to a fraction of
    // typical), so soft invariants keep their documented relative
    // slack whether the workload runs hot or cold.
    for (const auto &inv : uarch_.invariants()) {
        bool covered = true;
        double magnitude = 0.0;
        for (const auto &term : inv.terms) {
            const sim::EventId e = uarch_.idForRole(term.role);
            const std::size_t idx = eventIndex_[e];
            if (idx == std::numeric_limits<std::size_t>::max()) {
                covered = false;
                break;
            }
            const double level = std::max(
                levels_[idx], 0.25 * uarch_.event(e).typicalPerSlice);
            magnitude = std::max(magnitude, std::abs(term.coeff) * level);
        }
        if (!covered)
            continue;
        const double noise = std::max(inv.slackRel * magnitude, 1e-9);
        for (std::size_t t = 0; t < numSlices_; ++t) {
            if (termVars_.capacity() < inv.terms.size())
                ++grows_;
            if (termCoeffs_.capacity() < inv.terms.size())
                ++grows_;
            termVars_.clear();
            termCoeffs_.clear();
            for (const auto &term : inv.terms) {
                termVars_.push_back(var(uarch_.idForRole(term.role), t));
                termCoeffs_.push_back(term.coeff);
            }
            graph_.addLinearGaussian(termVars_, termCoeffs_, 0.0, noise);
        }
    }

    // Temporal random-walk factors, scaled to the current level so
    // the walk stays informative for workloads far from typical
    // intensity.
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const auto &def = uarch_.event(events_[i]);
        const double level =
            std::max(levels_[i], 0.25 * def.typicalPerSlice);
        const double noise =
            std::max(ModelConfig::temporalSigmaRel * level, 1e-9);
        for (std::size_t t = 1; t < numSlices_; ++t) {
            const VarId walk_vars[2] = {var(events_[i], t),
                                        var(events_[i], t - 1)};
            const double walk_coeffs[2] = {1.0, -1.0};
            graph_.addLinearGaussian(walk_vars, walk_coeffs, 0.0, noise);
        }
    }

    // Ratio-walk factors: per-instruction ratios are more stable than
    // raw counts for instruction-tracking events (the instruction
    // mix), and the normalizer is measured exactly per slice.  Events
    // with their own independent dynamics (cache misses, DMA) are
    // excluded — dividing them by a varying instruction rate would
    // add noise.
    if (!normalizer_.empty()) {
        auto tracks_instructions = [](sim::Role role) {
            switch (role) {
              case sim::Role::Loads:
              case sim::Role::Stores:
              case sim::Role::Branches:
              case sim::Role::OtherOps:
              case sim::Role::BranchTaken:
              case sim::Role::BranchNotTaken:
              case sim::Role::UopsIssued:
              case sim::Role::UopsRetired:
              case sim::Role::ActiveCycles:
              case sim::Role::L1DAccess:
              case sim::Role::DtlbMiss:
              case sim::Role::ItlbMiss:
                return true;
              default:
                return false;
            }
        };
        for (std::size_t i = 0; i < events_.size(); ++i) {
            const auto &def = uarch_.event(events_[i]);
            if (def.fixed || !tracks_instructions(def.role))
                continue; // fixed counters are their own anchors
            const double level =
                std::max(levels_[i], 0.25 * def.typicalPerSlice);
            for (std::size_t t = 1; t < numSlices_; ++t) {
                const double n_prev = normalizer_[t - 1];
                const double n_cur = normalizer_[t];
                const double n_geo = std::sqrt(n_prev * n_cur);
                const double noise = std::max(
                    ModelConfig::ratioSigmaRel * level / n_geo, 1e-15);
                const VarId ratio_vars[2] = {var(events_[i], t),
                                             var(events_[i], t - 1)};
                const double ratio_coeffs[2] = {1.0 / n_cur,
                                                -1.0 / n_prev};
                graph_.addLinearGaussian(ratio_vars, ratio_coeffs, 0.0,
                                         noise);
            }
        }
    }
}

VarId
WindowModel::var(sim::EventId event, std::size_t slice) const
{
    bp_assert(slice < numSlices_, "slice out of window");
    bp_assert(event < eventIndex_.size(), "event out of catalog");
    const std::size_t idx = eventIndex_[event];
    if (idx == std::numeric_limits<std::size_t>::max())
        return graph::kNoVar;
    return varOf_[slice * events_.size() + idx];
}

void
WindowModel::addMeasurement(sim::EventId event, std::size_t slice,
                            const MeasurementModel &m)
{
    const VarId v = var(event, slice);
    bp_assert(v != graph::kNoVar, "measurement for unmodeled event");
    graph_.addStudentT(v, m.loc, m.scale, m.nu);
}

void
WindowModel::addCarryPriors(const std::vector<CarryPrior> &priors)
{
    for (const auto &p : priors) {
        const VarId v = var(p.event, 0);
        if (v == graph::kNoVar)
            continue;
        graph_.addGaussianPrior(v, p.mean, p.stddev);
    }
}

} // namespace core
} // namespace bperf

/**
 * @file
 * Construction of the BayesPerf factor graph for a window of slices.
 *
 * Variables are (event, slice) pairs.  Three factor families:
 *   - invariant factors per slice, instantiated from the
 *     microarchitecture's invariant catalog ("→" edges in the paper's
 *     Fig. 2);
 *   - temporal random-walk factors linking the same event across
 *     consecutive slices ("⇝" edges, the overlap relationship);
 *   - Student-t measurement factors for slices where the event was
 *     scheduled on a counter (section 4.2).
 * A weak Gaussian prior anchors every variable.  The model's constants
 * are static members of ModelConfig; their values are hand-fit, and
 * the model audit on the ROADMAP is to re-derive them.
 *
 * The model is rebuilt once per sliding window, so it recycles like
 * the graph beneath it: rebuild() re-enters construction for the next
 * window reusing every buffer (the graph's slots, term scratch), and
 * bufferGrows() counts the growth events — zero per window in steady
 * state.
 */

#ifndef BPERF_CORE_MODEL_BUILDER_H
#define BPERF_CORE_MODEL_BUILDER_H

#include <type_traits>
#include <vector>

#include "core/measurement.h"
#include "graph/factor_graph.h"
#include "sim/microarch.h"
#include "sim/perf_session.h"

namespace bperf {
namespace core {

/**
 * Constants of the window model.  Every member is static, so the
 * struct is empty: InferenceConfig::model and WindowModel's config
 * parameter only name it.
 */
struct ModelConfig
{
    /** Relative sigma of the per-slice random walk on each event. */
    static constexpr double temporalSigmaRel = 0.12;

    /** Relative sigma of the weak prior (vs. the event scale hint). */
    static constexpr double priorSigmaRel = 4.0;

    /** Extra relative scale added to every measurement (see 4.2). */
    static constexpr double measurementExtraRel = 0.005;

    /**
     * Floor on a multiplexed measurement's scale as a fraction of the
     * event's current level.  Counters extrapolated from a small duty
     * cycle cannot be trusted below this no matter how well their PMI
     * windows happen to agree.
     */
    static constexpr double measurementFloorRel = 0.45;

    /**
     * Relative (of the location) scale floor for multiplexed
     * measurements.  Models the multiplicative nature of the
     * extrapolation noise: large readings are proportionally as
     * uncertain as small ones.
     */
    static constexpr double measurementMuxRel = 0.02;

    /**
     * Relative sigma of the ratio walk
     * x_t / N_t - x_{t-1} / N_{t-1} ~ N(0, sigma), built when the
     * window's instruction counts N are supplied.  The normalizer is
     * measured exactly every slice, so this stays a linear-Gaussian
     * factor.
     */
    static constexpr double ratioSigmaRel = 0.03;
};
static_assert(std::is_empty_v<ModelConfig>);

/** Carry-in prior for the oldest slice of a sliding window. */
struct CarryPrior
{
    sim::EventId event = sim::kNoEvent;
    double mean = 0.0;
    double stddev = 1.0;
};

/**
 * Builds the window factor graph and maps (event, slice) to VarIds.
 */
class WindowModel
{
  public:
    /**
     * @param uarch       Architecture (invariants + scale hints).
     * @param events      Events modeled (fixed events included).
     * @param num_slices  Number of slices in the window.
     * @param levels      Optional per-event current-magnitude hints
     *                    (aligned with `events`); the random-walk and
     *                    prior factors scale with these instead of
     *                    the catalog's typical magnitudes, keeping
     *                    the walk informative when the workload runs
     *                    far from typical intensity.
     * @param normalizer  Optional per-window-slice measured values of
     *                    the normalizing fixed counter (instructions);
     *                    enables the ratio walk; size num_slices.
     *
     * The ModelConfig argument carries no state (see ModelConfig).
     */
    WindowModel(const sim::MicroarchDescriptor &uarch,
                const std::vector<sim::EventId> &events,
                std::size_t num_slices, ModelConfig,
                const std::vector<double> *levels = nullptr,
                const std::vector<double> *normalizer = nullptr);

    /**
     * Rebuild the model for the next window of the same event set:
     * resets the graph (keeping its buffers) and reconstructs every
     * structural factor with the new window length, level hints and
     * normalizer.  Allocation-free once every buffer has warmed up.
     */
    void rebuild(std::size_t num_slices,
                 const std::vector<double> *levels = nullptr,
                 const std::vector<double> *normalizer = nullptr);

    /** Variable for an event at a window-relative slice; kNoVar if
     * the event is not modeled. */
    graph::VarId var(sim::EventId event, std::size_t slice) const;

    /** Attach a measurement to (event, slice). */
    void addMeasurement(sim::EventId event, std::size_t slice,
                        const MeasurementModel &m);

    /** Attach carry-in priors (posterior of the slice that just left
     * the window) to window slice 0. */
    void addCarryPriors(const std::vector<CarryPrior> &priors);

    const graph::FactorGraph &graph() const { return graph_; }

    std::size_t numSlices() const { return numSlices_; }
    const std::vector<sim::EventId> &events() const { return events_; }

    /**
     * Cumulative buffer-growth events across this model and its
     * graph.  Constant across steady-state rebuild() cycles (the
     * zero-allocation invariant the window engine asserts).
     */
    std::size_t bufferGrows() const
    {
        return grows_ + graph_.bufferGrows();
    }

  private:
    void build();
    /** Capacity-aware copy into a reused vector. */
    template <typename T>
    void assignReuse(std::vector<T> &dst, const std::vector<T> &src)
    {
        if (dst.capacity() < src.size())
            ++grows_;
        dst.assign(src.begin(), src.end());
    }

    const sim::MicroarchDescriptor &uarch_;
    std::vector<sim::EventId> events_;
    std::size_t numSlices_;
    std::vector<double> levels_;
    std::vector<double> normalizer_;
    graph::FactorGraph graph_;
    // varOf_[slice * events_.size() + eventIndex]
    std::vector<graph::VarId> varOf_;
    std::vector<std::size_t> eventIndex_; // by EventId, SIZE_MAX if absent

    /** Reused scratch: linear-factor terms. */
    std::vector<graph::VarId> termVars_;
    std::vector<double> termCoeffs_;
    std::size_t grows_ = 0;
};

} // namespace core
} // namespace bperf

#endif // BPERF_CORE_MODEL_BUILDER_H

/**
 * @file
 * Sliding-window inference orchestration (paper section 4.3).
 *
 * Measurements stream in slice by slice; the engine partitions them
 * into windows of k slices, runs EP on each window's factor graph,
 * and carries the trailing posterior forward as the next window's
 * prior — the compositional chaining of inference across time slices
 * that the paper describes.
 *
 * Two entry points share one window runner:
 *   - WindowedInference consumes slices incrementally (push/finish)
 *     and only ever buffers the last window's worth of measurements —
 *     the streaming form the monitoring service (src/service/) runs on
 *     live sessions;
 *   - InferenceEngine::infer replays a complete measurement run
 *     through the same streaming path, so batch and streaming
 *     posteriors are identical by construction.
 */

#ifndef BPERF_CORE_INFERENCE_H
#define BPERF_CORE_INFERENCE_H

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/ep.h"
#include "core/model_builder.h"
#include "sim/microarch.h"
#include "sim/perf_session.h"

namespace bperf {
namespace core {

/** Engine configuration. */
struct InferenceConfig
{
    /**
     * Slices jointly inferred per window (k of section 4.3).  The
     * default 0 adapts k to the schedule period of the measurement
     * run (clamped to [3, 8]), so every multiplexed event has at
     * least one observation inside each window.
     */
    std::size_t windowSlices = 0;

    EpConfig ep;
    ModelConfig model;

    /**
     * Variance inflation applied to carried posteriors so the prior
     * of a new window does not double-count old data.
     */
    double carryVarInflation = 2.0;

    /**
     * Posterior history retained by the streaming engine, in slices;
     * 0 keeps the full series (batch replay, short sessions).  A
     * bounded value caps a long-lived session's memory: the series
     * then covers only the last retainSlices inferred slices (plus
     * anything a future window may still rewrite), and results carry
     * the index of their first retained slice.
     */
    std::size_t retainSlices = 0;
};

/** Posterior of one event at one slice. */
struct PosteriorPoint
{
    double mean = 0.0;
    double stddev = 0.0;
};

/** Full posterior time series for a run. */
struct InferenceResult
{
    std::vector<sim::EventId> events;
    /**
     * series[i][t] is the posterior of events[i] at slice
     * firstSlice + t (firstSlice is 0 unless the producing engine ran
     * with bounded retention, InferenceConfig::retainSlices).
     */
    std::vector<std::vector<PosteriorPoint>> series;
    std::size_t firstSlice = 0;

    std::size_t windowsRun = 0;
    std::size_t epSweepsTotal = 0;
    /** Cumulative EP op counts over the run's windows (the bench's
     * per-window cost decomposition; see EpResult). */
    std::size_t epMomentEvaluations = 0;
    std::size_t epRank1Updates = 0;
    std::size_t epFullSolves = 0;
    std::size_t epBlockFlushes = 0;
    std::size_t epSkippedUpdates = 0;
    double wallSeconds = 0.0;
    /**
     * Cumulative EpWorkspace buffer growths across the run's windows.
     * After the warm-up window this stops growing: steady-state EP
     * runs reuse the workspace (the O(n^2) solver working set)
     * without allocating.
     */
    std::size_t epWorkspaceAllocations = 0;
    /**
     * Cumulative buffer growths of the window model (factor graph
     * slots, names, term scratch) and engine-side staging (levels,
     * normalizer, EP result vectors).  Like the workspace counter it
     * stops growing after warm-up: the model is rebuilt in place per
     * window without allocating.
     */
    std::size_t modelAllocations = 0;

    /** Posterior-mean series for one event (the paper's MLE output). */
    std::vector<double> meanSeries(sim::EventId event) const;

    /** Posterior-stddev series for one event. */
    std::vector<double> stddevSeries(sim::EventId event) const;
};

/**
 * What one window run leaves for the layer that dispatches windows
 * (the service's sessions, which place it on their stream clock and
 * hand it to an execution backend).  The window's posterior is
 * already in the engine's series when its record is appended.
 */
struct WindowRecord
{
    /** 1-based position of the window in the engine's run order. */
    std::uint64_t ordinal = 0;
    /** Engine-local index of the window's last slice. */
    std::size_t lastSlice = 0;
    /** Window length in slices. */
    std::size_t slices = 0;
    /** Joint size of the window's factor graph. */
    std::size_t numVariables = 0;
    /** Student-t measurement sites EP refreshed. */
    std::size_t numSites = 0;
    /** EP sweeps run. */
    std::size_t sweeps = 0;
    /** Measured wall time of the window run (seconds). */
    double hostSeconds = 0.0;
    /** Start and end of the window run (telemetry::nowNanos() base). */
    std::uint64_t epStartNanos = 0;
    std::uint64_t epEndNanos = 0;
};

/**
 * One slice's measurements for every monitored event, aligned with
 * the engine's event list (samples[i] belongs to events()[i]).
 * Unobserved events carry a default-constructed (observed = false)
 * sample.
 */
using SliceMeasurements = std::vector<sim::SliceSample>;

/**
 * Streaming sliding-window EP over an unbounded slice sequence.
 *
 * Slices are pushed one at a time; whenever a full window of k slices
 * has accumulated past the next window start, EP runs eagerly and the
 * trailing posterior is carried forward as the next window's prior.
 * Only the slices the next window can still reach are retained, so
 * memory for measurements is O(k · events), independent of stream
 * length.  finish() drains the tail with the (possibly truncated)
 * windows a batch run would produce.
 *
 * Not thread-safe: one streaming engine belongs to one session and is
 * driven by one worker at a time (the service layer guarantees this).
 */
class WindowedInference
{
  public:
    /**
     * @param schedule_period  Length of the multiplexing schedule the
     *        measurements rotate over; used to adapt the window size
     *        when config.windowSlices is 0 (see InferenceConfig).
     */
    WindowedInference(const sim::MicroarchDescriptor &uarch,
                      std::vector<sim::EventId> events,
                      InferenceConfig config = {},
                      std::size_t schedule_period = 0);

    /**
     * Append the next slice's measurements and run any window that
     * became ready.  Returns the number of windows run.
     */
    std::size_t push(const SliceMeasurements &slice);

    /**
     * Run EP over the remaining tail (truncated windows).  Call once
     * after the last push; further pushes are rejected.  Returns the
     * number of windows run.
     */
    std::size_t finish();

    const std::vector<sim::EventId> &events() const { return events_; }
    const InferenceConfig &config() const { return config_; }

    /** Window length k in slices (resolved from the config). */
    std::size_t windowSlices() const { return k_; }

    /** Total slices pushed so far. */
    std::size_t slicesSeen() const { return numSlices_; }

    /** Slices with a posterior (prefix of the stream). */
    std::size_t slicesCovered() const { return coveredEnd_; }

    /** First slice still retained in series() (0 without retention). */
    std::size_t firstRetainedSlice() const { return seriesBase_; }

    /** series()[i][t]: posterior of events()[i] at slice
     * firstRetainedSlice() + t; valid while that index is below
     * slicesCovered(). */
    const std::vector<std::vector<PosteriorPoint>> &series() const
    {
        return series_;
    }

    /** Most recent posterior of events()[event_index]. */
    PosteriorPoint latest(std::size_t event_index) const;

    /**
     * Posterior summary at the most recent inferred slice: resizes
     * `out` to events().size() and fills it with each event's latest
     * posterior, reusing out's storage (the allocation-free summary
     * the service's WindowUpdate publishing and the snapshot shim
     * both consume).  Returns false (out untouched) before the first
     * inferred slice.
     */
    bool latestPosteriors(std::vector<PosteriorPoint> &out) const;

    std::size_t windowsRun() const { return windowsRun_; }
    std::size_t epSweepsTotal() const { return epSweepsTotal_; }

    /**
     * Cumulative buffer-growth events of the reused EP workspace.
     * Constant across steady-state windows (the zero-allocation
     * invariant the service tests assert).
     */
    std::size_t epWorkspaceAllocations() const
    {
        return epWorkspace_.totalAllocations();
    }

    /**
     * Cumulative buffer-growth events of the reused window model and
     * engine staging buffers (see InferenceResult::modelAllocations).
     * Constant across steady-state windows.
     */
    std::size_t modelAllocations() const
    {
        return (model_ ? model_->bufferGrows() : 0) + stagingGrows_;
    }

    /** Cumulative wall time spent inside window EP runs. */
    double inferSeconds() const { return inferSeconds_; }

    /**
     * Move the records of the windows run since the last call into
     * `out` (oldest first), replacing its contents.  The buffers are
     * swapped, so a caller that keeps passing the same vector
     * allocates nothing in steady state.
     */
    void takeWindows(std::vector<WindowRecord> &out);

    /** Assemble the run's result (moves the retained posterior
     * series).  Requires finish(); the engine is spent afterwards. */
    InferenceResult takeResult();

  private:
    /** Run one window of w_len slices starting at nextStart_. */
    void runWindow(std::size_t w_len);

    /** Measurements of absolute slice t (t within the live buffer). */
    const SliceMeasurements &slice(std::size_t t) const;

    const sim::MicroarchDescriptor &uarch_;
    std::vector<sim::EventId> events_;
    InferenceConfig config_;
    std::size_t k_ = 0;      // window length, slices
    std::size_t stride_ = 0; // window start spacing

    /** Live measurement buffer: absolute slices
     * [bufferBase_, bufferBase_ + buffer_.size()). */
    std::deque<SliceMeasurements> buffer_;
    std::size_t bufferBase_ = 0;

    std::size_t numSlices_ = 0;  // total pushed
    std::size_t nextStart_ = 0;  // next window's first slice
    std::size_t coveredEnd_ = 0; // posterior exists for [0, coveredEnd_)
    bool finished_ = false;

    /** Reused across windows so steady-state EP runs allocate nothing. */
    EpWorkspace epWorkspace_;
    /** Window model rebuilt in place each window (buffers recycled);
     * constructed lazily on the first window. */
    std::optional<WindowModel> model_;
    /** Reused per-window staging: level hints, normalizer series and
     * the EP result vectors. */
    std::vector<double> levels_;
    std::vector<double> normalizer_;
    EpResult epResult_;
    ExpectationPropagation ep_;
    /** Buffer-growth events of the staging vectors above. */
    std::size_t stagingGrows_ = 0;

    std::vector<CarryPrior> carry_;
    /** Retained posterior rows: absolute slice seriesBase_ + t. */
    std::vector<std::vector<PosteriorPoint>> series_;
    std::size_t seriesBase_ = 0;

    std::size_t windowsRun_ = 0;
    std::size_t epSweepsTotal_ = 0;
    /** Cumulative EP op counters (InferenceResult mirrors). */
    std::size_t epMomentEvaluations_ = 0;
    std::size_t epRank1Updates_ = 0;
    std::size_t epFullSolves_ = 0;
    std::size_t epBlockFlushes_ = 0;
    std::size_t epSkippedUpdates_ = 0;
    double inferSeconds_ = 0.0;
    /** Windows run but not yet taken by takeWindows(). */
    std::vector<WindowRecord> windows_;
};

/**
 * Runs BayesPerf inference over a complete measurement run by
 * replaying it through the streaming engine.
 */
class InferenceEngine
{
  public:
    InferenceEngine(const sim::MicroarchDescriptor &uarch,
                    InferenceConfig config = {});

    /** Infer posteriors for every monitored event at every slice. */
    InferenceResult infer(const sim::PerfResult &measurements) const;

    const InferenceConfig &config() const { return config_; }

  private:
    const sim::MicroarchDescriptor &uarch_;
    InferenceConfig config_;
};

} // namespace core
} // namespace bperf

#endif // BPERF_CORE_INFERENCE_H

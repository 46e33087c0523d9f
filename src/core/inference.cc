#include "core/inference.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace bperf {
namespace core {

namespace {

std::uint64_t
spanNanos(std::chrono::steady_clock::time_point tp)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp.time_since_epoch())
            .count());
}

} // namespace

std::vector<double>
InferenceResult::meanSeries(sim::EventId event) const
{
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i] == event) {
            std::vector<double> out(series[i].size());
            for (std::size_t t = 0; t < out.size(); ++t)
                out[t] = series[i][t].mean;
            return out;
        }
    }
    bp_panic("event not inferred: id " << event);
}

std::vector<double>
InferenceResult::stddevSeries(sim::EventId event) const
{
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i] == event) {
            std::vector<double> out(series[i].size());
            for (std::size_t t = 0; t < out.size(); ++t)
                out[t] = series[i][t].stddev;
            return out;
        }
    }
    bp_panic("event not inferred: id " << event);
}

WindowedInference::WindowedInference(const sim::MicroarchDescriptor &uarch,
                                     std::vector<sim::EventId> events,
                                     InferenceConfig config,
                                     std::size_t schedule_period)
    : uarch_(uarch), events_(std::move(events)), config_(config),
      ep_(config.ep)
{
    bp_assert(!events_.empty(), "nothing to infer");
    k_ = config_.windowSlices;
    if (k_ == 0) {
        // Adapt to the schedule period so every event is observed at
        // least once per window.
        k_ = std::clamp<std::size_t>(schedule_period, 3, 8);
    }
    // Half-overlapping sliding windows: every slice (except the tail)
    // is re-estimated by a later window in which it has future
    // context, giving two-sided smoothing between observations.
    stride_ = std::max<std::size_t>(1, k_ / 2);
    slots_.assign(k_, SliceMeasurements(events_.size()));
    series_.resize(events_.size());
    if (config_.retainSlices > 0) {
        // Rows trim at 2 x retainSlices and grow by at most a stride
        // before the window that trims them, so they never reallocate.
        for (auto &row : series_)
            row.reserve(2 * config_.retainSlices + k_);
    }
}

const SliceMeasurements &
WindowedInference::slice(std::size_t t) const
{
    bp_assert(t >= nextStart_ && t < numSlices_,
              "slice " << t << " outside live window buffer");
    return slots_[t % k_];
}

std::size_t
WindowedInference::push(const SliceMeasurements &slice)
{
    bp_assert(!finished_, "push after finish()");
    bp_assert(slice.size() == events_.size(),
              "slice carries " << slice.size() << " samples for "
                               << events_.size() << " events");
    // The slot's previous slice lies before nextStart_: no window
    // reads it again.
    slots_[numSlices_ % k_] = slice;
    ++numSlices_;
    for (auto &row : series_)
        row.emplace_back();

    std::size_t ran = 0;
    while (numSlices_ - nextStart_ >= k_) {
        runWindow(k_);
        ++ran;
    }
    return ran;
}

std::size_t
WindowedInference::finish()
{
    bp_assert(!finished_, "finish() called twice");
    finished_ = true;
    std::size_t ran = 0;
    // The batch loop runs windows at every stride start until one
    // covers the tail; replay the truncated ones it would still run.
    while (numSlices_ > 0 && coveredEnd_ < numSlices_) {
        runWindow(std::min(k_, numSlices_ - nextStart_));
        ++ran;
    }
    // The keep horizon only ever advances, so trimming to its final
    // value leaves the rows a trim after every window would have.
    if (config_.retainSlices > 0)
        trimSeries();
    return ran;
}

bool
WindowedInference::latestPosteriors(std::vector<PosteriorPoint> &out) const
{
    if (coveredEnd_ <= seriesBase_)
        return false;
    out.resize(events_.size());
    const std::size_t t = coveredEnd_ - 1 - seriesBase_;
    for (std::size_t i = 0; i < events_.size(); ++i)
        out[i] = series_[i][t];
    return true;
}

void
WindowedInference::runWindow(std::size_t w_len)
{
    const auto t_start = std::chrono::steady_clock::now();
    const std::size_t w0 = nextStart_;
    bp_assert(w_len > 0 && w0 + w_len <= numSlices_,
              "window [" << w0 << ", " << w0 + w_len << ") not buffered");

    // Level hints: the measured magnitude of each event inside this
    // window (falling back to the carried estimate).
    if (levels_.capacity() < events_.size())
        ++stagingGrows_;
    levels_.resize(events_.size());
    std::vector<double> &levels = levels_;
    for (std::size_t i = 0; i < events_.size(); ++i) {
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t s = 0; s < w_len; ++s) {
            const auto &sample = slice(w0 + s)[i];
            if (sample.observed) {
                sum += sample.scaled();
                ++n;
            }
        }
        if (n > 0) {
            levels[i] = sum / static_cast<double>(n);
        } else if (!carry_.empty()) {
            levels[i] = carry_[i].mean;
        } else {
            levels[i] = uarch_.event(events_[i]).typicalPerSlice;
        }
    }

    // Normalizer: the fixed instruction counter's measured values,
    // which anchor the ratio walk.
    std::vector<double> &normalizer = normalizer_;
    normalizer.clear();
    const sim::EventId inst_id = uarch_.idForRole(sim::Role::Instructions);
    for (std::size_t i = 0; i < events_.size(); ++i) {
        if (events_[i] != inst_id)
            continue;
        if (normalizer.capacity() < w_len)
            ++stagingGrows_;
        normalizer.resize(w_len);
        bool ok = true;
        for (std::size_t s = 0; s < w_len; ++s) {
            const auto &sample = slice(w0 + s)[i];
            if (!sample.observed || sample.scaled() <= 0.0) {
                ok = false;
                break;
            }
            normalizer[s] = sample.scaled();
        }
        if (!ok)
            normalizer.clear();
        break;
    }

    // Rebuild the persistent model in place (all buffers recycled);
    // only the first window constructs it.
    const std::vector<double> *norm =
        normalizer.empty() ? nullptr : &normalizer;
    if (!model_)
        model_.emplace(uarch_, events_, w_len, config_.model, &levels,
                       norm);
    else
        model_->rebuild(w_len, &levels, norm);
    WindowModel &model = *model_;
    model.addCarryPriors(carry_);

    // Measurement factors for every observed (event, slice).
    for (std::size_t i = 0; i < events_.size(); ++i) {
        for (std::size_t s = 0; s < w_len; ++s) {
            const auto &sample = slice(w0 + s)[i];
            if (!sample.observed)
                continue;
            const bool full_duty = sample.timeRunning >= 0.999;
            if (full_duty) {
                // A full-duty counter's raw count *is* the slice
                // total: window-to-window spread reflects genuine
                // intra-slice variation, not measurement noise, so
                // only read noise enters the scale.
                MeasurementModel m;
                m.loc = sample.scaled();
                m.scale = std::max(ModelConfig::measurementExtraRel *
                                       std::abs(m.loc),
                                   1e-9);
                m.nu = 30.0;
                model.addMeasurement(events_[i], s, m);
            } else {
                // Multiplexed counters get multiplicative-noise
                // floors (relative to both their reading and the
                // event's level).
                const double floor =
                    ModelConfig::measurementFloorRel * levels[i];
                model.addMeasurement(
                    events_[i], s,
                    fitMeasurement(sample, ModelConfig::measurementMuxRel,
                                   floor));
            }
        }
    }

    const std::size_t ws_allocs_before = epWorkspace_.totalAllocations();
    ep_.run(model.graph(), epWorkspace_, epResult_);
    const EpResult &ep_result = epResult_;
    ++windowsRun_;
    epSweepsTotal_ += ep_result.sweeps;
    epMomentEvaluations_ += ep_result.momentEvaluations;
    epRank1Updates_ += ep_result.rank1Updates;
    epFullSolves_ += ep_result.fullSolves;
    epBlockFlushes_ += ep_result.blockFlushes;
    epSkippedUpdates_ += ep_result.skippedUpdates;

    // Record every covered slice; later (more contextual) windows
    // overwrite all but their warm-up prefix.
    for (std::size_t i = 0; i < events_.size(); ++i) {
        for (std::size_t s = 0; s < w_len; ++s) {
            const graph::VarId v = model.var(events_[i], s);
            series_[i][w0 + s - seriesBase_] = {ep_result.mean[v],
                                                ep_result.stddev[v]};
        }
    }
    coveredEnd_ = w0 + w_len;

    // Carry the posterior of the slice preceding the next window's
    // start.
    const std::size_t carry_slice = std::min(stride_, w_len) - 1;
    carry_.clear();
    carry_.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const graph::VarId v = model.var(events_[i], carry_slice);
        const auto &def = uarch_.event(events_[i]);
        const double walk_sd =
            ModelConfig::temporalSigmaRel *
            std::max(levels[i], 0.05 * def.typicalPerSlice);
        const double sd =
            std::sqrt(InferenceConfig::carryVarInflation *
                      (ep_result.stddev[v] * ep_result.stddev[v] +
                       walk_sd * walk_sd));
        carry_.push_back({events_[i], ep_result.mean[v], sd});
    }

    nextStart_ = w0 + stride_;
    // Amortized trim: one memmove per ~retainSlices slices.
    if (config_.retainSlices > 0 &&
        series_.front().size() >= 2 * config_.retainSlices)
        trimSeries();

    const auto t_end = std::chrono::steady_clock::now();
    const double window_seconds =
        std::chrono::duration<double>(t_end - t_start).count();
    inferSeconds_ += window_seconds;
    windows_.push_back(
        {.ordinal = windowsRun_,
         .lastSlice = w0 + w_len - 1,
         .slices = w_len,
         .numVariables = model.graph().numVariables(),
         .numSites =
             model.graph().factorsOfKind(graph::FactorKind::StudentT).size(),
         .sweeps = ep_result.sweeps,
         .hostSeconds = window_seconds,
         .epStartNanos = spanNanos(t_start),
         .epEndNanos = spanNanos(t_end)});

    if (telemetry::enabled()) {
        auto &registry = telemetry::MetricsRegistry::global();
        static telemetry::Counter &ep_windows =
            registry.counter("ep.windows");
        static telemetry::Counter &ep_unconverged =
            registry.counter("ep.unconverged_windows");
        static telemetry::Counter &ep_sweeps =
            registry.counter("ep.sweeps");
        static telemetry::Counter &ep_workspace_allocs =
            registry.counter("ep.workspace_allocations");
        static telemetry::Histogram &ep_window_ns =
            registry.histogram("ep.window_ns");
        ep_windows.add();
        if (!ep_result.converged)
            ep_unconverged.add();
        ep_sweeps.add(ep_result.sweeps);
        ep_workspace_allocs.add(epWorkspace_.totalAllocations() -
                                ws_allocs_before);
        ep_window_ns.record(
            static_cast<std::uint64_t>(window_seconds * 1e9));
    }
}

void
WindowedInference::trimSeries()
{
    if (coveredEnd_ <= config_.retainSlices)
        return;
    const std::size_t keep_from =
        std::min(nextStart_, coveredEnd_ - config_.retainSlices);
    if (keep_from <= seriesBase_)
        return;
    const std::size_t drop = keep_from - seriesBase_;
    for (auto &row : series_)
        row.erase(row.begin(), row.begin() + drop);
    seriesBase_ = keep_from;
}

void
WindowedInference::takeWindows(std::vector<WindowRecord> &out)
{
    out.clear();
    out.swap(windows_);
}

InferenceResult
WindowedInference::takeResult()
{
    bp_assert(finished_, "takeResult() requires finish()");
    InferenceResult result;
    result.events = events_;
    result.series = std::move(series_);
    result.firstSlice = seriesBase_;
    result.windowsRun = windowsRun_;
    result.epSweepsTotal = epSweepsTotal_;
    result.epMomentEvaluations = epMomentEvaluations_;
    result.epRank1Updates = epRank1Updates_;
    result.epFullSolves = epFullSolves_;
    result.epBlockFlushes = epBlockFlushes_;
    result.epSkippedUpdates = epSkippedUpdates_;
    result.wallSeconds = inferSeconds_;
    result.epWorkspaceAllocations = epWorkspace_.totalAllocations();
    result.modelAllocations = modelAllocations();
    // The engine is spent: reset the stream cursors so stray reads
    // fail fast instead of indexing the moved-out series.
    series_.assign(events_.size(), {});
    numSlices_ = nextStart_ = coveredEnd_ = seriesBase_ = 0;
    return result;
}

InferenceEngine::InferenceEngine(const sim::MicroarchDescriptor &uarch,
                                 InferenceConfig config)
    : uarch_(uarch), config_(config)
{
}

InferenceResult
InferenceEngine::infer(const sim::PerfResult &measurements) const
{
    const auto t_start = std::chrono::steady_clock::now();

    const std::vector<sim::EventId> &events = measurements.monitored;
    bp_assert(!events.empty(), "nothing to infer");
    const std::size_t num_slices = measurements.traces.front().slices.size();

    WindowedInference streaming(uarch_, events, config_,
                                measurements.schedule.size());
    SliceMeasurements slice(events.size());
    for (std::size_t t = 0; t < num_slices; ++t) {
        for (std::size_t i = 0; i < events.size(); ++i)
            slice[i] = measurements.traces[i].slices[t];
        streaming.push(slice);
    }
    streaming.finish();

    InferenceResult result = streaming.takeResult();
    const auto t_end = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<double>(t_end - t_start).count();
    return result;
}

} // namespace core
} // namespace bperf

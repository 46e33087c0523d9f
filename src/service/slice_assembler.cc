#include "service/slice_assembler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace bperf {
namespace service {

namespace {

telemetry::Counter &
slicesAssembledCounter()
{
    static telemetry::Counter &c =
        telemetry::MetricsRegistry::global().counter("slices.assembled");
    return c;
}

telemetry::Counter &
recordsRejectedCounter()
{
    static telemetry::Counter &c =
        telemetry::MetricsRegistry::global().counter("records.rejected");
    return c;
}

/** A PMI read is a 64-bit counter delta: 2^64 bounds every value. */
constexpr double kMaxRecordValue = 0x1p64;

/**
 * The record contract: a value in [0, 2^64] and finite time fields
 * with 0 <= timeRunning <= timeEnabled.  A record that breaks it
 * would reach the window model as a NaN, infinite, negative or
 * overflowing count.  (The range test on the value also rejects NaN
 * and infinities.)
 */
bool
wellFormed(const sim::PerfRecord &rec)
{
    return rec.value >= 0.0 && rec.value <= kMaxRecordValue &&
           std::isfinite(rec.timeEnabled) &&
           std::isfinite(rec.timeRunning) && rec.timeRunning >= 0.0 &&
           rec.timeRunning <= rec.timeEnabled;
}

} // namespace

SliceAssembler::SliceAssembler(std::vector<sim::EventId> events,
                               bool align_to_first_record)
    : events_(std::move(events)), current_(events_.size()),
      alignToFirstRecord_(align_to_first_record)
{
    bp_assert(!events_.empty(), "assembler needs a monitored event set");
    sim::EventId max_id = 0;
    for (sim::EventId e : events_)
        max_id = std::max(max_id, e);
    eventIndex_.assign(static_cast<std::size_t>(max_id) + 1, SIZE_MAX);
    for (std::size_t i = 0; i < events_.size(); ++i)
        eventIndex_[events_[i]] = i;
}

void
SliceAssembler::finalizeCurrent(std::vector<core::SliceMeasurements> &out)
{
    for (auto &sample : current_) {
        // The Student-t fit needs at least two window reads.  A
        // producer that sends one aggregate record per slice still
        // defines the same full-slice estimate; split it into two
        // identical half-windows (the fit's scale floors dominate a
        // zero sample variance anyway).
        if (sample.observed && sample.windows.size() == 1) {
            const double half = sample.windows.front() / 2.0;
            sample.windows = {half, half};
        }
    }
    out.push_back(std::move(current_));
    current_.assign(events_.size(), sim::SliceSample{});
    open_ = false;
    ++frontSlice_;
    slicesAssembledCounter().add();
}

std::size_t
SliceAssembler::feed(const sim::PerfRecord &rec,
                     std::vector<core::SliceMeasurements> &out)
{
    const std::size_t idx =
        rec.event < eventIndex_.size() ? eventIndex_[rec.event] : SIZE_MAX;
    if (idx == SIZE_MAX || !wellFormed(rec) || rec.slice < frontSlice_ ||
        (open_ && rec.slice < curSlice_)) {
        ++rejected_;
        recordsRejectedCounter().add();
        return 0;
    }

    if (!started_) {
        started_ = true;
        if (alignToFirstRecord_) {
            // The stream begins where the producer does: no
            // retroactive gap slices before the attach point.
            origin_ = rec.slice;
            frontSlice_ = rec.slice;
        }
    }

    const std::size_t before = out.size();
    if (open_ && rec.slice > curSlice_)
        finalizeCurrent(out);
    if (!open_) {
        // Slices skipped entirely (no record ever arrives for them)
        // are emitted as fully-unobserved rows the moment a later
        // record proves them over, keeping the slice index a
        // wall-clock time base.
        while (frontSlice_ < rec.slice) {
            out.emplace_back(events_.size());
            ++frontSlice_;
        }
        curSlice_ = rec.slice;
        open_ = true;
    }

    sim::SliceSample &sample = current_[idx];
    sample.observed = true;
    sample.rawCount += rec.value;
    sample.timeEnabled = rec.timeEnabled;
    sample.timeRunning = rec.timeRunning;
    sample.windows.push_back(rec.value);
    ++accepted_;
    return out.size() - before;
}

std::size_t
SliceAssembler::flush(std::vector<core::SliceMeasurements> &out)
{
    if (!open_)
        return 0;
    const std::size_t before = out.size();
    finalizeCurrent(out);
    return out.size() - before;
}

} // namespace service
} // namespace bperf

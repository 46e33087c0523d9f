/**
 * @file
 * Reassembly of a per-session PerfRecord stream into time slices.
 *
 * The ingestion path delivers one PerfRecord per PMI window read, in
 * nondecreasing slice order (the order the kernel writes them into
 * the mmap ring).  The assembler groups records of the same slice
 * back into SliceSamples — windows, raw count, duty cycle — and
 * finalizes a slice as soon as a record for a later slice arrives, so
 * downstream windowed inference can run without waiting for the
 * stream to end.
 */

#ifndef BPERF_SERVICE_SLICE_ASSEMBLER_H
#define BPERF_SERVICE_SLICE_ASSEMBLER_H

#include <cstdint>
#include <vector>

#include "core/inference.h"
#include "sim/microarch.h"
#include "sim/ring_buffer.h"

namespace bperf {
namespace service {

/**
 * Streams PerfRecords into per-slice measurement rows aligned with a
 * fixed monitored-event list.  Not thread-safe; owned by whichever
 * worker currently drains the session.
 */
class SliceAssembler
{
  public:
    /**
     * @param align_to_first_record  When set, the assembly front is
     *        pinned to the first accepted record's slice instead of
     *        slice 0: a consumer attached mid-stream starts at its
     *        attach time rather than manufacturing every earlier
     *        slice as an unobserved gap (and flooding downstream
     *        windowed inference with retroactive windows).  Gaps
     *        after the first record are still emitted.
     */
    explicit SliceAssembler(std::vector<sim::EventId> events,
                            bool align_to_first_record = false);

    /**
     * Consume one record.  Any slices that became complete (every
     * slice older than the record's) are appended to `out`.  Slices
     * with no records at all are emitted as fully unobserved rows, so
     * the slice index stays a wall-clock time base.  Returns the
     * number of slices appended.
     *
     * Records for unknown events, for slices older than the current
     * assembly front, or that break the record contract (a value
     * that is NaN, negative or above 2^64, the bound of a 64-bit
     * counter read; non-finite time fields; a negative timeRunning or
     * one above timeEnabled) are counted as rejected and dropped
     * before they touch any assembly state.
     */
    std::size_t feed(const sim::PerfRecord &rec,
                     std::vector<core::SliceMeasurements> &out);

    /** Finalize the slice under assembly, if any. */
    std::size_t flush(std::vector<core::SliceMeasurements> &out);

    const std::vector<sim::EventId> &events() const { return events_; }

    /** Next slice index the assembler would emit. */
    std::uint32_t frontSlice() const { return frontSlice_; }

    /**
     * Absolute slice the stream starts at: the first accepted
     * record's slice under align_to_first_record, otherwise 0.  This
     * is the offset between downstream stream-local slice indices and
     * the producer's absolute slice clock.
     */
    std::uint32_t originSlice() const { return origin_; }

    std::uint64_t recordsAccepted() const { return accepted_; }
    std::uint64_t recordsRejected() const { return rejected_; }

  private:
    void finalizeCurrent(std::vector<core::SliceMeasurements> &out);

    std::vector<sim::EventId> events_;
    /** eventIndex_[id] is the row of event id, SIZE_MAX if absent. */
    std::vector<std::size_t> eventIndex_;

    core::SliceMeasurements current_;
    bool open_ = false;          // current_ holds records
    bool alignToFirstRecord_ = false;
    bool started_ = false;       // a record has been accepted
    std::uint32_t curSlice_ = 0; // slice under assembly (when open_)
    std::uint32_t frontSlice_ = 0;
    std::uint32_t origin_ = 0;

    std::uint64_t accepted_ = 0;
    std::uint64_t rejected_ = 0;
};

} // namespace service
} // namespace bperf

#endif // BPERF_SERVICE_SLICE_ASSEMBLER_H

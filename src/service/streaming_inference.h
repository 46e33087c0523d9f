/**
 * @file
 * Record-driven streaming BayesPerf inference.
 *
 * Couples a SliceAssembler to the core windowed-EP engine: PerfRecords
 * go in (one per PMI window read, in slice order), posterior time
 * series come out incrementally, with the trailing posterior of each
 * window carried forward as the next window's prior.  This is the
 * inference unit the monitoring service runs per session; it processes
 * a live stream with O(window) measurement memory instead of requiring
 * the whole trace like the batch InferenceEngine.
 */

#ifndef BPERF_SERVICE_STREAMING_INFERENCE_H
#define BPERF_SERVICE_STREAMING_INFERENCE_H

#include <vector>

#include "core/inference.h"
#include "service/slice_assembler.h"
#include "sim/microarch.h"
#include "sim/ring_buffer.h"

namespace bperf {
namespace service {

/** Configuration of one session's streaming inference. */
struct StreamingConfig
{
    core::InferenceConfig inference;

    /**
     * Multiplexing-schedule period of the producer, used to adapt the
     * window size when inference.windowSlices is 0 (see
     * InferenceConfig::windowSlices).
     */
    std::size_t schedulePeriod = 0;
};

/**
 * Streaming windowed inference over a PerfRecord stream.
 *
 * The stream starts at the first record's slice, not at slice 0 (the
 * assembler is built with align_to_first_record): a session opened
 * mid-run begins at its attach time, with no retroactive unobserved
 * slices, and originSlice() maps engine slices back to the
 * producer's absolute slice clock.
 *
 * Not thread-safe: the service hands each instance to at most one
 * worker at a time.
 */
class StreamingInference
{
  public:
    StreamingInference(const sim::MicroarchDescriptor &uarch,
                       std::vector<sim::EventId> events,
                       StreamingConfig config = {});

    /**
     * Consume one record; runs EP eagerly whenever a window of slices
     * completes.  Returns the number of windows run.
     */
    std::size_t consume(const sim::PerfRecord &rec);

    /**
     * Flush the slice under assembly and drain the tail windows.
     * Call once, when the session closes.  Returns windows run.
     */
    std::size_t finish();

    const std::vector<sim::EventId> &events() const
    {
        return engine_.events();
    }

    /** Slice-level streaming engine (posterior series, counters). */
    const core::WindowedInference &engine() const { return engine_; }

    /** Records of the windows run since the last call (see
     * WindowedInference::takeWindows). */
    void takeWindows(std::vector<core::WindowRecord> &out)
    {
        engine_.takeWindows(out);
    }

    /** Producer slice of engine slice 0: the first accepted
     * record's slice. */
    std::size_t originSlice() const { return assembler_.originSlice(); }

    /** When the last consume()d record had been fed to the slice
     * assembler (telemetry::nowNanos() base; 0 with telemetry off):
     * the assemble stamp of the windows that record completed. */
    std::uint64_t assembledNanos() const { return assembledNanos_; }

    std::uint64_t recordsRejected() const
    {
        return assembler_.recordsRejected();
    }

    /** Assemble the session's full posterior result (destructive). */
    core::InferenceResult takeResult() { return engine_.takeResult(); }

  private:
    SliceAssembler assembler_;
    core::WindowedInference engine_;
    std::vector<core::SliceMeasurements> ready_;
    std::uint64_t assembledNanos_ = 0;
};

} // namespace service
} // namespace bperf

#endif // BPERF_SERVICE_STREAMING_INFERENCE_H

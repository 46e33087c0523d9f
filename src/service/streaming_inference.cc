#include "service/streaming_inference.h"

#include "telemetry/telemetry.h"

namespace bperf {
namespace service {

StreamingInference::StreamingInference(const sim::MicroarchDescriptor &uarch,
                                       std::vector<sim::EventId> events,
                                       StreamingConfig config)
    : assembler_(events, /*align_to_first_record=*/true),
      engine_(uarch, std::move(events), config.inference,
              config.schedulePeriod)
{
}

std::size_t
StreamingInference::consume(const sim::PerfRecord &rec)
{
    ready_.clear();
    assembler_.feed(rec, ready_);
    assembledNanos_ = telemetry::enabled() ? telemetry::nowNanos() : 0;
    std::size_t windows = 0;
    for (const auto &slice : ready_)
        windows += engine_.push(slice);
    return windows;
}

std::size_t
StreamingInference::finish()
{
    ready_.clear();
    assembler_.flush(ready_);
    std::size_t windows = 0;
    for (const auto &slice : ready_)
        windows += engine_.push(slice);
    windows += engine_.finish();
    return windows;
}

} // namespace service
} // namespace bperf

#include "core/backend.h"

#include "telemetry/telemetry.h"

namespace bperf {
namespace core {

WindowExecution
HostBackend::execute(const WindowJob &job)
{
    WindowExecution exec;
    exec.engineId = 0;
    exec.endSlice = job.endSlice;
    exec.queueWaitSeconds = 0.0;
    exec.serviceSeconds = job.hostSeconds;
    exec.transferSeconds = 0.0;
    exec.modeledSeconds = job.hostSeconds;

    static telemetry::Counter &windows =
        telemetry::MetricsRegistry::global().counter("backend.host.windows");
    static telemetry::Histogram &service_ns =
        telemetry::MetricsRegistry::global().histogram(
            "backend.host.service_ns");
    windows.add();
    service_ns.record(
        static_cast<std::uint64_t>(exec.serviceSeconds * 1e9));
    return exec;
}

} // namespace core
} // namespace bperf

#include "core/backend.h"

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
    return exec;
}

} // namespace core
} // namespace bperf

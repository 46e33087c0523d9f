#include "accel/accelerator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace bperf {
namespace accel {

Accelerator::Accelerator(AcceleratorConfig config) : config_(config)
{
    bp_assert(config_.epEngines >= 1, "need at least one EP engine");
    bp_assert(config_.mcmcSamplers >= 1, "need at least one sampler");
    bp_assert(config_.epEngines + config_.mcmcSamplers <=
                  config_.noc.ports,
              "EP engines + samplers exceed NoC ports");
}

AcceleratorTiming
Accelerator::simulate(const InferenceJob &job) const
{
    bp_assert(job.numSites > 0 && job.numSweeps > 0, "empty job");

    ButterflyNoc noc(config_.noc);
    AcceleratorTiming timing;

    // 1. Stream inputs (measurements + current g(theta)) from DRAM.
    //    Inputs are replicated across the four LPDDR4 channels, so
    //    engines read concurrently; the stream cost is paid once.
    const std::uint64_t dram_cycles = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(job.inputBytes) /
                  config_.dramBytesPerCycle));

    // 2. Host transfer of the new samples into accelerator-visible
    //    memory.
    std::uint64_t host_cycles = 0;
    if (config_.hostInterface == HostInterface::Capi) {
        // Snoop invalidations of the ring-buffer lines: overlapped
        // with compute except for the first line.
        host_cycles = config_.capiSnoopCycles;
    } else {
        host_cycles = config_.pcieDoorbellCycles +
                      config_.pcieCyclesPerKiB *
                          std::max<std::uint64_t>(1, job.inputBytes / 1024);
    }
    timing.hostTransferCycles = host_cycles;

    // 3. EP sweeps.  Sites are partitioned across EP engines; each
    //    site update needs a cavity computation on the engine, a NoC
    //    round trip to a sampler, and the sampler run itself.
    //    Samplers are a shared pool: utilization beyond the pool
    //    size serializes.
    const std::size_t sites_per_engine =
        (job.numSites + config_.epEngines - 1) / config_.epEngines;

    // Sampler service time for one site.
    const std::uint64_t sampler_cycles =
        config_.samplerWarmupCycles +
        config_.samplerCyclesPerSample * job.samplesPerSite;

    // NoC round trip (request + response), under moderate load.
    const double noc_util = std::min(
        0.9, static_cast<double>(config_.epEngines) /
                 static_cast<double>(config_.noc.ports));
    const std::uint64_t noc_rt =
        noc.messageLatencyLoaded(0, config_.epEngines, noc_util) * 2;

    // Per-engine serial work for one sweep over its sites.  Sampler
    // runs overlap across an engine's consecutive sites only when
    // the pool has spare capacity.
    const double samplers_per_engine =
        static_cast<double>(config_.mcmcSamplers) /
        static_cast<double>(config_.epEngines);
    const double overlap =
        std::min(1.0, samplers_per_engine); // fraction hidden by pool
    const double site_cycles =
        static_cast<double>(config_.cavityCycles) +
        static_cast<double>(noc_rt) +
        static_cast<double>(sampler_cycles) /
            std::max(overlap, 1e-9) /
            std::max(samplers_per_engine, 1.0);

    const std::uint64_t sweep_cycles =
        static_cast<std::uint64_t>(std::ceil(
            site_cycles * static_cast<double>(sites_per_engine))) +
        config_.controllerSyncCycles;

    timing.totalCycles = host_cycles + dram_cycles +
                         sweep_cycles * job.numSweeps;
    timing.totalSeconds = static_cast<double>(timing.totalCycles) /
                          (config_.clockGhz * 1e9);

    // Utilizations.
    const double sampler_busy =
        static_cast<double>(sampler_cycles) *
        static_cast<double>(job.numSites * job.numSweeps);
    timing.samplerUtilization = std::min(
        1.0, sampler_busy / (static_cast<double>(timing.totalCycles) *
                             static_cast<double>(config_.mcmcSamplers)));
    const double engine_busy =
        static_cast<double>(config_.cavityCycles) *
        static_cast<double>(job.numSites * job.numSweeps);
    timing.epEngineUtilization = std::min(
        1.0, engine_busy / (static_cast<double>(timing.totalCycles) *
                            static_cast<double>(config_.epEngines)));
    timing.nocMessages =
        static_cast<std::uint64_t>(job.numSites * job.numSweeps) * 2;
    return timing;
}

std::uint64_t
Accelerator::pollLatencyHostCycles(double host_clock_ghz,
                                   std::uint64_t native_read_cycles) const
{
    bp_assert(host_clock_ghz > 0.0, "bad host clock");
    // The shim serves posteriors from a host-resident ring buffer:
    // the read path is the native one plus one extra cache-line
    // dereference and a sequence-lock check.
    const std::uint64_t ring_deref_cycles = 46;
    const std::uint64_t seqlock_cycles = 18;
    std::uint64_t extra = ring_deref_cycles + seqlock_cycles;
    if (config_.hostInterface == HostInterface::PcieDma) {
        // x86: the shim must also check the DMA completion flag
        // (paper: 15.8% higher read latency than the CAPI path,
        // dominated by this check amortized over reads).
        extra += 560;
    }
    return native_read_cycles + extra;
}

} // namespace accel
} // namespace bperf

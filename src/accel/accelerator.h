/**
 * @file
 * Timing model of the BayesPerf FPGA accelerator (paper section 5).
 *
 * The accelerator runs Alg. 1 with two levels of parallelism: k EP
 * engines refresh the sites of k time-slice partitions concurrently,
 * and each tilted-moment estimate is delegated to a pool of
 * AcMC2-generated MCMC sampler IPs over a butterfly NoC.  A global
 * controller applies the synchronous g(theta) update between sweeps.
 * The model accounts for sampler pipeline cycles, NoC round trips,
 * DRAM streaming of measurements, controller synchronization, and the
 * host interface (CAPI cache snooping on ppc64 vs driver-initiated
 * PCIe DMA on x86, which costs the extra latency the paper reports).
 */

#ifndef BPERF_ACCEL_ACCELERATOR_H
#define BPERF_ACCEL_ACCELERATOR_H

#include <cstdint>

#include "accel/noc.h"

namespace bperf {
namespace accel {

/** Host-interface flavour. */
enum class HostInterface {
    Capi,    // coherent, snoops ring-buffer cache lines (ppc64)
    PcieDma, // driver-initiated DMA (x86)
};

/** Static accelerator configuration. */
struct AcceleratorConfig
{
    double clockGhz = 0.25; // 250 MHz
    std::size_t epEngines = 4;
    std::size_t mcmcSamplers = 12;
    NocConfig noc;

    /** Sampler pipeline: cycles until the first sample emerges. */
    std::uint64_t samplerWarmupCycles = 24;
    /** Initiation interval: cycles per additional sample. */
    std::uint64_t samplerCyclesPerSample = 1;

    /** EP-engine cycles to form one cavity / apply one site update. */
    std::uint64_t cavityCycles = 40;
    /** Controller cycles for the synchronous global update per sweep. */
    std::uint64_t controllerSyncCycles = 220;

    /** DRAM: bytes per cycle available to stream inputs / g(theta). */
    double dramBytesPerCycle = 32.0;

    /** Host interface parameters. */
    HostInterface hostInterface = HostInterface::Capi;
    /** CAPI snoop: cycles to observe a ring-buffer cache line. */
    std::uint64_t capiSnoopCycles = 80;
    /** PCIe DMA: cycles for the driver-initiated transfer setup. */
    std::uint64_t pcieDoorbellCycles = 600;
    /** PCIe DMA: payload transfer cycles per KiB. */
    std::uint64_t pcieCyclesPerKiB = 34;
};

/** Shape of one inference workload (a window refresh). */
struct InferenceJob
{
    std::size_t numVariables = 0;
    std::size_t numSites = 0;     // Student-t measurement factors
    std::size_t numSweeps = 4;    // EP sweeps until convergence
    std::size_t samplesPerSite = 400;
    std::size_t inputBytes = 4096; // measurements + g(theta) stream
};

/** Result of simulating one job. */
struct AcceleratorTiming
{
    std::uint64_t totalCycles = 0;
    double totalSeconds = 0.0;
    std::uint64_t hostTransferCycles = 0;
    double samplerUtilization = 0.0; // busy fraction of sampler pool
    double epEngineUtilization = 0.0;
    std::uint64_t nocMessages = 0;
};

/**
 * Accelerator timing simulator.
 */
class Accelerator
{
  public:
    explicit Accelerator(AcceleratorConfig config = {});

    const AcceleratorConfig &config() const { return config_; }

    /** Simulate one window refresh end to end. */
    AcceleratorTiming simulate(const InferenceJob &job) const;

    /**
     * Latency (host CPU cycles, at `host_clock_ghz`) for the
     * monitoring application to poll one posterior.  The accelerator
     * pre-computes posteriors into host memory, so a poll is a host
     * ring-buffer read plus a small API shim overhead — the paper's
     * <2% over native reads.
     */
    std::uint64_t pollLatencyHostCycles(double host_clock_ghz,
                                        std::uint64_t native_read_cycles)
        const;

  private:
    AcceleratorConfig config_;
};

} // namespace accel
} // namespace bperf

#endif // BPERF_ACCEL_ACCELERATOR_H

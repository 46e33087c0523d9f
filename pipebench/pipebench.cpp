/**
 * @file
 * The repository benchmark: how fast and how accurately a stream of
 * PMI records becomes a posterior a consumer can read.
 *
 * One generator thread drives the real MonitorService (host backend,
 * in-process snapshot shim, registry telemetry on as shipped) and
 * polls every session's shim slot with a SnapshotReader, exactly as a
 * consumer would.  Three workloads load different layers (see
 * README.md beside this file for why each exists):
 *
 *   hibench_replay  closed loop, 29 HiBench sessions x 29 events: EP
 *   live_tenants    open loop, 16 staggered tenants: queueing + shim
 *   pmi_flood       closed loop, 384 PMI reads per slice: ingest
 *
 * Usage:
 *   pipebench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 reports the end-to-end metrics with no TraceCollector and
 * no bench-side layer timers.  --trace 1 runs an untraced arm, a
 * traced arm (TraceCollector attached, ingest calls timed) and
 * closed-loop capacity arms at N workers and at one, then times layers
 * alone on captured inputs, and reports the per-layer metrics.  Every
 * run checks its outputs; the last stdout line is one JSON object, and
 * the exit code is 1 when a check failed.
 */

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/linux_scaling.h"
#include "bench_util.h"
#include "common/stats.h"
#include "core/bayesperf.h"
#include "core/ep.h"
#include "core/inference.h"
#include "core/measurement.h"
#include "core/model_builder.h"
#include "core/quad_kernel.h"
#include "graph/exact.h"
#include "service/monitor_service.h"
#include "service/record_stream.h"
#include "service/slice_assembler.h"
#include "service/streaming_inference.h"
#include "shim/snapshot_reader.h"
#include "sim/ground_truth.h"
#include "sim/perf_session.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "workloads/hibench.h"

using namespace bperf;

namespace {

using Nanos = std::uint64_t;

Nanos
now()
{
    return telemetry::nowNanos();
}

double
secondsSince(Nanos start)
{
    return static_cast<double>(now() - start) * 1e-9;
}

/** splitmix64: derives independent per-session seeds from --seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
pctOf(const std::vector<double> &xs, double p)
{
    return bench::percentileOrNan(xs, p);
}

double
meanOf(const std::vector<double> &xs)
{
    if (xs.empty())
        return std::nan("");
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ------------------------------------------------------------ options

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

bool
parseOptions(int argc, char **argv, Options &opt)
{
    bool have[4] = {false, false, false, false};
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
            have[0] = true;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            have[1] = end != val.c_str() && *end == '\0';
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            have[2] = end != val.c_str() && *end == '\0' &&
                      opt.seconds > 0.0 && opt.seconds <= 120.0;
        } else if (key == "--trace") {
            opt.trace = val == "1";
            have[3] = val == "0" || val == "1";
        } else {
            return false;
        }
    }
    return argc == 9 && have[0] && have[1] && have[2] && have[3];
}

// ---------------------------------------------------------- workloads

/**
 * Shape of one workload.  Everything seed-independent lives here; the
 * seed only drives input generation (ground truth and PMU noise).
 */
struct WorkloadSpec
{
    std::string name;
    bool openLoop = false;
    /** HiBench profile of each session (one session per entry). */
    std::vector<std::string> profiles;
    /** Requested events; the service adds the fixed counters. */
    std::vector<sim::EventId> events;
    /** Window length k; 0 adapts k to the schedule period (default). */
    std::size_t windowSlices = 0;
    /** PMI reads per observed slice (records per event-slice). */
    std::size_t pmiReads = 4;
    /** Share of a slice a programmable counter counts (the simulated
     * perf session's duty cycle; multiplexing lowers it further). */
    double dutyCycle = sim::PerfSessionConfig{}.dutyCycle;
    /** Slices generated per session; longer runs replay them
     * cyclically with slice indices continuing. */
    std::size_t genSlices = 96;
    /** Open loop: each session's next slice is due once per period. */
    double slicePeriodUs = 0.0;
    /** Compare service posteriors with a single-threaded replay. */
    bool replayCheck = false;
};

const char *const kWorkloadNames[] = {"hibench_replay", "live_tenants",
                                      "pmi_flood"};

/** The tenant shape of examples/perf_daemon: 10 multiplexed roles. */
std::vector<sim::EventId>
daemonRoles(const sim::MicroarchDescriptor &uarch)
{
    std::vector<sim::EventId> out;
    for (sim::Role r :
         {sim::Role::LlcMiss, sim::Role::L2Miss, sim::Role::L1DMiss,
          sim::Role::Loads, sim::Role::Stores, sim::Role::Branches,
          sim::Role::BranchMisses, sim::Role::StallMem,
          sim::Role::StallTotal, sim::Role::DramBytes})
        out.push_back(uarch.idForRole(r));
    return out;
}

std::vector<std::string>
cycledProfiles(std::size_t n)
{
    static const char *kBases[] = {"KMeans", "Sort", "Bayes", "PageRank"};
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(kBases[i % 4]);
    return out;
}

std::optional<WorkloadSpec>
makeSpec(const std::string &name, const sim::MicroarchDescriptor &uarch)
{
    WorkloadSpec spec;
    spec.name = name;
    if (name == "hibench_replay") {
        spec.profiles = wl::hibenchNames();
        spec.events = bench::evaluationEventSet(uarch);
        spec.windowSlices = 0;
        spec.pmiReads = 4;
        spec.genSlices = 192;
        spec.replayCheck = true;
    } else if (name == "live_tenants") {
        spec.openLoop = true;
        spec.profiles = cycledProfiles(16);
        spec.events = daemonRoles(uarch);
        spec.windowSlices = 6;
        spec.pmiReads = 4;
        spec.genSlices = 96;
        spec.slicePeriodUs = 4000.0;
    } else if (name == "pmi_flood") {
        spec.profiles = cycledProfiles(16);
        spec.events = {uarch.idForRole(sim::Role::LlcMiss),
                       uarch.idForRole(sim::Role::DramBytes)};
        spec.windowSlices = 3;
        spec.pmiReads = 384;
        // Two programmable events never multiplex, so they count the
        // whole slice.
        spec.dutyCycle = 1.0;
        spec.genSlices = 32;
        spec.replayCheck = true;
    } else {
        return std::nullopt;
    }
    return spec;
}

// ------------------------------------------------------------- inputs

struct SessionInput
{
    std::string profile;
    sim::TruthTrace truth;
    sim::PerfResult run;
    /** records[s]: the PMI records of generated slice s. */
    std::vector<std::vector<sim::PerfRecord>> records;
    /** Generated slice the session's stream starts at.  Sessions start
     * at evenly spread phases of their traces, so the windows in
     * flight at any moment mix cheap and costly workload phases. */
    std::size_t offset = 0;

    /** Generated slice behind stream slice `slice`. */
    std::size_t generated(std::size_t slice) const
    {
        return (slice + offset) % records.size();
    }
};

struct Inputs
{
    /** Monitored set in service order (fixed counters first). */
    std::vector<sim::EventId> monitored;
    std::size_t schedulePeriod = 0;
    /** Resolved window length and stride of the streaming engine. */
    std::size_t k = 0;
    std::size_t stride = 0;
    std::size_t maxRecordsPerSlice = 0;
    std::vector<SessionInput> sessions;
};

Inputs
generateInputs(const sim::MicroarchDescriptor &uarch,
               const WorkloadSpec &spec, std::uint64_t seed)
{
    Inputs in;
    in.monitored = core::resolveMonitoredSet(uarch, spec.events);
    in.sessions.reserve(spec.profiles.size());
    for (std::size_t i = 0; i < spec.profiles.size(); ++i) {
        sim::PerfSessionConfig perf_cfg;
        perf_cfg.pmiWindowsPerSlice = spec.pmiReads;
        perf_cfg.dutyCycle = spec.dutyCycle;
        perf_cfg.seed = mixSeed(seed, 2 * i + 2);
        // A PMI read covers at least one generator sub-tick of the
        // counted part of the slice, so a slice needs pmiReads / duty
        // sub-ticks; fewer would double-count sub-ticks.
        sim::GeneratorConfig gen_cfg;
        gen_cfg.subticksPerSlice = std::max(
            gen_cfg.subticksPerSlice,
            static_cast<std::size_t>(std::ceil(
                static_cast<double>(spec.pmiReads) / perf_cfg.dutyCycle)));
        const sim::GroundTruthGenerator generator(
            uarch, wl::makeHibench(spec.profiles[i]), gen_cfg);
        sim::PerfSession perf(uarch, perf_cfg);
        SessionInput s{spec.profiles[i],
                       generator.generate(spec.genSlices,
                                          mixSeed(seed, 2 * i + 1)),
                       {},
                       {},
                       i * spec.genSlices / spec.profiles.size()};
        s.run = perf.runRoundRobin(s.truth, in.monitored);
        for (std::size_t t = 0; t < spec.genSlices; ++t) {
            s.records.push_back(service::sliceRecords(s.run, t));
            in.maxRecordsPerSlice =
                std::max(in.maxRecordsPerSlice, s.records.back().size());
        }
        in.schedulePeriod = s.run.schedule.size();
        in.sessions.push_back(std::move(s));
    }
    in.k = spec.windowSlices != 0
               ? spec.windowSlices
               : std::clamp<std::size_t>(in.schedulePeriod, 3, 8);
    in.stride = std::max<std::size_t>(1, in.k / 2);
    return in;
}

/** Records of absolute slice `slice` (generated slices replay
 * cyclically; the slice index keeps counting). */
void
fillSlice(const SessionInput &s, std::size_t slice,
          std::vector<sim::PerfRecord> &out)
{
    const auto &src = s.records[s.generated(slice)];
    out.assign(src.begin(), src.end());
    for (auto &rec : out)
        rec.slice = static_cast<std::uint32_t>(slice);
}

/** Slices covered by a posterior once `sent` slices have arrived: the
 * assembler finalizes a slice when the next one starts, and windows
 * of k slices start every `stride` slices. */
std::size_t
expectedCoverage(std::size_t sent, std::size_t k, std::size_t stride)
{
    if (sent < k + 1)
        return 0;
    const std::size_t finalized = sent - 1;
    return (finalized - k) / stride * stride + k;
}

// ----------------------------------------------------------- one arm

/** One window update as the subscriber received it. */
struct SubRecord
{
    std::uint64_t windowIndex = 0;
    std::size_t endSlice = 0;
    core::WindowSpan span;
    std::vector<core::PosteriorPoint> posterior;
};

/** A window the consumer saw for the first time in the shim. */
struct Observation
{
    std::uint64_t windowIndex = 0;
    std::size_t endSlice = 0;
    Nanos seen = 0;
    Nanos publish = 0;
    std::vector<shim::SnapshotCounter> counters;
};

struct Tenant
{
    service::SessionId id = 0;
    std::optional<service::SubscriptionId> sub;
    std::size_t sent = 0;
    std::size_t covered = 0;
    std::int64_t lastWindow = -1;
    /** Per sent slice: when it was due. */
    std::vector<Nanos> due;
    std::vector<Observation> seen;
    std::size_t sentAtStart = 0;
    std::size_t sentAtEnd = 0;
};

/** Exact-nanosecond histogram of consumer shim reads. */
struct ReadHistogram
{
    static constexpr std::size_t kCap = 1 << 17;
    std::vector<std::uint64_t> counts = std::vector<std::uint64_t>(kCap + 1);
    std::uint64_t total = 0;

    void add(Nanos ns)
    {
        ++counts[std::min<Nanos>(ns, kCap)];
        ++total;
    }
    double percentile(double p) const
    {
        if (total == 0)
            return std::nan("");
        const auto rank = static_cast<std::uint64_t>(
            std::ceil(p / 100.0 * static_cast<double>(total)));
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            cum += counts[i];
            if (cum >= std::max<std::uint64_t>(rank, 1))
                return static_cast<double>(i);
        }
        return static_cast<double>(kCap);
    }
};

/** Registry histograms the traced run reads, by delta over the arm. */
const char *const kRegistryHistograms[] = {
    "worker.dispatch_wait_ns", "subscription.delivery_lag_ns",
    "shim.publish_ns", "publish.fanout_ns"};

using RegistryView = std::map<std::string, telemetry::Histogram::Snapshot>;

RegistryView
scrapeHistograms()
{
    RegistryView out;
    for (const char *name : kRegistryHistograms)
        out[name] =
            telemetry::MetricsRegistry::global().histogramSnapshot(name);
    return out;
}

telemetry::Histogram::Snapshot
histogramDelta(const telemetry::Histogram::Snapshot &after,
               const telemetry::Histogram::Snapshot &before)
{
    telemetry::Histogram::Snapshot d = after;
    d.count = after.count - before.count;
    for (std::size_t b = 0; b < d.buckets.size(); ++b)
        d.buckets[b] = after.buckets[b] - before.buckets[b];
    return d;
}

/**
 * Seqlock retry budget of the consumer's reads.  The reader calls a
 * writer dead once one odd sequence value holds for half the budget.
 * At the default 64 spins that is well under a microsecond, less than
 * one 32-event publish, so a live writer mid-publish (or preempted
 * for a moment) reads as WriterDead.  2^22 spins are milliseconds:
 * a WriterDead verdict then means a writer really stalled.
 */
constexpr std::size_t kReadRetries = std::size_t{1} << 22;

/** Closed-loop generator's pause when no window came back. */
constexpr std::chrono::microseconds kIdleNap{20};

struct ArmConfig
{
    std::size_t workers = 1;
    /** Attach a TraceCollector and time ingest calls (traced arm). */
    bool traced = false;
    /** Run the closed loop even on an open-loop workload (capacity
     * arms of the traced run). */
    bool closedLoop = false;
};

/** Cumulative (steal, total) CPU ticks of the machine (/proc/stat):
 * time the hypervisor took from this VM explains noisy runs. */
std::pair<double, double>
cpuStealTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double field = 0.0, total = 0.0, steal = 0.0;
    stat >> cpu;
    for (int i = 0; i < 8 && stat >> field; ++i) {
        total += field;
        if (i == 7)
            steal = field;
    }
    return {steal, total};
}

/** Everything one arm measured, plus what its checks found. */
struct ArmResult
{
    double timedSeconds = 0.0;
    /** Share of the machine's CPU time stolen while timed (%). */
    double stealPct = 0.0;
    /** 90th percentile of intervalRate. */
    double slicesPerSec = 0.0;
    /** Due -> first shim poll seeing the window, per window (us). */
    std::vector<double> latencyUs;
    /** Due time of each latencyUs sample. */
    std::vector<Nanos> latencyDue;
    /** Slices/s in each ~1 s interval of the timed phase. */
    std::vector<double> intervalRate;
    std::size_t windowsDue = 0;
    std::size_t windowsLate = 0;
    double lateLimitUs = 0.0;
    std::vector<double> lagUs;
    ReadHistogram reads;
    std::uint64_t readsNotOk = 0;
    std::uint64_t readsCorruptOrDead = 0;
    /** Per observed window of the timed phase, span phases (us). */
    std::vector<double> ringWaitUs, assembleUs, epUs, publishUs,
        visibleUs;
    /** Over every window a subscriber received (us). */
    std::vector<double> windowUs, windowPublishUs;
    double ingestNs = 0.0;
    std::uint64_t ingestRecords = 0;
    std::uint64_t recordsOffered = 0;
    std::vector<double> openUs;
    service::ServiceStats stats;
    std::uint64_t subPublished = 0, subDelivered = 0, subDropped = 0;
    std::map<std::string, telemetry::Histogram::Snapshot> registry;
    std::uint64_t workspaceGrowths = 0;
    std::vector<service::SessionReport> reports;
    std::vector<std::size_t> sent;
    std::vector<std::string> failures;
};

/**
 * One service lifetime: open, warm up, measure, drain, close.  The
 * generator and the consumer polls run on the calling thread.
 */
class ArmRun
{
  public:
    ArmRun(const sim::MicroarchDescriptor &uarch, const WorkloadSpec &spec,
           const Inputs &in, ArmConfig config)
        : uarch_(uarch), spec_(spec), in_(in), config_(config),
          subs_(in.sessions.size()), tenants_(in.sessions.size())
    {
    }

    // Subscription callbacks hold `this`.
    ArmRun(const ArmRun &) = delete;
    ArmRun &operator=(const ArmRun &) = delete;

    /** Build the service and open + subscribe every session. */
    void start()
    {
        service::MonitorServiceConfig cfg;
        cfg.numWorkers = config_.workers;
        cfg.sessionDefaults.streaming.inference.windowSlices =
            spec_.windowSlices;
        cfg.sessionDefaults.streaming.schedulePeriod = in_.schedulePeriod;
        cfg.snapshot.enabled = true;
        cfg.snapshot.slots = 64;
        cfg.snapshot.maxEvents = 32;
        if (config_.traced)
            cfg.trace = &trace_;
        daemon_ = std::make_unique<service::MonitorService>(uarch_, cfg);
        reader_.emplace(*daemon_->snapshotRegion());
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
            const Nanos t0 = now();
            const service::OpenResult opened = daemon_->open(
                in_.sessions[i].profile + "-" + std::to_string(i),
                spec_.events);
            result_.openUs.push_back(secondsSince(t0) * 1e6);
            if (!opened.admitted()) {
                fail("open refused for session " + std::to_string(i));
                continue;
            }
            tenants_[i].id = *opened.id;
            tenants_[i].sub = daemon_->subscribe(
                *opened.id, [this, i](const service::WindowUpdate &u) {
                    subs_[i].push_back(
                        {u.windowIndex, u.endSlice, u.execution.span,
                         u.posterior});
                });
        }
    }

    /** Send k+1 slices to every session and wait until each one's
     * first window is readable in the shim. */
    void warmUp()
    {
        // One slice per session per round; the service drains before
        // a round could overflow a session ring.  Open-loop tenants
        // also get (i mod stride) extra slices: their window
        // boundaries then fall in different slice periods, as
        // independent tenants' would, instead of all at once.
        const std::size_t rounds =
            in_.k + 1 + (openLoop() ? in_.stride - 1 : 0);
        const std::size_t rounds_per_drain = std::max<std::size_t>(
            1, service::SessionConfig{}.queueCapacity /
                   std::max<std::size_t>(1, in_.maxRecordsPerSlice));
        for (std::size_t r = 0; r < rounds; ++r) {
            for (std::size_t i = 0; i < tenants_.size(); ++i)
                if (r < in_.k + 1 + (openLoop() ? i % in_.stride : 0))
                    send(i, now());
            if ((r + 1) % rounds_per_drain == 0)
                daemon_->quiesce();
        }
        const Nanos give_up = now() + 30'000'000'000ull;
        for (bool all = false; !all && now() < give_up;) {
            all = true;
            for (std::size_t i = 0; i < tenants_.size(); ++i) {
                poll(i);
                all = all && tenants_[i].lastWindow >= 0;
            }
        }
        for (const Tenant &t : tenants_)
            if (t.lastWindow < 0)
                fail("warm-up window never became readable");
    }

    /** The timed phase, then a drain until every window whose
     * triggering record was sent has been seen. */
    void measure(double seconds)
    {
        const std::size_t n = tenants_.size();
        wsBefore_ = telemetry::MetricsRegistry::global().counterValue(
            "ep.workspace_allocations");
        registryBefore_ = scrapeHistograms();
        recording_ = true;
        timed_ = true;
        for (Tenant &t : tenants_)
            t.sentAtStart = t.sent;
        const auto steal_before = cpuStealTicks();
        const Nanos t0 = now();
        const Nanos deadline =
            t0 + static_cast<Nanos>(seconds * 1e9);
        // Throughput is taken per ~1 s interval, so a burst of outside
        // load moves a few intervals, not the result.
        const std::size_t intervals =
            std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
        const double interval_ns = static_cast<double>(deadline - t0) /
                                   static_cast<double>(intervals);
        std::size_t boundary = 0;
        std::uint64_t covered_before = coveredTotal_;
        Nanos boundary_seen = t0;
        auto tick = [&](Nanos t) {
            if (boundary >= intervals ||
                static_cast<double>(t - t0) <
                    static_cast<double>(boundary + 1) * interval_ns)
                return;
            result_.intervalRate.push_back(
                static_cast<double>(coveredTotal_ - covered_before) /
                (static_cast<double>(t - boundary_seen) * 1e-9));
            covered_before = coveredTotal_;
            boundary_seen = t;
            ++boundary;
        };
        if (openLoop()) {
            // Session j % n's next slice is due every period / n:
            // sessions are staggered evenly across the slice period.
            const double step_ns = spec_.slicePeriodUs * 1e3 /
                                   static_cast<double>(n);
            std::uint64_t j = 0;
            for (;;) {
                Nanos t = now();
                if (t >= deadline)
                    break;
                for (;;) {
                    const Nanos due =
                        t0 + static_cast<Nanos>(static_cast<double>(j) *
                                                step_ns);
                    if (due > t)
                        break;
                    send(j % n, due);
                    ++j;
                    t = now();
                }
                for (std::size_t i = 0; i < n; ++i)
                    poll(i);
                tick(now());
            }
        } else {
            // Closed loop: a fixed number of windows in flight across
            // all sessions.  A credit feeds the next idle session, in
            // round-robin order, the `stride` slices that complete one
            // more window, and returns once that window is readable in
            // the shim.  Feeding a session again only after every
            // other idle one keeps the producer from re-dirtying a
            // session its worker is still draining.
            std::size_t credits = 2 * config_.workers;
            std::vector<char> busy(n, 0);
            std::size_t cursor = 0;
            for (;;) {
                for (std::size_t i = 0; i < n; ++i) {
                    if (!busy[i])
                        continue;
                    poll(i);
                    const Tenant &t = tenants_[i];
                    if (t.covered >=
                        expectedCoverage(t.sent, in_.k, in_.stride)) {
                        busy[i] = 0;
                        ++credits;
                    }
                }
                // Nothing returned: nap instead of spinning, leaving
                // the core to the workers (a closed-loop client waits).
                if (credits == 0)
                    std::this_thread::sleep_for(kIdleNap);
                for (std::size_t tries = 0; credits > 0 && tries < n;
                     ++tries, cursor = (cursor + 1) % n) {
                    if (busy[cursor])
                        continue;
                    const Nanos due = now();
                    for (std::size_t s = 0; s < in_.stride; ++s)
                        send(cursor, due);
                    busy[cursor] = 1;
                    --credits;
                }
                const Nanos t = now();
                tick(t);
                if (t >= deadline)
                    break;
            }
        }
        const Nanos t_end = now();
        tick(t_end);
        timed_ = false;
        const auto steal_after = cpuStealTicks();
        result_.stealPct =
            100.0 * (steal_after.first - steal_before.first) /
            std::max(1.0, steal_after.second - steal_before.second);
        registryAfter_ = scrapeHistograms();
        result_.workspaceGrowths =
            telemetry::MetricsRegistry::global().counterValue(
                "ep.workspace_allocations") -
            wsBefore_;
        for (Tenant &t : tenants_)
            t.sentAtEnd = t.sent;
        result_.timedSeconds = static_cast<double>(t_end - t0) * 1e-9;
        // 90th percentile: stolen time only ever lowers an interval.
        result_.slicesPerSec = pctOf(result_.intervalRate, 90);

        // Drain: keep polling until every triggered window was seen.
        const Nanos give_up = now() + 20'000'000'000ull;
        for (bool done = false; !done && now() < give_up;) {
            done = true;
            for (std::size_t i = 0; i < n; ++i) {
                poll(i);
                done = done && tenants_[i].covered >=
                                   expectedCoverage(tenants_[i].sent,
                                                    in_.k, in_.stride);
            }
        }
        recording_ = false;
        const double mean_interval_us =
            1e6 * result_.timedSeconds * static_cast<double>(n) /
            std::max(1.0, static_cast<double>(sentInPhase()));
        result_.lateLimitUs =
            openLoop() ? spec_.slicePeriodUs : mean_interval_us;
    }

    /** Quiesce, check, close every session; hand back the results. */
    ArmResult finish()
    {
        daemon_->quiesce();
        daemon_->flushSubscriptions();
        result_.stats = daemon_->stats();
        for (const Tenant &t : tenants_) {
            if (!t.sub)
                continue;
            if (const auto s = daemon_->subscriptionStats(*t.sub)) {
                result_.subPublished += s->published;
                result_.subDelivered += s->delivered;
                result_.subDropped += s->dropped;
            }
        }
        for (const char *name : kRegistryHistograms)
            result_.registry[name] = histogramDelta(
                registryAfter_.at(name), registryBefore_.at(name));
        const auto &totals = result_.stats.totals;
        if (totals.recordsOffered !=
            totals.recordsIngested + totals.recordsDropped)
            fail("recordsOffered != recordsIngested + recordsDropped");
        if (totals.recordsOffered != result_.recordsOffered)
            fail("service counted a different number of offered records");
        if (result_.readsCorruptOrDead != 0)
            fail("Corrupt or WriterDead shim reads");
        checkObservations();
        collectLatencies();
        reader_.reset();
        for (Tenant &t : tenants_) {
            result_.sent.push_back(t.sent);
            auto report = daemon_->close(t.id);
            if (!report) {
                fail("close failed");
                result_.reports.emplace_back();
                continue;
            }
            result_.reports.push_back(std::move(*report));
        }
        daemon_.reset();
        return std::move(result_);
    }

  private:
    bool openLoop() const { return spec_.openLoop && !config_.closedLoop; }

    std::size_t sentInPhase() const
    {
        std::size_t total = 0;
        for (const Tenant &t : tenants_)
            total += t.sentAtEnd - t.sentAtStart;
        return total;
    }

    void fail(const std::string &what)
    {
        if (std::find(result_.failures.begin(), result_.failures.end(),
                      what) == result_.failures.end())
            result_.failures.push_back(what);
    }

    void send(std::size_t i, Nanos due)
    {
        Tenant &t = tenants_[i];
        fillSlice(in_.sessions[i], t.sent, batch_);
        const Nanos t_send = now();
        // Drops are counted by the service's stats.
        daemon_->ingestBatch(t.id, batch_);
        if (config_.traced) {
            result_.ingestNs += static_cast<double>(now() - t_send);
            result_.ingestRecords += batch_.size();
        }
        result_.recordsOffered += batch_.size();
        t.due.push_back(due);
        ++t.sent;
        if (timed_)
            result_.lagUs.push_back(
                static_cast<double>(t_send - std::min(t_send, due)) * 1e-3);
    }

    /** One consumer read of session i's shim slot; returns the time
     * the read completed. */
    Nanos poll(std::size_t i)
    {
        Tenant &t = tenants_[i];
        const Nanos before = now();
        const shim::ReadStatus status =
            reader_->read(t.id, snap_, kReadRetries);
        const Nanos after = now();
        if (timed_) {
            result_.reads.add(after - before);
            if (status != shim::ReadStatus::Ok)
                ++result_.readsNotOk;
        }
        if (status == shim::ReadStatus::Corrupt ||
            status == shim::ReadStatus::WriterDead)
            ++result_.readsCorruptOrDead;
        if (status != shim::ReadStatus::Ok)
            return after;
        for (const auto &c : snap_.counters)
            if (!std::isfinite(c.posterior.mean) ||
                !std::isfinite(c.posterior.stddev))
                fail("non-finite posterior in an accepted shim read");
        const auto index = static_cast<std::int64_t>(snap_.windowIndex);
        if (index == t.lastWindow)
            return after;
        if (index < t.lastWindow)
            fail("shim window index went backwards");
        if (recording_)
            t.seen.push_back({snap_.windowIndex, snap_.endSlice, after,
                              snap_.publishNanos, snap_.counters});
        if (timed_)
            coveredTotal_ += snap_.windowIndex * in_.stride + in_.k -
                             t.covered;
        t.lastWindow = index;
        // Window m covers slices [m * stride, m * stride + k) and is
        // published with endSlice = m * stride + k, the slice of the
        // record that completed it.
        t.covered = snap_.windowIndex * in_.stride + in_.k;
        return after;
    }

    /** Every window the consumer saw must match the subscription
     * update of the same window, bit for bit. */
    void checkObservations()
    {
        const auto &monitored = in_.monitored;
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
            const auto &subs = subs_[i];
            for (const Observation &o : tenants_[i].seen) {
                if (o.windowIndex >= subs.size() ||
                    subs[o.windowIndex].windowIndex != o.windowIndex) {
                    fail("shim window missing from the subscription");
                    continue;
                }
                const SubRecord &u = subs[o.windowIndex];
                if (o.endSlice != u.endSlice ||
                    o.endSlice != o.windowIndex * in_.stride + in_.k ||
                    o.counters.size() != u.posterior.size()) {
                    fail("shim window disagrees with its subscription");
                    continue;
                }
                for (std::size_t e = 0; e < o.counters.size(); ++e) {
                    if (o.counters[e].event != monitored[e] ||
                        !sameBits(o.counters[e].posterior.mean,
                                  u.posterior[e].mean) ||
                        !sameBits(o.counters[e].posterior.stddev,
                                  u.posterior[e].stddev))
                        fail("shim posterior differs from subscription");
                }
            }
        }
    }

    /** Join the consumer's observations with the generator's due
     * times and the windows' span stamps. */
    void collectLatencies()
    {
        auto us = [](Nanos later, Nanos earlier) {
            return later >= earlier
                       ? static_cast<double>(later - earlier) * 1e-3
                       : -static_cast<double>(earlier - later) * 1e-3;
        };
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
            const Tenant &t = tenants_[i];
            for (const SubRecord &u : subs_[i]) {
                const core::WindowSpan &s = u.span;
                if (s.epStartNanos != 0 && s.epEndNanos >= s.epStartNanos) {
                    result_.windowUs.push_back(
                        us(s.epEndNanos, s.epStartNanos));
                    result_.windowPublishUs.push_back(
                        us(s.publishNanos, s.epEndNanos));
                }
            }
            std::size_t next_seen = 0;
            for (std::size_t m = 0;; ++m) {
                const std::size_t trigger = m * in_.stride + in_.k;
                if (trigger >= t.sentAtEnd)
                    break;
                if (trigger < t.sentAtStart)
                    continue;
                ++result_.windowsDue;
                while (next_seen < t.seen.size() &&
                       t.seen[next_seen].windowIndex < m)
                    ++next_seen;
                if (next_seen == t.seen.size() ||
                    t.seen[next_seen].windowIndex != m) {
                    ++result_.windowsLate; // superseded or never seen
                    continue;
                }
                const Observation &o = t.seen[next_seen];
                const double latency = us(o.seen, t.due[trigger]);
                result_.latencyUs.push_back(latency);
                result_.latencyDue.push_back(t.due[trigger]);
                if (latency > result_.lateLimitUs)
                    ++result_.windowsLate;
                if (m >= subs_[i].size())
                    continue;
                const core::WindowSpan &s = subs_[i][m].span;
                if (s.ingestNanos == 0 || s.epStartNanos == 0)
                    continue;
                result_.ringWaitUs.push_back(
                    us(s.assembleNanos, s.ingestNanos));
                result_.assembleUs.push_back(
                    us(s.epStartNanos, s.assembleNanos));
                result_.epUs.push_back(us(s.epEndNanos, s.epStartNanos));
                result_.publishUs.push_back(
                    us(s.publishNanos, s.epEndNanos));
                result_.visibleUs.push_back(us(o.seen, o.publish));
            }
        }
    }

    const sim::MicroarchDescriptor &uarch_;
    const WorkloadSpec &spec_;
    const Inputs &in_;
    const ArmConfig config_;

    ArmResult result_;
    /** Written only by the hub's dispatcher thread while the service
     * runs; read after flushSubscriptions().  Declared before the
     * service so the service (and its dispatcher) dies first. */
    std::vector<std::vector<SubRecord>> subs_;
    telemetry::TraceCollector trace_;
    std::unique_ptr<service::MonitorService> daemon_;
    /** Borrows the service's region: reset before the service. */
    std::optional<shim::SnapshotReader> reader_;

    std::vector<Tenant> tenants_;
    std::vector<sim::PerfRecord> batch_;
    shim::PosteriorSnapshot snap_;
    bool timed_ = false;
    bool recording_ = false;
    std::uint64_t wsBefore_ = 0;
    /** Slices newly covered during the timed phase, all sessions. */
    std::uint64_t coveredTotal_ = 0;
    RegistryView registryBefore_, registryAfter_;
};

/** Set up an arm (service, opens, warm-up), measure, and finish. */
ArmResult
runArm(const sim::MicroarchDescriptor &uarch, const WorkloadSpec &spec,
       const Inputs &in, ArmConfig config, double seconds)
{
    ArmRun arm(uarch, spec, in, config);
    arm.start();
    arm.warmUp();
    arm.measure(seconds);
    return arm.finish();
}

// ------------------------------------------------------------- checks

/**
 * Replay one session's exact record stream through a single-threaded
 * StreamingInference and compare with what the service returned at
 * close, bit for bit.
 */
bool
replayMatches(const sim::MicroarchDescriptor &uarch, const WorkloadSpec &spec,
              const Inputs &in, std::size_t session, std::size_t sent,
              const service::SessionReport &report)
{
    service::StreamingConfig cfg = service::SessionConfig{}.streaming;
    cfg.inference.windowSlices = spec.windowSlices;
    cfg.schedulePeriod = in.schedulePeriod;
    service::StreamingInference replay(uarch, report.events, cfg);
    std::vector<sim::PerfRecord> batch;
    for (std::size_t s = 0; s < sent; ++s) {
        fillSlice(in.sessions[session], s, batch);
        for (const auto &rec : batch)
            replay.consume(rec);
    }
    replay.finish();
    const core::InferenceResult want = replay.takeResult();
    const core::InferenceResult &got = report.posterior;
    if (want.firstSlice != got.firstSlice ||
        want.windowsRun != got.windowsRun ||
        want.series.size() != got.series.size())
        return false;
    for (std::size_t e = 0; e < want.series.size(); ++e) {
        if (want.series[e].size() != got.series[e].size())
            return false;
        for (std::size_t t = 0; t < want.series[e].size(); ++t)
            if (!sameBits(want.series[e][t].mean, got.series[e][t].mean) ||
                !sameBits(want.series[e][t].stddev,
                          got.series[e][t].stddev))
                return false;
    }
    return true;
}

/** Replay a seed-chosen subset of sessions, one thread each. */
void
checkReplay(const sim::MicroarchDescriptor &uarch, const WorkloadSpec &spec,
            const Inputs &in, std::uint64_t seed, std::size_t threads,
            ArmResult &arm)
{
    const std::size_t n = in.sessions.size();
    const std::size_t count = std::min(n, std::max<std::size_t>(1, threads));
    std::vector<char> ok(count, 0);
    std::vector<std::thread> pool;
    for (std::size_t j = 0; j < count; ++j) {
        const std::size_t s = (seed + j * n / count) % n;
        pool.emplace_back([&, j, s] {
            ok[j] = replayMatches(uarch, spec, in, s, arm.sent[s],
                                  arm.reports[s]);
        });
    }
    for (auto &t : pool)
        t.join();
    for (char good : ok)
        if (!good)
            arm.failures.push_back(
                "service posterior differs from single-threaded replay");
}

// ----------------------------------------------------------- accuracy

struct Accuracy
{
    double errorPct = 0.0;
    double coveragePct = 0.0;
    double linuxErrorPct = 0.0;
    std::size_t points = 0;
};

/**
 * Posterior means and +/-1.96 sigma intervals against simulator ground
 * truth, over every inferred slice of every programmable event (fixed
 * counters are read every slice at full duty and are left out).  The
 * Linux baseline is scored on the same (session, event, slice) points.
 */
Accuracy
scoreAccuracy(const sim::MicroarchDescriptor &uarch, const Inputs &in,
              const ArmResult &arm, bool with_linux)
{
    double err = 0.0, linux_err = 0.0;
    std::size_t n = 0, inside = 0;
    const baselines::LinuxEstimator linux_estimator;
    for (std::size_t i = 0; i < arm.reports.size(); ++i) {
        const core::InferenceResult &res = arm.reports[i].posterior;
        const SessionInput &input = in.sessions[i];
        for (std::size_t e = 0; e < res.events.size(); ++e) {
            const sim::EventId ev = res.events[e];
            if (uarch.event(ev).fixed)
                continue;
            const std::vector<double> linux_series =
                with_linux ? linux_estimator.series(input.run, ev)
                           : std::vector<double>{};
            for (std::size_t t = 0; t < res.series[e].size(); ++t) {
                const std::size_t slice =
                    input.generated(res.firstSlice + t);
                const double truth = input.truth.sliceTotal(slice, ev);
                const double denom = std::max(truth, 1.0);
                const core::PosteriorPoint &p = res.series[e][t];
                err += std::abs(p.mean - truth) / denom;
                inside += std::abs(p.mean - truth) <= 1.96 * p.stddev;
                if (with_linux)
                    linux_err += std::abs(linux_series[slice] - truth) / denom;
                ++n;
            }
        }
    }
    Accuracy acc;
    acc.points = n;
    if (n > 0) {
        const double dn = static_cast<double>(n);
        acc.errorPct = 100.0 * err / dn;
        acc.coveragePct = 100.0 * static_cast<double>(inside) / dn;
        acc.linuxErrorPct = 100.0 * linux_err / dn;
    }
    return acc;
}

// --------------------------------------------- layers timed in isolation

struct CoreProbe
{
    std::vector<double> modelBuildUs, epRunUs, factorizeUs;
    std::size_t windows = 0;
    std::size_t sweeps = 0, converged = 0, moments = 0, rank1 = 0,
                fullSolves = 0, skipped = 0;
    std::size_t steadyAllocations = 0;
    bool matchesEngine = true;
};

/**
 * Time the window model build, the EP run and one dense factorization
 * separately on the windows of one session's first `slices` slices.
 * The window loop mirrors WindowedInference::runWindow step for step;
 * its posteriors are compared bit for bit with the real engine fed the
 * same slices, so the timings are of the code the service runs.
 */
void
probeCore(const sim::MicroarchDescriptor &uarch, const WorkloadSpec &spec,
          const Inputs &in, std::size_t session, std::size_t slices,
          CoreProbe &probe)
{
    const std::vector<sim::EventId> &events = in.monitored;
    service::SliceAssembler assembler(events, true);
    std::vector<core::SliceMeasurements> rows;
    std::vector<sim::PerfRecord> batch;
    for (std::size_t s = 0; s < slices; ++s) {
        fillSlice(in.sessions[session], s, batch);
        for (const auto &rec : batch)
            assembler.feed(rec, rows);
    }
    assembler.flush(rows);

    core::InferenceConfig cfg;
    cfg.windowSlices = spec.windowSlices;
    core::WindowedInference engine(uarch, events, cfg, in.schedulePeriod);
    // Warm-up is the first two windows: the second is the first one
    // built with carry-in priors.
    std::size_t allocs_after_warmup = 0;
    for (const auto &row : rows) {
        const std::size_t before = engine.windowsRun();
        engine.push(row);
        if (before < 2 && engine.windowsRun() >= 2)
            allocs_after_warmup = engine.epWorkspaceAllocations() +
                                  engine.modelAllocations();
    }
    probe.steadyAllocations += engine.epWorkspaceAllocations() +
                               engine.modelAllocations() -
                               allocs_after_warmup;

    const std::size_t k = in.k, stride = in.stride;
    const sim::EventId inst = uarch.idForRole(sim::Role::Instructions);
    const core::ExpectationPropagation ep(cfg.ep);
    core::EpWorkspace ws;
    core::EpResult r;
    std::optional<core::WindowModel> model;
    std::vector<core::CarryPrior> carry;
    std::vector<double> levels(events.size()), normalizer;
    graph::GaussianSolver solver;
    graph::GaussianJoint joint;
    graph::SolverScratch scratch;
    std::vector<std::vector<core::PosteriorPoint>> series(
        events.size(), std::vector<core::PosteriorPoint>(rows.size()));
    std::size_t covered = 0;
    for (std::size_t w0 = 0; w0 + k <= rows.size(); w0 += stride) {
        const Nanos t_build = now();
        for (std::size_t i = 0; i < events.size(); ++i) {
            double sum = 0.0;
            std::size_t n = 0;
            for (std::size_t s = 0; s < k; ++s)
                if (rows[w0 + s][i].observed) {
                    sum += rows[w0 + s][i].scaled();
                    ++n;
                }
            levels[i] = n > 0 ? sum / static_cast<double>(n)
                        : !carry.empty()
                            ? carry[i].mean
                            : uarch.event(events[i]).typicalPerSlice;
        }
        normalizer.clear();
        for (std::size_t i = 0; i < events.size(); ++i) {
            if (events[i] != inst)
                continue;
            for (std::size_t s = 0; s < k; ++s) {
                const auto &sample = rows[w0 + s][i];
                if (!sample.observed || sample.scaled() <= 0.0) {
                    normalizer.clear();
                    break;
                }
                normalizer.push_back(sample.scaled());
            }
            break;
        }
        const std::vector<double> *norm =
            normalizer.empty() ? nullptr : &normalizer;
        if (!model)
            model.emplace(uarch, events, k, cfg.model, &levels, norm);
        else
            model->rebuild(k, &levels, norm);
        model->addCarryPriors(carry);
        for (std::size_t i = 0; i < events.size(); ++i) {
            for (std::size_t s = 0; s < k; ++s) {
                const auto &sample = rows[w0 + s][i];
                if (!sample.observed)
                    continue;
                if (sample.timeRunning >= 0.999) {
                    core::MeasurementModel m;
                    m.loc = sample.scaled();
                    m.scale = std::max(cfg.model.measurementExtraRel *
                                           std::abs(m.loc),
                                       1e-9);
                    m.nu = 30.0;
                    model->addMeasurement(events[i], s, m);
                } else {
                    model->addMeasurement(
                        events[i], s,
                        core::fitMeasurement(
                            sample, cfg.model.measurementMuxRel,
                            cfg.model.measurementFloorRel * levels[i]));
                }
            }
        }
        const Nanos t_ep = now();
        ep.run(model->graph(), ws, r);
        const Nanos t_done = now();
        probe.modelBuildUs.push_back(static_cast<double>(t_ep - t_build) *
                                     1e-3);
        probe.epRunUs.push_back(static_cast<double>(t_done - t_ep) * 1e-3);
        ++probe.windows;
        probe.sweeps += r.sweeps;
        probe.converged += r.converged;
        probe.moments += r.momentEvaluations;
        probe.rank1 += r.rank1Updates;
        probe.fullSolves += r.fullSolves;
        probe.skipped += r.skippedUpdates;

        solver.rebind(model->graph());
        solver.solveInto({}, joint, scratch); // warm the scratch
        const Nanos t_fact = now();
        solver.solveInto({}, joint, scratch);
        probe.factorizeUs.push_back(secondsSince(t_fact) * 1e6);

        for (std::size_t i = 0; i < events.size(); ++i)
            for (std::size_t s = 0; s < k; ++s) {
                const graph::VarId v = model->var(events[i], s);
                series[i][w0 + s] = {r.mean[v], r.stddev[v]};
            }
        covered = w0 + k;
        const std::size_t carry_slice = std::min(stride, k) - 1;
        carry.clear();
        for (std::size_t i = 0; i < events.size(); ++i) {
            const graph::VarId v = model->var(events[i], carry_slice);
            const double walk_sd =
                cfg.model.temporalSigmaRel *
                std::max(levels[i],
                         0.05 * uarch.event(events[i]).typicalPerSlice);
            const double sd = std::sqrt(
                cfg.carryVarInflation *
                (r.stddev[v] * r.stddev[v] + walk_sd * walk_sd));
            carry.push_back({events[i], r.mean[v], sd});
        }
    }
    if (covered != engine.slicesCovered())
        probe.matchesEngine = false;
    for (std::size_t i = 0; i < events.size(); ++i)
        for (std::size_t t = 0; t < covered; ++t)
            if (!sameBits(series[i][t].mean, engine.series()[i][t].mean) ||
                !sameBits(series[i][t].stddev,
                          engine.series()[i][t].stddev))
                probe.matchesEngine = false;
}

/** SliceAssembler alone on one session's record stream (ns/record). */
double
probeAssembler(const Inputs &in, std::size_t records_wanted)
{
    std::vector<sim::PerfRecord> stream, batch;
    for (std::size_t s = 0; stream.size() < records_wanted; ++s) {
        fillSlice(in.sessions[0], s, batch);
        stream.insert(stream.end(), batch.begin(), batch.end());
    }
    std::vector<double> per_record;
    std::vector<core::SliceMeasurements> out;
    for (int pass = 0; pass < 5; ++pass) {
        service::SliceAssembler assembler(in.monitored, true);
        out.clear();
        out.reserve(stream.size());
        const Nanos t0 = now();
        for (const auto &rec : stream)
            assembler.feed(rec, out);
        per_record.push_back(static_cast<double>(now() - t0) /
                             static_cast<double>(stream.size()));
    }
    return median(per_record);
}

// --------------------------------------------------------- reporting

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(std::min(line.size(), colon + 2));
        }
    }
    return "unknown";
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? v : fallback;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Machine, build and workload stamp printed ahead of every result. */
void
printStamp(const Options &opt, const WorkloadSpec &spec, const Inputs &in,
           std::size_t workers)
{
    const std::string build_type = PIPEBENCH_BUILD_TYPE;
    const bool debug_build =
        build_type == "Debug" || build_type.empty();
    const bool comparable = !debug_build && PIPEBENCH_SANITIZED == 0;
    std::ostringstream o;
    o << "{\"workload\": " << jsonString(spec.name)
      << ", \"seed\": " << opt.seed
      << ", \"seconds\": " << jsonNumber(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": " << jsonString(cpuModel())
      << ", \"quad_kernel\": " << jsonString(core::activeQuadKernelName())
      << ", \"build_type\": " << jsonString(build_type)
      << ", \"sanitized\": " << (PIPEBENCH_SANITIZED ? "true" : "false")
      << ", \"comparable\": " << (comparable ? "true" : "false")
      << ", \"compiler\": " << jsonString(__VERSION__)
      << ", \"git_commit\": "
      << jsonString(envOr("PIPEBENCH_GIT_COMMIT", "unknown"))
      << ", \"source_digest\": "
      << jsonString(envOr("PIPEBENCH_SOURCE_DIGEST", "unknown"))
      << ", \"params\": {\"sessions\": " << spec.profiles.size()
      << ", \"events\": " << in.monitored.size()
      << ", \"window_slices\": " << in.k << ", \"stride\": " << in.stride
      << ", \"schedule_period\": " << in.schedulePeriod
      << ", \"pmi_reads_per_slice\": " << spec.pmiReads
      << ", \"generated_slices\": " << spec.genSlices
      << ", \"loop\": " << (spec.openLoop ? "\"open\"" : "\"closed\"")
      << ", \"slice_period_us\": " << jsonNumber(spec.slicePeriodUs)
      << ", \"workers\": " << workers << "}}";
    std::cout << "# stamp " << o.str() << "\n";
    if (!comparable)
        std::cout << "# WARNING: " << build_type
                  << (PIPEBENCH_SANITIZED ? " sanitizer" : "")
                  << " build; numbers are not comparable\n";
}

/** Print the report and the result line; returns whether the run is
 * correct (every check passed and every metric has a value). */
bool
printResult(std::vector<std::string> failures, std::uint64_t attempted,
            std::uint64_t failed, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        if (!std::isfinite(m.value))
            failures.push_back("no samples for " + m.name);
    const bool correct = failures.empty();
    std::printf("# %-36s %16s  %-10s %s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : metrics)
        std::printf("# %-36s %16.6g  %-10s %zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    for (const std::string &f : failures)
        std::printf("# CHECK FAILED: %s\n", f.c_str());
    std::ostringstream o;
    o << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        o << (i ? ", " : "") << jsonString(metrics[i].name)
          << ": {\"value\": " << jsonNumber(metrics[i].value)
          << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    o << "}}";
    std::cout << o.str() << std::endl;
    return correct;
}

/** Operations the run attempted and the ones that failed: records
 * offered, consumer shim reads and subscription deliveries. */
void
countOps(const ArmResult &arm, std::uint64_t &attempted,
         std::uint64_t &failed)
{
    const auto &t = arm.stats.totals;
    attempted = t.recordsOffered + arm.reads.total + arm.subPublished;
    failed = t.recordsDropped + t.recordsRejected + arm.readsNotOk +
             arm.subDropped;
}

/** Service workers: every core but one, which the generator thread
 * keeps (it polls the shim between sends). */
std::size_t
workerCount()
{
    const std::size_t cores =
        std::max<std::size_t>(2, std::thread::hardware_concurrency());
    return std::min<std::size_t>(3, cores - 1);
}

/**
 * A window-latency percentile, taken per group of consecutive windows
 * (by due time; at least 1000 windows each, so even p99 has ten
 * samples beyond it; at most 30 groups) and reported as the 10th
 * percentile over the groups.  Time stolen from the VM only ever slows
 * windows, and it comes in bursts: this ignores bursts that cover up
 * to nine tenths of the run, while a slower program moves every group.
 */
double
groupedPercentile(const ArmResult &arm, double p)
{
    const std::size_t n = arm.latencyUs.size();
    if (n == 0)
        return std::nan("");
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return arm.latencyDue[a] < arm.latencyDue[b];
    });
    const std::size_t groups = std::clamp<std::size_t>(n / 1000, 1, 30);
    std::vector<double> per_group, xs;
    for (std::size_t g = 0; g < groups; ++g) {
        xs.clear();
        for (std::size_t i = g * n / groups; i < (g + 1) * n / groups; ++i)
            xs.push_back(arm.latencyUs[order[i]]);
        per_group.push_back(pctOf(xs, p));
    }
    return pctOf(per_group, 10);
}

double
hist(const ArmResult &arm, const char *name, double p)
{
    const auto &snap = arm.registry.at(name);
    return snap.count > 0 ? snap.percentile(p) : std::nan("");
}

// ------------------------------------------------------------ drivers

/** --trace 0: end-to-end metrics with the shipped defaults. */
int
runEndToEnd(const Options &opt, const sim::MicroarchDescriptor &uarch,
            const WorkloadSpec &spec, Nanos process_start)
{
    const std::size_t workers = workerCount();
    // Set up five times (inputs, service, opens, warm-up window) and
    // keep the last; setup_s is the median, so one slow start does not
    // move it.
    constexpr int kSetups = 5;
    std::vector<double> setup_s;
    std::unique_ptr<Inputs> in;
    std::unique_ptr<ArmRun> arm;
    for (int rep = 0; rep < kSetups; ++rep) {
        const Nanos start = rep == 0 ? process_start : now();
        arm.reset();
        in.reset();
        in = std::make_unique<Inputs>(generateInputs(uarch, spec, opt.seed));
        arm = std::make_unique<ArmRun>(uarch, spec, *in,
                                       ArmConfig{.workers = workers});
        arm->start();
        arm->warmUp();
        setup_s.push_back(secondsSince(start));
    }
    printStamp(opt, spec, *in, workers);
    arm->measure(opt.seconds);
    ArmResult res = arm->finish();
    arm.reset();
    if (spec.replayCheck)
        checkReplay(uarch, spec, *in, opt.seed, workers, res);
    const Accuracy acc = scoreAccuracy(uarch, *in, res, false);

    std::vector<Metric> m = {
        {"setup_s", median(setup_s), "s", setup_s.size()},
        {"slices_per_s", res.slicesPerSec, "slices/s",
         res.intervalRate.size()},
        {"window_latency_p50_us", groupedPercentile(res, 50), "us",
         res.latencyUs.size()},
        {"window_latency_p90_us", groupedPercentile(res, 90), "us",
         res.latencyUs.size()},
        {"window_latency_p99_us", groupedPercentile(res, 99), "us",
         res.latencyUs.size()},
        {"posterior_error_pct", acc.errorPct, "%", acc.points},
        {"coverage_pct", acc.coveragePct, "%", acc.points},
        {"shim_read_p50_ns", res.reads.percentile(50), "ns",
         res.reads.total},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
    };
    std::printf("# info host steal %.2f%% of CPU time while timed\n",
                res.stealPct);
    std::uint64_t attempted = 0, failed = 0;
    countOps(res, attempted, failed);
    return printResult(res.failures, attempted, failed, m) ? 0 : 1;
}

/** --trace 1: per-layer metrics from an untraced arm, a traced arm,
 * closed-loop capacity arms at N workers and at one, and layers timed
 * alone on captured inputs. */
int
runTraced(const Options &opt, const sim::MicroarchDescriptor &uarch,
          const WorkloadSpec &spec)
{
    const std::size_t workers = workerCount();
    const Nanos gen_start = now();
    const Inputs in = generateInputs(uarch, spec, opt.seed);
    const double generate_s = secondsSince(gen_start);
    printStamp(opt, spec, in, workers);

    const double arm_seconds = std::max(1.0, opt.seconds / 2.0);
    ArmResult plain =
        runArm(uarch, spec, in, ArmConfig{.workers = workers}, arm_seconds);
    ArmResult traced =
        runArm(uarch, spec, in, ArmConfig{.workers = workers, .traced = true},
               arm_seconds);
    // Worker scaling compares closed-loop capacity at N workers and at
    // one; an open-loop workload needs its own N-worker capacity arm.
    ArmResult capacity_n =
        spec.openLoop
            ? runArm(uarch, spec, in,
                     ArmConfig{.workers = workers, .closedLoop = true},
                     arm_seconds)
            : ArmResult{};
    const double capacity =
        spec.openLoop ? capacity_n.slicesPerSec : plain.slicesPerSec;
    ArmResult single = runArm(
        uarch, spec, in, ArmConfig{.workers = 1, .closedLoop = true},
        arm_seconds);
    if (spec.replayCheck)
        checkReplay(uarch, spec, in, opt.seed, workers, traced);
    const Accuracy acc = scoreAccuracy(uarch, in, traced, true);

    CoreProbe core_probe;
    const std::size_t probe_sessions =
        std::min<std::size_t>(2, in.sessions.size());
    for (std::size_t s = 0; s < probe_sessions; ++s)
        probeCore(uarch, spec, in, s,
                  std::min<std::size_t>(spec.genSlices, 12 * in.k),
                  core_probe);
    std::vector<std::string> failures = traced.failures;
    for (const ArmResult *a : {&plain, &capacity_n, &single})
        for (const std::string &f : a->failures)
            failures.push_back(f);
    if (!core_probe.matchesEngine)
        failures.push_back("core probe diverged from WindowedInference");
    const double assemble_ns = probeAssembler(in, 200000);

    // Worker-path self time per layer, summed over the traced arm.
    const double ingest_total_us = traced.ingestNs * 1e-3;
    const double assemble_total_us =
        assemble_ns * static_cast<double>(traced.ingestRecords) * 1e-3;
    double ep_total_us = 0.0, publish_total_us = 0.0;
    for (double w : traced.windowUs)
        ep_total_us += w;
    for (double p : traced.windowPublishUs)
        publish_total_us += p;
    const double worker_path_us = ingest_total_us + assemble_total_us +
                                  ep_total_us + publish_total_us;

    // Closure: do the phase means add up to the mean latency?
    const double phase_sum = meanOf(traced.lagUs) +
                             meanOf(traced.ringWaitUs) +
                             meanOf(traced.assembleUs) +
                             meanOf(traced.epUs) +
                             meanOf(traced.publishUs) +
                             meanOf(traced.visibleUs);
    const double latency_mean = meanOf(traced.latencyUs);

    const auto &ts = traced.stats.totals;
    std::uint64_t attempted = 0, failed = 0;
    countOps(traced, attempted, failed);
    const double w =
        std::max<double>(1.0, static_cast<double>(core_probe.windows));
    // The open loop fixes the rate, so tracing can only cost latency.
    const double overhead_pct =
        spec.openLoop
            ? 100.0 * (pctOf(traced.latencyUs, 50) /
                           pctOf(plain.latencyUs, 50) -
                       1.0)
            : 100.0 * (1.0 - traced.slicesPerSec / plain.slicesPerSec);

    std::vector<Metric> m = {
        {"sim.generate_s", generate_s, "s", 1},
        {"loadgen.lag_p99_us", pctOf(traced.lagUs, 99), "us",
         traced.lagUs.size()},
        {"loadgen.late_windows_pct",
         100.0 * static_cast<double>(traced.windowsLate) /
             std::max<double>(1.0, static_cast<double>(traced.windowsDue)),
         "%", traced.windowsDue},
        {"loadgen.offered_load_pct", 100.0 * plain.slicesPerSec / capacity,
         "%", 2},
        {"service.open_us_p50", pctOf(traced.openUs, 50), "us",
         traced.openUs.size()},
        {"service.ingest_ns_per_record",
         traced.ingestNs /
             std::max<double>(1.0, static_cast<double>(traced.ingestRecords)),
         "ns", traced.ingestRecords},
        {"service.assemble_ns_per_record", assemble_ns, "ns", 5},
        {"service.ring_wait_us_p50", pctOf(traced.ringWaitUs, 50), "us",
         traced.ringWaitUs.size()},
        {"service.ring_wait_us_p99", pctOf(traced.ringWaitUs, 99), "us",
         traced.ringWaitUs.size()},
        {"service.dispatch_wait_us_p99",
         hist(traced, "worker.dispatch_wait_ns", 99) * 1e-3, "us",
         traced.registry.at("worker.dispatch_wait_ns").count},
        {"service.publish_us_p50", pctOf(traced.windowPublishUs, 50), "us",
         traced.windowPublishUs.size()},
        {"service.publish_us_p99", pctOf(traced.windowPublishUs, 99), "us",
         traced.windowPublishUs.size()},
        {"service.fanout_us_p99",
         hist(traced, "publish.fanout_ns", 99) * 1e-3, "us",
         traced.registry.at("publish.fanout_ns").count},
        {"service.subscription_lag_us_p99",
         hist(traced, "subscription.delivery_lag_ns", 99) * 1e-3, "us",
         traced.registry.at("subscription.delivery_lag_ns").count},
        {"service.records_dropped", static_cast<double>(ts.recordsDropped),
         "count", 1},
        {"service.records_rejected",
         static_cast<double>(ts.recordsRejected), "count", 1},
        {"service.subscription_drops",
         static_cast<double>(traced.subDropped), "count", 1},
        {"service.ops_failed_pct",
         100.0 * static_cast<double>(failed) /
             std::max<double>(1.0, static_cast<double>(attempted)),
         "%", attempted},
        {"service.worker_scaling_x", capacity / single.slicesPerSec, "x",
         2},
        {"service.latency_closure_gap_pct",
         100.0 * std::abs(phase_sum - latency_mean) / latency_mean, "%",
         traced.latencyUs.size()},
        {"core.window_us_p50", pctOf(traced.windowUs, 50), "us",
         traced.windowUs.size()},
        {"core.window_us_p99", pctOf(traced.windowUs, 99), "us",
         traced.windowUs.size()},
        {"core.ep_share_pct", 100.0 * ep_total_us / worker_path_us, "%",
         traced.windowUs.size()},
        {"core.model_build_us", meanOf(core_probe.modelBuildUs), "us",
         core_probe.windows},
        {"core.ep_run_us", meanOf(core_probe.epRunUs), "us",
         core_probe.windows},
        {"core.ep_sweeps_per_window",
         static_cast<double>(core_probe.sweeps) / w, "count",
         core_probe.windows},
        {"core.ep_converged_pct",
         100.0 * static_cast<double>(core_probe.converged) / w, "%",
         core_probe.windows},
        {"core.ep_moment_evals_per_window",
         static_cast<double>(core_probe.moments) / w, "count",
         core_probe.windows},
        {"core.ep_rank1_updates_per_window",
         static_cast<double>(core_probe.rank1) / w, "count",
         core_probe.windows},
        {"core.ep_full_solves_per_window",
         static_cast<double>(core_probe.fullSolves) / w, "count",
         core_probe.windows},
        {"core.ep_skipped_updates_per_window",
         static_cast<double>(core_probe.skipped) / w, "count",
         core_probe.windows},
        {"core.steady_allocations",
         static_cast<double>(core_probe.steadyAllocations +
                             traced.workspaceGrowths),
         "count", core_probe.windows},
        {"graph.factorize_us", median(core_probe.factorizeUs), "us",
         core_probe.factorizeUs.size()},
        {"shim.publish_ns_p50", hist(traced, "shim.publish_ns", 50), "ns",
         traced.registry.at("shim.publish_ns").count},
        {"shim.read_ns_p99", traced.reads.percentile(99), "ns",
         traced.reads.total},
        {"shim.visible_lag_us_p99", pctOf(traced.visibleUs, 99), "us",
         traced.visibleUs.size()},
        {"shim.reads_not_ok", static_cast<double>(traced.readsNotOk),
         "count", traced.reads.total},
        {"baselines.linux_error_pct", acc.linuxErrorPct, "%", acc.points},
        {"telemetry.trace_overhead_pct", overhead_pct, "%", 2},
    };
    return printResult(failures, attempted, failed, m) ? 0 : 1;
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1\n  workloads:",
                 argv0);
    for (const char *w : kWorkloadNames)
        std::fprintf(stderr, " %s", w);
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // Short naps must stay short (the default slack is 50 us).
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    const Nanos process_start = now();
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        usage(argv[0]);
        return 2;
    }
    static const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    const std::optional<WorkloadSpec> spec = makeSpec(opt.workload, uarch);
    if (!spec) {
        usage(argv[0]);
        return 2;
    }
    return opt.trace ? runTraced(opt, uarch, *spec)
                     : runEndToEnd(opt, uarch, *spec, process_start);
}

/** @file Tests for the window model and end-to-end inference. */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/linux_scaling.h"
#include "counting_new.h"
#include "core/bayesperf.h"
#include "core/model_builder.h"
#include "telemetry/telemetry.h"
#include "workloads/hibench.h"

namespace bperf {
namespace core {
namespace {

using sim::EventId;
using sim::Role;

TEST(WindowModel, VariablesPerEventAndSlice)
{
    const auto uarch = sim::makeX86Skylake();
    const std::vector<EventId> events = {
        uarch.idForRole(Role::Cycles), uarch.idForRole(Role::LlcMiss)};
    WindowModel model(uarch, events, 3, {});
    EXPECT_EQ(model.graph().numVariables(), 6u);
    for (std::size_t t = 0; t < 3; ++t)
        for (EventId e : events)
            EXPECT_NE(model.var(e, t), graph::kNoVar);
    // Unmodeled events map to no variable.
    EXPECT_EQ(model.var(uarch.idForRole(Role::DmaBytes), 0),
              graph::kNoVar);
}

/** Window slice of a model variable (the inverse of WindowModel::var). */
std::size_t
sliceOf(const WindowModel &model, graph::VarId v)
{
    for (std::size_t t = 0; t < model.numSlices(); ++t)
        for (EventId e : model.events())
            if (model.var(e, t) == v)
                return t;
    ADD_FAILURE() << "variable " << v << " is in no slice";
    return 0;
}

/**
 * The model's linear factors split by the slices they touch: an
 * invariant ties events within one slice, a walk (raw or ratio) ties
 * one event across two consecutive slices.
 */
struct LinearFactors
{
    std::vector<const graph::Factor *> invariants;
    std::vector<const graph::Factor *> walks;
};

LinearFactors
linearFactors(const WindowModel &model)
{
    LinearFactors out;
    const auto &g = model.graph();
    for (graph::FactorId f :
         g.factorsOfKind(graph::FactorKind::LinearGaussian)) {
        const graph::Factor &factor = g.factor(f);
        std::size_t lo = model.numSlices(), hi = 0;
        for (graph::VarId v : factor.vars) {
            lo = std::min(lo, sliceOf(model, v));
            hi = std::max(hi, sliceOf(model, v));
        }
        (lo == hi ? out.invariants : out.walks).push_back(&factor);
    }
    return out;
}

TEST(WindowModel, InvariantsOnlyWhenCovered)
{
    const auto uarch = sim::makeX86Skylake();
    // Cycles alone covers no invariant (all need >= 2 modeled roles).
    WindowModel lone(uarch, {uarch.idForRole(Role::Cycles)}, 1, {});
    EXPECT_TRUE(linearFactors(lone).invariants.empty());

    // Cycles + active + stall_total covers cycle_accounting (and no
    // other invariant): one factor per slice, with the catalog's
    // terms.
    const std::vector<EventId> events = {uarch.idForRole(Role::Cycles),
                                         uarch.idForRole(Role::ActiveCycles),
                                         uarch.idForRole(Role::StallTotal)};
    WindowModel covered(uarch, events, 2, {});
    const LinearFactors linear = linearFactors(covered);
    ASSERT_EQ(linear.invariants.size(), 2u);
    for (std::size_t t = 0; t < 2; ++t) {
        const graph::Factor &inv = *linear.invariants[t];
        ASSERT_EQ(inv.vars.size(), 3u);
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_EQ(inv.vars[j], covered.var(events[j], t));
        EXPECT_EQ(inv.coeffs, (std::vector<double>{1.0, -1.0, -1.0}));
    }
    EXPECT_EQ(linear.walks.size(), 3u); // one walk per event
}

TEST(WindowModel, RatioWalkNeedsNormalizer)
{
    const auto uarch = sim::makeX86Skylake();
    const EventId loads = uarch.idForRole(Role::Loads);
    WindowModel without(uarch, {loads}, 3, {});
    EXPECT_EQ(linearFactors(without).walks.size(), 2u); // raw walk only

    // With the instruction counts, each slice step adds a ratio walk
    // x_t / N_t - x_{t-1} / N_{t-1} beside the raw walk.
    const std::vector<double> norm = {1e6, 1.1e6, 0.9e6};
    WindowModel with(uarch, {loads}, 3, {}, nullptr, &norm);
    const auto walks = linearFactors(with).walks;
    ASSERT_EQ(walks.size(), 4u);
    std::size_t ratio = 0;
    for (const graph::Factor *walk : walks) {
        if (walk->coeffs == std::vector<double>{1.0, -1.0})
            continue;
        ++ratio;
        const std::size_t t = sliceOf(with, walk->vars[0]);
        ASSERT_GE(t, 1u);
        EXPECT_EQ(walk->vars,
                  (std::vector<graph::VarId>{with.var(loads, t),
                                             with.var(loads, t - 1)}));
        EXPECT_EQ(walk->coeffs,
                  (std::vector<double>{1.0 / norm[t], -1.0 / norm[t - 1]}));
    }
    EXPECT_EQ(ratio, 2u);
}

struct EndToEnd
{
    sim::MicroarchDescriptor uarch = sim::makeX86Skylake();

    BayesPerfRun
    run(double noise_scale, std::uint64_t seed = 42)
    {
        const auto workload = wl::makeHibench("KMeans");
        sim::GroundTruthGenerator gen(uarch, workload);
        truth = gen.generate(36, seed);

        BayesPerfConfig cfg;
        cfg.perf.noise.scale = noise_scale;
        cfg.perf.seed = seed * 3 + 1;
        BayesPerfSession session(uarch, cfg);
        session.open({uarch.idForRole(Role::LlcMiss),
                      uarch.idForRole(Role::L2Miss),
                      uarch.idForRole(Role::StallMem),
                      uarch.idForRole(Role::StallFrontend),
                      uarch.idForRole(Role::StallBranch),
                      uarch.idForRole(Role::StallTotal),
                      uarch.idForRole(Role::ActiveCycles),
                      uarch.idForRole(Role::BranchMisses),
                      uarch.idForRole(Role::DramBytes),
                      uarch.idForRole(Role::DmaBytes)});
        monitored = session.monitored();
        return session.measure(truth);
    }

    sim::TruthTrace truth{1, 2, 1};
    std::vector<EventId> monitored;
};

TEST(Inference, PosteriorIsFiniteWithPositiveUncertainty)
{
    EndToEnd fixture;
    const auto run = fixture.run(1.0);
    for (EventId e : fixture.monitored) {
        const auto mean = run.estimate(e);
        const auto sd = run.uncertainty(e);
        for (std::size_t t = 0; t < mean.size(); ++t) {
            ASSERT_TRUE(std::isfinite(mean[t]));
            ASSERT_TRUE(std::isfinite(sd[t]));
            ASSERT_GT(sd[t], 0.0);
        }
    }
}

TEST(Inference, FixedCountersAreNearlyExact)
{
    EndToEnd fixture;
    const auto run = fixture.run(1.0);
    const EventId cyc = fixture.uarch.idForRole(Role::Cycles);
    const auto est = run.estimate(cyc);
    for (std::size_t t = 0; t < est.size(); ++t) {
        const double truth_v = fixture.truth.sliceTotal(t, cyc);
        EXPECT_NEAR(est[t], truth_v, 0.05 * truth_v) << "slice " << t;
    }
}

TEST(Inference, BeatsLinuxScalingOnNoisyRun)
{
    // The headline property: on a multiplexed run, BayesPerf's
    // posterior means are closer to the truth than Linux scaling,
    // averaged over the multiplexed events.
    EndToEnd fixture;
    const auto run = fixture.run(1.0);
    baselines::LinuxEstimator linux_est;

    double err_bp = 0.0, err_linux = 0.0;
    std::size_t n = 0;
    for (EventId e : fixture.monitored) {
        if (fixture.uarch.event(e).fixed)
            continue;
        const auto bp = run.estimate(e);
        const auto lx = linux_est.series(run.raw, e);
        for (std::size_t t = 0; t < bp.size(); ++t) {
            const double truth_v =
                std::max(fixture.truth.sliceTotal(t, e), 1e-9);
            err_bp += std::abs(bp[t] - truth_v) / truth_v;
            err_linux += std::abs(lx[t] - truth_v) / truth_v;
            ++n;
        }
    }
    EXPECT_LT(err_bp, 0.8 * err_linux)
        << "BayesPerf " << err_bp / n << " vs Linux " << err_linux / n;
}

TEST(Inference, NearNoiseFreeRunIsAccuratelyRecovered)
{
    EndToEnd fixture;
    const auto run = fixture.run(0.0);
    const EventId llc = fixture.uarch.idForRole(Role::LlcMiss);
    const auto est = run.estimate(llc);
    double rel = 0.0;
    for (std::size_t t = 0; t < est.size(); ++t)
        rel += std::abs(est[t] - fixture.truth.sliceTotal(t, llc)) /
               fixture.truth.sliceTotal(t, llc);
    rel /= static_cast<double>(est.size());
    // Residual error stems only from multiplexing gaps.
    EXPECT_LT(rel, 0.25);
}

TEST(Inference, ObservedSlicesTighterThanUnobserved)
{
    EndToEnd fixture;
    const auto run = fixture.run(1.0);
    const EventId llc = fixture.uarch.idForRole(Role::LlcMiss);
    const auto sd = run.uncertainty(llc);
    const auto &trace = run.raw.traceFor(llc);
    double sd_obs = 0.0, sd_un = 0.0;
    std::size_t n_obs = 0, n_un = 0;
    for (std::size_t t = 0; t < sd.size(); ++t) {
        if (trace.slices[t].observed) {
            sd_obs += sd[t];
            ++n_obs;
        } else {
            sd_un += sd[t];
            ++n_un;
        }
    }
    ASSERT_GT(n_obs, 0u);
    ASSERT_GT(n_un, 0u);
    // Invariants and ratio walks spread information, so the gap is
    // modest, but observed slices must not be *less* certain.
    EXPECT_LT(sd_obs / n_obs, 1.15 * sd_un / n_un);
}

TEST(Inference, DeterministicAcrossRuns)
{
    EndToEnd a, b;
    const auto ra = a.run(1.0, 7);
    const auto rb = b.run(1.0, 7);
    const EventId llc = a.uarch.idForRole(Role::LlcMiss);
    EXPECT_EQ(ra.estimate(llc), rb.estimate(llc));
}

TEST(WindowedInference, CountsUnconvergedWindows)
{
    // EP's converged flag reaches telemetry: a window stopped at
    // maxSweeps counts in ep.unconverged_windows, a converged one does
    // not.
    const auto uarch = sim::makeX86Skylake();
    const sim::GroundTruthGenerator gen(uarch, wl::makeHibench("KMeans"));
    const sim::TruthTrace truth = gen.generate(4, 11);
    std::vector<EventId> events = uarch.fixedEvents();
    for (Role r : {Role::LlcMiss, Role::L2Miss, Role::StallMem})
        events.push_back(uarch.idForRole(r));
    sim::PerfSession perf(uarch, sim::PerfSessionConfig{});
    const sim::PerfResult run = perf.runRoundRobin(truth, events);

    // One 4-slice window; returns the sweeps EP ran.
    auto run_window = [&](std::size_t max_sweeps) {
        InferenceConfig cfg;
        cfg.windowSlices = 4;
        cfg.ep.maxSweeps = max_sweeps;
        WindowedInference engine(uarch, run.monitored, cfg);
        SliceMeasurements slice(run.monitored.size());
        for (std::size_t t = 0; t < 4; ++t) {
            for (std::size_t i = 0; i < slice.size(); ++i)
                slice[i] = run.traces[i].slices[t];
            engine.push(slice);
        }
        EXPECT_EQ(engine.windowsRun(), 1u);
        return engine.epSweepsTotal();
    };

    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    const auto &registry = telemetry::MetricsRegistry::global();
    const std::uint64_t before =
        registry.counterValue("ep.unconverged_windows");
    EXPECT_EQ(run_window(1), 1u);
    EXPECT_EQ(registry.counterValue("ep.unconverged_windows"), before + 1);
    // Stopping below the sweep cap means the window converged.
    EXPECT_LT(run_window(200), 200u);
    EXPECT_EQ(registry.counterValue("ep.unconverged_windows"), before + 1);
    telemetry::setEnabled(was_enabled);
}

/** The 13-event round-robin stream (48 slices unless asked for more)
 * of one HiBench workload that the long-chain, convergence and
 * allocation tests run. */
sim::PerfResult
thirteenEventRun(const sim::MicroarchDescriptor &uarch, const char *workload,
                 std::size_t num_slices = 48)
{
    std::vector<EventId> events = uarch.fixedEvents();
    for (Role r : {Role::LlcMiss, Role::L2Miss, Role::L1DMiss, Role::Loads,
                   Role::Stores, Role::Branches, Role::BranchMisses,
                   Role::StallMem, Role::StallTotal, Role::DramBytes})
        events.push_back(uarch.idForRole(r));
    EXPECT_EQ(events.size(), 13u);
    const sim::GroundTruthGenerator gen(uarch, wl::makeHibench(workload));
    const sim::TruthTrace truth = gen.generate(num_slices, 5);
    sim::PerfSessionConfig perf_cfg;
    perf_cfg.seed = 17;
    sim::PerfSession perf(uarch, perf_cfg);
    return perf.runRoundRobin(truth, events);
}

TEST(WindowedInference, LongRank1ChainsMatchDenseResolve)
{
    // 13 events at k = 8 with tolerance 0 run all 8 sweeps, i.e. more
    // blocked rank-1 updates per window (>= 256) than any golden
    // graph.  With no periodic re-factorization the Sherman-Morrison
    // chain spans the whole window, so it must still track the full
    // re-solve oracle.
    const auto uarch = sim::makeX86Skylake();
    for (const char *workload : {"KMeans", "Sort", "WordCount"}) {
        const sim::PerfResult run = thirteenEventRun(uarch, workload);

        InferenceConfig cfg;
        cfg.windowSlices = 8;
        cfg.ep.tolerance = 0.0;
        const InferenceResult fast = InferenceEngine(uarch, cfg).infer(run);
        cfg.ep.jointStrategy = JointStrategy::DenseResolve;
        const InferenceResult dense = InferenceEngine(uarch, cfg).infer(run);

        EXPECT_GE(fast.epRank1Updates, 256 * fast.windowsRun) << workload;
        EXPECT_EQ(dense.epRank1Updates, 0u) << workload;
        ASSERT_EQ(fast.series.size(), dense.series.size());
        double worst = 0.0;
        auto rel = [](double a, double b) {
            return std::abs(a - b) / std::max(std::abs(b), 1e-30);
        };
        for (std::size_t i = 0; i < fast.series.size(); ++i) {
            ASSERT_EQ(fast.series[i].size(), dense.series[i].size());
            for (std::size_t t = 0; t < fast.series[i].size(); ++t) {
                const PosteriorPoint &f = fast.series[i][t];
                const PosteriorPoint &d = dense.series[i][t];
                worst = std::max({worst, rel(f.mean, d.mean),
                                  rel(f.stddev, d.stddev)});
            }
        }
        EXPECT_LE(worst, 1e-6) << workload;
    }
}

TEST(WindowedInference, DefaultEpConvergesOnThirteenEventWindows)
{
    // Sequential quadrature EP runs undamped, so at the default
    // EpConfig (8 sweeps, tolerance 1e-4) nearly every k = 6 window
    // reaches its fixed point in about four sweeps.  A damped schedule
    // stops most of these windows at the sweep cap.
    const auto uarch = sim::makeX86Skylake();
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    const auto &registry = telemetry::MetricsRegistry::global();
    for (const char *workload : {"KMeans", "Sort", "WordCount"}) {
        const sim::PerfResult run = thirteenEventRun(uarch, workload);
        InferenceConfig cfg;
        cfg.windowSlices = 6;
        const std::uint64_t before =
            registry.counterValue("ep.unconverged_windows");
        const InferenceResult r = InferenceEngine(uarch, cfg).infer(run);
        const std::uint64_t unconverged =
            registry.counterValue("ep.unconverged_windows") - before;

        EXPECT_GT(r.windowsRun, 0u) << workload;
        const double windows = static_cast<double>(r.windowsRun);
        EXPECT_GE(1.0 - static_cast<double>(unconverged) / windows, 0.9)
            << workload << ": " << unconverged << " of " << r.windowsRun
            << " windows unconverged";
        EXPECT_LE(static_cast<double>(r.epSweepsTotal) / windows, 5.5)
            << workload;
    }
    telemetry::setEnabled(was_enabled);
}

TEST(WindowedInference, WarmPushAllocatesNothing)
{
    // Counts every heap allocation, not only the buffers the growth
    // counters watch.  A session's engine, once warm, copies each
    // slice into its slot, runs EP, writes the posterior rows, trims
    // the bounded history and hands its window records to a reused
    // buffer without allocating.
    constexpr std::size_t kWarm = 96, kCounted = 400;
    const auto uarch = sim::makeX86Skylake();
    const sim::PerfResult run =
        thirteenEventRun(uarch, "KMeans", kWarm + kCounted);
    std::vector<SliceMeasurements> slices(
        kWarm + kCounted, SliceMeasurements(run.monitored.size()));
    for (std::size_t t = 0; t < slices.size(); ++t)
        for (std::size_t i = 0; i < run.monitored.size(); ++i)
            slices[t][i] = run.traces[i].slices[t];

    InferenceConfig cfg;
    cfg.windowSlices = 6;
    cfg.retainSlices = 16;
    WindowedInference engine(uarch, run.monitored, cfg,
                             run.schedule.size());
    std::vector<WindowRecord> windows;
    for (std::size_t t = 0; t < kWarm; ++t) {
        engine.push(slices[t]);
        engine.takeWindows(windows);
    }
    const std::size_t windows_warm = engine.windowsRun();
    const std::size_t base_warm = engine.firstRetainedSlice();
    const std::uint64_t before =
        gOperatorNewCalls.load(std::memory_order_relaxed);
    for (std::size_t t = kWarm; t < slices.size(); ++t) {
        engine.push(slices[t]);
        engine.takeWindows(windows);
    }
    const std::uint64_t allocations =
        gOperatorNewCalls.load(std::memory_order_relaxed) - before;

    EXPECT_EQ(allocations, 0u);
    // The counted pushes ran windows and trimmed the history many
    // times over.
    EXPECT_GE(engine.windowsRun() - windows_warm, kCounted / 3);
    EXPECT_GE(engine.firstRetainedSlice() - base_warm,
              kCounted - 2 * cfg.retainSlices);
    EXPECT_LE(engine.series().front().size(),
              2 * cfg.retainSlices + engine.windowSlices());
}

TEST(Inference, SessionRequiresOpen)
{
    const auto uarch = sim::makeX86Skylake();
    BayesPerfSession session(uarch, {});
    sim::GroundTruthGenerator gen(uarch, wl::makeHibench("Sort"));
    const auto truth = gen.generate(4, 1);
    EXPECT_DEATH((void)session.measure(truth), "open");
}

} // namespace
} // namespace core
} // namespace bperf

/**
 * @file
 * Per-window EP latency of the inference hot path (the ROADMAP's
 * "window solves dominate" item).
 *
 * Three views:
 *   1. End-to-end: µs per window of a realistic streaming run
 *      (13 events, k = 6) for the fast path (rank-1 joint updates +
 *      fused quadrature) against the dense reference
 *      (JointStrategy::DenseResolve, full re-solve per site update)
 *      and the MCMC moment method.
 *   2. Kernel micro-costs: one fused tilted-moment quadrature, one
 *      rank-1 joint update and one full factorization at the
 *      window's joint size.
 *   3. EP op counts per window (sweeps, moment evals, rank-1
 *      updates, full solves) of the fast path, so the µs numbers can
 *      be decomposed.
 *
 * Writes BENCH_ep_window.json into the working directory (the CI
 * bench smoke step uploads it).  BP_QUICK=1 shrinks repetitions.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/ep.h"
#include "core/inference.h"
#include "core/quad_kernel.h"
#include "graph/flush_kernel.h"
#include "sim/ground_truth.h"
#include "sim/perf_session.h"
#include "workloads/hibench.h"

using namespace bperf;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A realistic multiplexed measurement run (13 events). */
sim::PerfResult
makeRun(const sim::MicroarchDescriptor &uarch,
        std::vector<sim::EventId> &monitored, std::size_t num_slices)
{
    for (sim::EventId e : uarch.fixedEvents())
        monitored.push_back(e);
    for (sim::Role r :
         {sim::Role::LlcMiss, sim::Role::L2Miss, sim::Role::L1DMiss,
          sim::Role::Loads, sim::Role::Stores, sim::Role::Branches,
          sim::Role::BranchMisses, sim::Role::StallMem,
          sim::Role::StallTotal, sim::Role::DramBytes})
        monitored.push_back(uarch.idForRole(r));
    const auto workload = wl::makeHibench("KMeans");
    const sim::GroundTruthGenerator generator(uarch, workload);
    const sim::TruthTrace truth = generator.generate(num_slices, 9000);
    sim::PerfSessionConfig cfg;
    cfg.seed = 77;
    sim::PerfSession session(uarch, cfg);
    return session.runRoundRobin(truth, monitored);
}

struct WindowTiming
{
    double usPerWindow = 0.0;
    std::size_t windows = 0;
    std::size_t sweeps = 0;
    /** EP op counts of one full run (decomposes the µs number). */
    std::size_t momentEvals = 0;
    std::size_t rank1Updates = 0;
    std::size_t fullSolves = 0;
    std::size_t blockFlushes = 0;
    /** Buffer growths across the run: ~0 after the first window means
     * the arenas recycle instead of reallocating. */
    std::size_t allocations = 0;
};

WindowTiming
timeConfig(const sim::MicroarchDescriptor &uarch,
           const sim::PerfResult &run, const core::EpConfig &ep,
           std::size_t reps)
{
    core::InferenceConfig cfg;
    cfg.windowSlices = 6;
    cfg.ep = ep;
    const core::InferenceEngine engine(uarch, cfg);

    WindowTiming t;
    double best = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const core::InferenceResult r = engine.infer(run);
        t.windows = r.windowsRun;
        t.sweeps = r.epSweepsTotal;
        t.momentEvals = r.epMomentEvaluations;
        t.rank1Updates = r.epRank1Updates;
        t.fullSolves = r.epFullSolves;
        t.blockFlushes = r.epBlockFlushes;
        t.allocations = r.epWorkspaceAllocations + r.modelAllocations;
        best = std::min(best,
                        1e6 * r.wallSeconds /
                            static_cast<double>(r.windowsRun));
    }
    t.usPerWindow = best;
    return t;
}

} // namespace

int
main()
{
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    const std::size_t reps = bench::quickMode() ? 1 : 5;
    const std::size_t num_slices = bench::quickMode() ? 24 : 96;

    std::vector<sim::EventId> monitored;
    const sim::PerfResult run = makeRun(uarch, monitored, num_slices);

    // ------------------------------------------------ end-to-end paths
    core::EpConfig ep_fast; // blocked + SIMD quadrature defaults
    const WindowTiming fast = timeConfig(uarch, run, ep_fast, reps);

    core::EpConfig ep_scalar = ep_fast;
    ep_scalar.simdQuadrature = false;
    const WindowTiming scalar = timeConfig(uarch, run, ep_scalar, reps);

    core::EpConfig ep_dense;
    ep_dense.jointStrategy = core::JointStrategy::DenseResolve;
    const WindowTiming dense = timeConfig(uarch, run, ep_dense, reps);

    core::EpConfig ep_mcmc;
    ep_mcmc.method = core::MomentMethod::Mcmc;
    const WindowTiming fast_mcmc = timeConfig(uarch, run, ep_mcmc, reps);

    TablePrinter table({"config", "us/window", "windows", "sweeps",
                        "speedup vs dense"});
    table.addRow("blocked + SIMD quadrature",
                 {fast.usPerWindow, static_cast<double>(fast.windows),
                  static_cast<double>(fast.sweeps),
                  dense.usPerWindow / fast.usPerWindow});
    table.addRow("blocked + scalar quadrature",
                 {scalar.usPerWindow,
                  static_cast<double>(scalar.windows),
                  static_cast<double>(scalar.sweeps),
                  dense.usPerWindow / scalar.usPerWindow});
    table.addRow("dense re-solve reference",
                 {dense.usPerWindow, static_cast<double>(dense.windows),
                  static_cast<double>(dense.sweeps), 1.0});
    table.addRow("rank-1 + MCMC moments",
                 {fast_mcmc.usPerWindow,
                  static_cast<double>(fast_mcmc.windows),
                  static_cast<double>(fast_mcmc.sweeps),
                  dense.usPerWindow / fast_mcmc.usPerWindow});

    std::cout << "\nPer-window EP latency (" << monitored.size()
              << " events, k=6, " << num_slices << " slices, quadrature "
              << core::activeQuadKernelName() << "):\n";
    table.print(std::cout);

    const double w = static_cast<double>(fast.windows ? fast.windows : 1);
    std::cout << "\nFast-path ops per window: " << fast.sweeps / w
              << " sweeps, " << fast.momentEvals / w << " moment evals, "
              << fast.rank1Updates / w << " rank-1 updates, "
              << fast.fullSolves / w << " full solves, "
              << fast.blockFlushes / w << " block flushes; "
              << fast.allocations << " buffer growths total\n";

    // ------------------------------------------------- kernel micro-costs
    const std::size_t quad_iters = bench::quickMode() ? 20000 : 200000;
    double m = 0.0, v = 0.0, sink = 0.0;
    double t0 = now();
    for (std::size_t i = 0; i < quad_iters; ++i) {
        core::tiltedMomentsQuadrature(100.0 + (i % 7), 25.0, 103.0, 4.0,
                                      3.0, 129, m, v);
        sink += m;
    }
    const double quad_us = 1e6 * (now() - t0) / quad_iters;

    const std::size_t n = monitored.size() * 6;
    graph::FactorGraph g;
    for (std::size_t i = 0; i < n; ++i)
        g.addVariable(100.0);
    for (std::size_t i = 0; i < n; ++i)
        g.addGaussianPrior(static_cast<graph::VarId>(i), 100.0, 30.0);
    for (std::size_t i = 0; i + 1 < n; ++i)
        g.addLinearGaussian({{static_cast<graph::VarId>(i), 1.0},
                             {static_cast<graph::VarId>(i + 1), -1.0}},
                            0.0, 10.0);
    graph::GaussianSolver solver(g);
    graph::GaussianJoint joint;
    graph::SolverScratch scratch;
    solver.solveInto({}, joint, scratch);

    // Blocked site updates as EP issues them, flushes included.  Each
    // moves a marginal precision by 1%, up on even passes over the
    // variables and down on odd ones, so the joint stays near its
    // start.
    const std::size_t r1_iters = bench::quickMode() ? 5000 : 50000;
    {
        graph::BlockedJointUpdater updater(joint, scratch,
                                           core::kEpBlockSize);
        t0 = now();
        for (std::size_t i = 0; i < r1_iters; ++i) {
            const auto v = static_cast<graph::VarId>(i % n);
            const double sign = (i / n) % 2 == 0 ? 1.0 : -1.0;
            if (!updater.push(v, sign * 0.01 / updater.marginalVariance(v),
                              0.0))
                bp_panic("bench site update refused");
        }
        updater.flush();
    }
    const double rank1_us = 1e6 * (now() - t0) / r1_iters;

    const std::size_t solve_iters = bench::quickMode() ? 200 : 2000;
    t0 = now();
    for (std::size_t i = 0; i < solve_iters; ++i)
        solver.solveInto({}, joint, scratch);
    const double solve_us = 1e6 * (now() - t0) / solve_iters;

    std::cout << "\nKernel micro-costs at n=" << n << ":\n"
              << "  fused quadrature (129 pts): " << quad_us << " us\n"
              << "  blocked joint update:       " << rank1_us << " us\n"
              << "  full factorization:         " << solve_us << " us\n"
              << "  (sink " << sink << ")\n";

    // ------------------------------------------------------ JSON output
    bench::JsonWriter json;
    json.beginObject()
        .field("events", monitored.size())
        .field("window_slices", 6)
        .field("joint_size", n)
        .field("quad_kernel", core::activeQuadKernelName())
        .field("flush_kernel", graph::activeFlushKernelName())
        .field("block_size", core::kEpBlockSize)
        .field("us_per_window_fast", fast.usPerWindow)
        .field("us_per_window_scalar", scalar.usPerWindow)
        .field("us_per_window_dense", dense.usPerWindow)
        .field("us_per_window_mcmc", fast_mcmc.usPerWindow)
        .field("speedup_fast_vs_dense",
               dense.usPerWindow / fast.usPerWindow)
        .field("speedup_simd_vs_scalar",
               scalar.usPerWindow / fast.usPerWindow)
        .field("sweeps_per_window", fast.sweeps / w)
        .field("moment_evals_per_window", fast.momentEvals / w)
        .field("rank1_updates_per_window", fast.rank1Updates / w)
        .field("full_solves_per_window", fast.fullSolves / w)
        .field("block_flushes_per_window", fast.blockFlushes / w)
        .field("buffer_growths", fast.allocations)
        .field("quadrature_us", quad_us)
        .field("rank1_update_us", rank1_us)
        .field("full_solve_us", solve_us)
        .endObject();
    if (!json.writeFile("BENCH_ep_window.json")) {
        std::cerr << "failed to write BENCH_ep_window.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_ep_window.json\n";
    return 0;
}

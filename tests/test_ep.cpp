/**
 * @file
 * Tests for Expectation Propagation: tilted-moment computation,
 * agreement with exact Gaussian inference, robustness behaviour.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/ep.h"
#include "common/rng.h"
#include "common/stats.h"
#include "graph/exact.h"

namespace bperf {
namespace core {
namespace {

using graph::FactorGraph;

TEST(TiltedMoments, GaussianLikelihoodIsExact)
{
    // With nu large the Student-t is essentially Gaussian, and the
    // tilted moments have a closed form.
    const double cav_mean = 1.0, cav_var = 4.0;
    const double loc = 3.0, scale = 1.0, nu = 1e6;
    double m, v;
    tiltedMomentsQuadrature(cav_mean, cav_var, loc, scale, nu, 401, m, v);

    const double lam = 1.0 / cav_var + 1.0 / (scale * scale);
    const double expected_mean =
        (cav_mean / cav_var + loc / (scale * scale)) / lam;
    const double expected_var = 1.0 / lam;
    EXPECT_NEAR(m, expected_mean, 1e-3);
    EXPECT_NEAR(v, expected_var, 1e-3);
}

TEST(TiltedMoments, McmcMatchesQuadrature)
{
    const double cav_mean = 2.0, cav_var = 1.0;
    const double loc = 0.0, scale = 0.5, nu = 4.0;
    double mq, vq, mm, vm;
    tiltedMomentsQuadrature(cav_mean, cav_var, loc, scale, nu, 401, mq, vq);
    tiltedMomentsMcmc(cav_mean, cav_var, loc, scale, nu, 20000, 2000, 13,
                      mm, vm);
    EXPECT_NEAR(mm, mq, 0.05 * std::sqrt(vq) * 3.0);
    EXPECT_NEAR(vm, vq, 0.2 * vq);
}

TEST(TiltedMoments, GaussianLimitAcrossScales)
{
    // nu -> infinity: the Student-t degenerates to a Gaussian and the
    // tilted moments have the conjugate closed form.  Sweep scales
    // spanning the five orders of magnitude real counters cover.
    const double nu = 1e8;
    struct Case
    {
        double cm, cv, loc, scale;
    } cases[] = {
        {1.0, 4.0, 3.0, 1.0},
        {1e9, 1e16, 1.2e9, 5e7},
        {-2.0, 0.25, -1.5, 2.0},
        {3e4, 9e6, 2.8e4, 1.5e3},
    };
    for (const Case &c : cases) {
        double m, v;
        tiltedMomentsQuadrature(c.cm, c.cv, c.loc, c.scale, nu, 801, m, v);
        const double lam = 1.0 / c.cv + 1.0 / (c.scale * c.scale);
        const double expected_mean =
            (c.cm / c.cv + c.loc / (c.scale * c.scale)) / lam;
        const double expected_var = 1.0 / lam;
        EXPECT_NEAR(m, expected_mean, 2e-3 * std::sqrt(expected_var));
        EXPECT_NEAR(v, expected_var, 2e-3 * expected_var);
    }
}

/**
 * The pre-rewrite reference: two passes over a materialized
 * log-weight buffer, with the full (constant-carrying) log-densities.
 * The fused single-pass loop must reproduce it.
 */
void
tiltedMomentsTwoPassReference(double cavity_mean, double cavity_var,
                              double loc, double scale, double nu,
                              std::size_t points, double &mean_out,
                              double &var_out)
{
    const double cavity_sd = std::sqrt(cavity_var);
    const double lo =
        std::min(cavity_mean - 8.0 * cavity_sd, loc - 10.0 * scale);
    const double hi =
        std::max(cavity_mean + 8.0 * cavity_sd, loc + 10.0 * scale);
    const double step = (hi - lo) / static_cast<double>(points - 1);

    std::vector<double> logw(points);
    double max_logw = -1e300;
    for (std::size_t i = 0; i < points; ++i) {
        const double x = lo + step * static_cast<double>(i);
        logw[i] = normalLogPdf(x, cavity_mean, cavity_sd) +
                  studentTLogPdf(x, nu, loc, scale);
        max_logw = std::max(max_logw, logw[i]);
    }
    double z = 0.0, m1 = 0.0, m2 = 0.0;
    for (std::size_t i = 0; i < points; ++i) {
        const double x = lo + step * static_cast<double>(i);
        const double w = std::exp(logw[i] - max_logw);
        z += w;
        m1 += w * x;
        m2 += w * x * x;
    }
    mean_out = m1 / z;
    var_out = std::max(m2 / z - mean_out * mean_out, 1e-30);
}

TEST(TiltedMoments, FusedLoopMatchesTwoPassReference)
{
    struct Case
    {
        double cm, cv, loc, scale, nu;
    } cases[] = {
        {2.0, 1.0, 0.0, 0.5, 4.0},    // overlapping, heavy tail
        {0.0, 1.0, 50.0, 1.0, 3.0},   // far outlier (skip path hot)
        {1e9, 1e16, 9.5e8, 2e7, 30.0},// counter magnitudes
        {5.0, 100.0, 5.0, 0.01, 3.0}, // likelihood much tighter
        {-3.0, 0.04, -2.9, 5.0, 2.0}, // cavity much tighter, nu <= 2
    };
    for (const Case &c : cases) {
        for (std::size_t points : {129u, 257u}) {
            double mf, vf, mr, vr;
            tiltedMomentsQuadrature(c.cm, c.cv, c.loc, c.scale, c.nu,
                                    points, mf, vf);
            tiltedMomentsTwoPassReference(c.cm, c.cv, c.loc, c.scale,
                                          c.nu, points, mr, vr);
            // Dropping the shared density constants must be invisible
            // at double precision.  The variance bound carries an
            // extra eps * mean^2 term: this naive reference computes
            // m2/z - mean^2 in raw coordinates, so *its* result loses
            // up to eps * mean^2 to cancellation — error the centered
            // production kernel no longer makes.
            EXPECT_NEAR(mf, mr, 1e-9 * (std::abs(mr) + std::sqrt(vr)))
                << "points=" << points;
            EXPECT_NEAR(vf, vr, 1e-9 * vr + 1e-14 * mr * mr)
                << "points=" << points;
        }
    }
}

TEST(TiltedMoments, HeavyTailRejectsOutlier)
{
    // A Student-t likelihood far from a tight cavity should barely
    // move the posterior (robustness), unlike a Gaussian would.
    double m, v;
    tiltedMomentsQuadrature(0.0, 1.0, 50.0, 1.0, 3.0, 801, m, v);
    EXPECT_LT(std::abs(m), 1.0);
}

/** Build a small chain graph with Student-t measurements. */
FactorGraph
makeChain(double nu)
{
    FactorGraph g;
    const auto a = g.addVariable(10.0);
    const auto b = g.addVariable(10.0);
    const auto c = g.addVariable(10.0);
    g.addGaussianPrior(a, 10.0, 20.0);
    g.addGaussianPrior(b, 10.0, 20.0);
    g.addGaussianPrior(c, 10.0, 20.0);
    // a + b = c (tight linear invariant).
    g.addLinearGaussian({{a, 1.0}, {b, 1.0}, {c, -1.0}}, 0.0, 0.01);
    g.addStudentT(a, 4.0, 1.0, nu);
    g.addStudentT(b, 6.0, 1.0, nu);
    g.addStudentT(c, 11.0, 1.0, nu);
    return g;
}

TEST(ExpectationPropagation, MatchesExactGaussianInference)
{
    // With nu large, Student-t factors are Gaussian and EP must agree
    // with the exact information-form solve.
    FactorGraph g = makeChain(1e6);

    EpConfig cfg;
    cfg.maxSweeps = 30;
    cfg.tolerance = 1e-9;
    ExpectationPropagation ep(cfg);
    const EpResult result = ep.run(g);
    EXPECT_TRUE(result.converged);

    // Exact: treat the t factors as Gaussian priors.
    FactorGraph ge;
    const auto a = ge.addVariable(10.0);
    const auto b = ge.addVariable(10.0);
    const auto c = ge.addVariable(10.0);
    ge.addGaussianPrior(a, 10.0, 20.0);
    ge.addGaussianPrior(b, 10.0, 20.0);
    ge.addGaussianPrior(c, 10.0, 20.0);
    ge.addLinearGaussian({{a, 1.0}, {b, 1.0}, {c, -1.0}}, 0.0, 0.01);
    ge.addGaussianPrior(a, 4.0, 1.0);
    ge.addGaussianPrior(b, 6.0, 1.0);
    ge.addGaussianPrior(c, 11.0, 1.0);
    graph::GaussianSolver solver(ge);
    const graph::GaussianJoint exact = solver.solve();

    for (std::size_t v = 0; v < 3; ++v) {
        EXPECT_NEAR(result.mean[v], exact.mean[v], 5e-3)
            << "variable " << v;
        EXPECT_NEAR(result.stddev[v],
                    std::sqrt(exact.covariance(v, v)), 5e-3)
            << "variable " << v;
    }
}

TEST(ExpectationPropagation, InvariantPullsEstimatesTogether)
{
    // Conflicting measurements + a tight invariant: the posterior
    // must satisfy a + b ≈ c much better than the raw measurements.
    FactorGraph g = makeChain(5.0);
    ExpectationPropagation ep;
    const EpResult r = ep.run(g);
    const double residual = r.mean[0] + r.mean[1] - r.mean[2];
    EXPECT_LT(std::abs(residual), 0.2);
}

TEST(ExpectationPropagation, McmcPathAgreesWithQuadrature)
{
    FactorGraph g = makeChain(5.0);

    EpConfig cq;
    cq.method = MomentMethod::Quadrature;
    const EpResult rq = ExpectationPropagation(cq).run(g);

    EpConfig cm;
    cm.method = MomentMethod::Mcmc;
    cm.mcmcSamples = 4000;
    cm.mcmcBurnin = 500;
    const EpResult rm = ExpectationPropagation(cm).run(g);

    for (std::size_t v = 0; v < 3; ++v)
        EXPECT_NEAR(rm.mean[v], rq.mean[v], 0.25) << "variable " << v;
}

TEST(ExpectationPropagation, WorkspaceReuseIsAllocationFree)
{
    FactorGraph g = makeChain(5.0);
    EpWorkspace ws;
    ExpectationPropagation ep;
    const EpResult first = ep.run(g, ws);
    EXPECT_GT(first.workspaceAllocations, 0u);
    for (int i = 0; i < 3; ++i) {
        // Same graph shape, warm workspace: no buffer growth, and the
        // posterior is bitwise reproducible.
        const EpResult again = ep.run(g, ws);
        EXPECT_EQ(again.workspaceAllocations, 0u);
        for (std::size_t v = 0; v < 3; ++v) {
            EXPECT_DOUBLE_EQ(again.mean[v], first.mean[v]);
            EXPECT_DOUBLE_EQ(again.stddev[v], first.stddev[v]);
        }
    }
    EXPECT_EQ(ws.runs(), 4u);
}

TEST(ExpectationPropagation, Rank1UpdatesMatchDenseResolve)
{
    for (double nu : {3.0, 5.0, 1e6}) {
        FactorGraph g = makeChain(nu);
        EpConfig fast;
        fast.jointStrategy = JointStrategy::Rank1;
        EpConfig dense;
        dense.jointStrategy = JointStrategy::DenseResolve;
        const EpResult rf = ExpectationPropagation(fast).run(g);
        const EpResult rd = ExpectationPropagation(dense).run(g);
        EXPECT_GT(rf.rank1Updates, 0u);
        EXPECT_EQ(rd.rank1Updates, 0u);
        // Sweep counts may differ by one when a sweep's movement sits
        // at the tolerance boundary; the posteriors must still agree.
        EXPECT_NEAR(static_cast<double>(rf.sweeps),
                    static_cast<double>(rd.sweeps), 1.0)
            << "nu=" << nu;
        for (std::size_t v = 0; v < 3; ++v) {
            EXPECT_NEAR(rf.mean[v], rd.mean[v],
                        1e-6 * std::abs(rd.mean[v]) + 1e-9)
                << "nu=" << nu << " var " << v;
            EXPECT_NEAR(rf.stddev[v], rd.stddev[v],
                        1e-6 * rd.stddev[v] + 1e-12)
                << "nu=" << nu << " var " << v;
        }
    }
}

TEST(ExpectationPropagation, UnbiasedUnderSymmetricNoise)
{
    // Repeatedly infer a single variable from noisy measurements:
    // the average posterior mean must track the true value, not sit
    // below it (regression test for multiplicative-noise bias).
    Rng rng(99);
    const double truth = 100.0;
    double sum = 0.0;
    const int trials = 60;
    for (int trial = 0; trial < trials; ++trial) {
        FactorGraph g;
        const auto x = g.addVariable(100.0);
        g.addGaussianPrior(x, 100.0, 400.0);
        for (int i = 0; i < 3; ++i) {
            const double m = truth * (1.0 + 0.3 * rng.normal());
            g.addStudentT(x, m, 30.0, 3.0);
        }
        const EpResult r = ExpectationPropagation().run(g);
        sum += r.mean[0];
    }
    const double avg = sum / trials;
    EXPECT_NEAR(avg, truth, 8.0);
}

} // namespace
} // namespace core
} // namespace bperf

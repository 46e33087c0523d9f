/** @file Tests for the factor graph, Gaussians, and exact inference. */

#include <cmath>

#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "graph/exact.h"
#include "graph/factor_graph.h"
#include "graph/flush_kernel.h"
#include "graph/gaussian.h"

namespace bperf {
namespace graph {
namespace {

TEST(Gaussian, MomentRoundTrip)
{
    const Gaussian g = Gaussian::fromMeanVar(3.0, 4.0);
    EXPECT_DOUBLE_EQ(g.mean(), 3.0);
    EXPECT_DOUBLE_EQ(g.variance(), 4.0);
}

TEST(Gaussian, ProductIsPrecisionWeighted)
{
    const Gaussian a = Gaussian::fromMeanVar(0.0, 1.0);
    const Gaussian b = Gaussian::fromMeanVar(10.0, 1.0);
    const Gaussian p = a * b;
    EXPECT_DOUBLE_EQ(p.mean(), 5.0);
    EXPECT_DOUBLE_EQ(p.variance(), 0.5);
}

TEST(Gaussian, DivisionInvertsProduct)
{
    const Gaussian a = Gaussian::fromMeanVar(2.0, 3.0);
    const Gaussian b = Gaussian::fromMeanVar(-1.0, 5.0);
    const Gaussian back = (a * b) / b;
    EXPECT_NEAR(back.mean(), a.mean(), 1e-12);
    EXPECT_NEAR(back.variance(), a.variance(), 1e-12);
}

TEST(Gaussian, FlatIsIdentity)
{
    const Gaussian a = Gaussian::fromMeanVar(2.0, 3.0);
    const Gaussian p = a * Gaussian::flat();
    EXPECT_DOUBLE_EQ(p.mean(), 2.0);
    EXPECT_FALSE(Gaussian::flat().isProper());
}

FactorGraph
chainGraph()
{
    // a - f1 - b - f2 - c, plus d isolated-ish via f3(d, a).
    FactorGraph g;
    const auto a = g.addVariable(1.0);
    const auto b = g.addVariable(1.0);
    const auto c = g.addVariable(1.0);
    const auto d = g.addVariable(1.0);
    g.addLinearGaussian({{a, 1.0}, {b, -1.0}}, 0.0, 1.0);
    g.addLinearGaussian({{b, 1.0}, {c, -1.0}}, 0.0, 1.0);
    g.addLinearGaussian({{d, 1.0}, {a, -1.0}}, 0.0, 1.0);
    return g;
}

TEST(FactorGraph, MarkovBlanketIsFactorNeighbours)
{
    const FactorGraph g = chainGraph();
    EXPECT_EQ(g.markovBlanket(0), (std::set<VarId>{1, 3})); // a: b, d
    EXPECT_EQ(g.markovBlanket(1), (std::set<VarId>{0, 2})); // b: a, c
    EXPECT_EQ(g.markovBlanket(3), (std::set<VarId>{0}));    // d: a
}

TEST(FactorGraph, BlanketOfSetExcludesSet)
{
    const FactorGraph g = chainGraph();
    const auto blanket = g.markovBlanketOfSet({0, 1});
    EXPECT_EQ(blanket, (std::set<VarId>{2, 3}));
}

TEST(FactorGraph, ShortestPathFollowsChain)
{
    const FactorGraph g = chainGraph();
    EXPECT_EQ(g.shortestPath(3, 2), (std::vector<VarId>{3, 0, 1, 2}));
    EXPECT_EQ(g.shortestPath(1, 1), (std::vector<VarId>{1}));
}

TEST(FactorGraph, DisconnectedPathIsEmpty)
{
    FactorGraph g;
    g.addVariable(1.0);
    g.addVariable(1.0);
    EXPECT_TRUE(g.shortestPath(0, 1).empty());
}

TEST(FactorGraph, BlanketCollectsEveryFactorOfAVariable)
{
    // a sits in a prior, a three-term factor, a measurement and a
    // two-term factor; the factor on (c, e) does not touch it.
    FactorGraph g;
    const VarId a = g.addVariable(1.0);
    const VarId b = g.addVariable(1.0);
    const VarId c = g.addVariable(1.0);
    const VarId d = g.addVariable(1.0);
    const VarId e = g.addVariable(1.0);
    g.addGaussianPrior(a, 0.0, 1.0);
    g.addLinearGaussian({{a, 1.0}, {b, 1.0}, {c, -1.0}}, 0.0, 1.0);
    g.addStudentT(a, 1.0, 1.0, 3.0);
    g.addLinearGaussian({{c, 1.0}, {e, -1.0}}, 0.0, 1.0);
    g.addLinearGaussian({{d, 1.0}, {a, -1.0}}, 0.0, 1.0);

    EXPECT_EQ(g.markovBlanket(a), (std::set<VarId>{b, c, d}));
    EXPECT_EQ(g.markovBlanket(c), (std::set<VarId>{a, b, e}));
    EXPECT_EQ(g.markovBlanketOfSet({a, c}), (std::set<VarId>{b, d, e}));
}

TEST(FactorGraph, ShortestPathTieGoesToEarlierFactor)
{
    // Two paths of length 2 from s to t: through u (the lower id) and
    // through w.  The one whose first factor was inserted first wins,
    // whatever the variable ids.
    auto path = [](bool w_first) {
        FactorGraph g;
        const VarId s = g.addVariable(1.0);
        const VarId t = g.addVariable(1.0);
        const VarId u = g.addVariable(1.0);
        const VarId w = g.addVariable(1.0);
        const VarId first = w_first ? w : u;
        const VarId second = w_first ? u : w;
        g.addLinearGaussian({{s, 1.0}, {first, -1.0}}, 0.0, 1.0);
        g.addLinearGaussian({{s, 1.0}, {second, -1.0}}, 0.0, 1.0);
        g.addLinearGaussian({{u, 1.0}, {t, -1.0}}, 0.0, 1.0);
        g.addLinearGaussian({{w, 1.0}, {t, -1.0}}, 0.0, 1.0);
        return g.shortestPath(s, t);
    };
    EXPECT_EQ(path(true), (std::vector<VarId>{0, 3, 1}));  // s, w, t
    EXPECT_EQ(path(false), (std::vector<VarId>{0, 2, 1})); // s, u, t
}

TEST(GaussianSolver, SingleVariablePosterior)
{
    // Prior N(0, 1), Gaussian observation N(4, 1) -> posterior N(2, 0.5).
    FactorGraph g;
    const auto x = g.addVariable(1.0);
    g.addGaussianPrior(x, 0.0, 1.0);
    g.addGaussianPrior(x, 4.0, 1.0);
    const auto joint = GaussianSolver(g).solve();
    EXPECT_NEAR(joint.mean[0], 2.0, 1e-9);
    EXPECT_NEAR(joint.covariance(0, 0), 0.5, 1e-9);
}

TEST(GaussianSolver, LinearConstraintCouplesVariables)
{
    // x ~ N(0, 1), y ~ N(10, 1), constraint x = y (tight):
    // both posteriors -> 5 with strong correlation.
    FactorGraph g;
    const auto x = g.addVariable(1.0);
    const auto y = g.addVariable(1.0);
    g.addGaussianPrior(x, 0.0, 1.0);
    g.addGaussianPrior(y, 10.0, 1.0);
    g.addLinearGaussian({{x, 1.0}, {y, -1.0}}, 0.0, 1e-4);
    const auto joint = GaussianSolver(g).solve();
    EXPECT_NEAR(joint.mean[0], 5.0, 1e-3);
    EXPECT_NEAR(joint.mean[1], 5.0, 1e-3);
    const double corr =
        joint.covariance(0, 1) /
        std::sqrt(joint.covariance(0, 0) * joint.covariance(1, 1));
    EXPECT_GT(corr, 0.99);
}

TEST(GaussianSolver, ScaleHintsDoNotChangeAnswer)
{
    // The same model expressed with very different scale hints must
    // produce identical posteriors (hints only precondition).
    auto build = [](double hint) {
        FactorGraph g;
        const auto x = g.addVariable(hint);
        const auto y = g.addVariable(hint * 100.0);
        g.addGaussianPrior(x, 1.0e6, 1.0e6);
        g.addGaussianPrior(y, 2.0e6, 1.0e6);
        g.addLinearGaussian({{x, 1.0}, {y, -0.5}}, 0.0, 1e3);
        return GaussianSolver(g).solve();
    };
    const auto a = build(4.0e5);
    const auto b = build(2.0e6);
    EXPECT_NEAR(a.mean[0], b.mean[0], 1e-3 * std::abs(a.mean[0]));
    EXPECT_NEAR(a.covariance(0, 0), b.covariance(0, 0),
                1e-3 * a.covariance(0, 0));
}

TEST(GaussianSolver, SitesActAsExtraPriors)
{
    FactorGraph g;
    const auto x = g.addVariable(1.0);
    g.addGaussianPrior(x, 0.0, 1.0);
    std::vector<Gaussian> sites{Gaussian::fromMeanVar(4.0, 1.0)};
    const auto joint = GaussianSolver(g).solve(sites);
    EXPECT_NEAR(joint.mean[0], 2.0, 1e-9);
}

TEST(GaussianSolver, OffsetShiftsSolution)
{
    // x - 3 ~ N(0, small) -> x = 3.
    FactorGraph g;
    const auto x = g.addVariable(1.0);
    g.addGaussianPrior(x, 0.0, 100.0);
    g.addLinearGaussian({{x, 1.0}}, -3.0, 1e-3);
    const auto joint = GaussianSolver(g).solve();
    EXPECT_NEAR(joint.mean[0], 3.0, 1e-3);
}

TEST(GaussianSolver, DetectsNonGaussianFactors)
{
    FactorGraph g;
    const auto x = g.addVariable(1.0);
    g.addGaussianPrior(x, 0.0, 1.0);
    GaussianSolver s1(g);
    EXPECT_FALSE(s1.hasNonGaussianFactors());
    g.addStudentT(x, 1.0, 1.0, 3.0);
    GaussianSolver s2(g);
    EXPECT_TRUE(s2.hasNonGaussianFactors());
}

TEST(FactorGraph, FactorsOfKindTracksInsertionOrder)
{
    FactorGraph g;
    const VarId a = g.addVariable(1.0);
    const VarId b = g.addVariable(1.0);
    const FactorId p = g.addGaussianPrior(a, 0.0, 1.0);
    const FactorId m = g.addStudentT(a, 0.0, 1.0, 3.0);
    const FactorId l =
        g.addLinearGaussian({{a, 1.0}, {b, -1.0}}, 0.0, 1.0);
    const FactorId m2 = g.addStudentT(b, 1.0, 1.0, 3.0);

    EXPECT_EQ(g.factorsOfKind(FactorKind::GaussianPrior),
              std::vector<FactorId>{p});
    EXPECT_EQ(g.factorsOfKind(FactorKind::LinearGaussian),
              std::vector<FactorId>{l});
    EXPECT_EQ(g.factorsOfKind(FactorKind::StudentT),
              (std::vector<FactorId>{m, m2}));
}

TEST(GaussianSolver, SolveIntoReusesBuffersAcrossSolves)
{
    FactorGraph g;
    const VarId a = g.addVariable(10.0);
    const VarId b = g.addVariable(10.0);
    g.addGaussianPrior(a, 5.0, 2.0);
    g.addGaussianPrior(b, 7.0, 2.0);
    g.addLinearGaussian({{a, 1.0}, {b, -1.0}}, 0.0, 1.0);

    GaussianSolver solver(g);
    GaussianJoint joint;
    SolverScratch scratch;
    solver.solveInto({}, joint, scratch);
    const std::size_t grows = scratch.grows + solver.bufferGrows();
    EXPECT_GT(grows, 0u);

    const GaussianJoint fresh = solver.solve();
    for (int i = 0; i < 3; ++i)
        solver.solveInto({}, joint, scratch);
    EXPECT_EQ(scratch.grows + solver.bufferGrows(), grows);
    for (std::size_t v = 0; v < 2; ++v) {
        EXPECT_DOUBLE_EQ(joint.mean[v], fresh.mean[v]);
        EXPECT_DOUBLE_EQ(joint.covariance(v, v),
                         fresh.covariance(v, v));
    }
}

TEST(BlockedJointUpdater, MatchesFullResolveAtEveryBlockSize)
{
    FactorGraph g;
    const VarId a = g.addVariable(10.0);
    const VarId b = g.addVariable(1000.0);
    const VarId c = g.addVariable(0.1);
    g.addGaussianPrior(a, 12.0, 4.0);
    g.addGaussianPrior(b, 900.0, 300.0);
    g.addGaussianPrior(c, 0.09, 0.05);
    g.addLinearGaussian({{a, 100.0}, {b, -1.0}}, 0.0, 50.0);
    g.addLinearGaussian({{b, 1.0}, {c, -1e4}}, 0.0, 80.0);
    GaussianSolver solver(g);

    // A chain of site changes (updates and downdates); re-solving from
    // the final site values must agree whether the changes flush one
    // at a time, mid-chain or only at the end.
    struct Change
    {
        VarId v;
        double mean, var;
    } changes[] = {
        {a, 10.0, 4.0}, {b, 950.0, 1e4}, {c, 0.11, 0.004},
        {a, 12.5, 16.0}, // downdate on a
    };
    for (std::size_t block : {1u, 3u, 8u}) {
        std::vector<Gaussian> sites(3, Gaussian::flat());
        sites[a] = Gaussian::fromMeanVar(11.0, 9.0);
        sites[c] = Gaussian::fromMeanVar(0.1, 0.01);
        GaussianJoint joint;
        SolverScratch scratch;
        solver.solveInto(sites, joint, scratch);

        BlockedJointUpdater updater(joint, scratch, block);
        for (const Change &ch : changes) {
            const Gaussian next = Gaussian::fromMeanVar(ch.mean, ch.var);
            const Gaussian delta = next / sites[ch.v];
            ASSERT_TRUE(updater.push(ch.v, delta.lambda, delta.eta))
                << "block " << block;
            sites[ch.v] = next;
        }

        GaussianJoint resolved;
        SolverScratch resolve_scratch;
        solver.solveInto(sites, resolved, resolve_scratch);
        // Marginals see the pending updates before they are flushed.
        for (std::size_t v = 0; v < 3; ++v)
            EXPECT_NEAR(updater.marginalVariance(static_cast<VarId>(v)),
                        resolved.covariance(v, v),
                        1e-9 * resolved.covariance(v, v))
                << "block " << block << " var " << v;
        updater.flush();
        EXPECT_EQ(updater.pending(), 0u);
        for (std::size_t v = 0; v < 3; ++v) {
            EXPECT_NEAR(joint.mean[v], resolved.mean[v],
                        1e-9 * std::abs(resolved.mean[v]))
                << "block " << block << " var " << v;
            // The updater maintains the lower triangle (see header).
            for (std::size_t u = 0; u <= v; ++u)
                EXPECT_NEAR(joint.covariance(v, u),
                            resolved.covariance(v, u),
                            1e-9 * std::sqrt(resolved.covariance(v, v) *
                                             resolved.covariance(u, u)))
                    << "block " << block << " cov(" << v << ", " << u
                    << ")";
        }
    }
}

TEST(BlockedJointUpdater, RefusesIllConditionedUpdates)
{
    FactorGraph g;
    const VarId a = g.addVariable(1.0);
    g.addGaussianPrior(a, 0.0, 1.0);
    GaussianSolver solver(g);

    for (std::size_t block : {1u, 3u, 8u}) {
        std::vector<Gaussian> sites(1, Gaussian::fromMeanVar(0.5, 1e-4));
        GaussianJoint joint;
        SolverScratch scratch;
        solver.solveInto(sites, joint, scratch);
        const double var_before = joint.covariance(a, a);
        const double mean_before = joint.mean[a];

        BlockedJointUpdater updater(joint, scratch, block);
        // Removing (almost) the entire site precision would amplify the
        // joint ~1e4x: the guard must refuse and leave everything intact.
        EXPECT_FALSE(updater.push(a, -sites[a].lambda * 0.9999, 0.0))
            << "block " << block;
        // A huge precision *increase* is refused too (cancellation guard).
        EXPECT_FALSE(updater.push(a, 1e9 / var_before, 0.0))
            << "block " << block;
        EXPECT_EQ(updater.pending(), 0u);
        updater.flush();
        EXPECT_EQ(joint.covariance(a, a), var_before) << "block " << block;
        EXPECT_EQ(joint.mean[a], mean_before) << "block " << block;
    }
}

/** A random flush input: one zero coefficient and pending columns with
 * zero entries, so both of the kernels' skip paths run. */
struct FlushInput
{
    std::vector<double> cov, W, C;
};

FlushInput
randomFlushInput(std::size_t n, Rng &rng)
{
    constexpr std::size_t kPending = 6;
    FlushInput in{std::vector<double>(n * n),
                  std::vector<double>(kPending * n),
                  std::vector<double>(kPending)};
    for (double &x : in.cov)
        x = rng.normal();
    for (double &x : in.W)
        x = rng.normal();
    for (double &x : in.C)
        x = rng.normal();
    in.C[2] = 0.0;
    for (std::size_t r = 0; r < n; r += 3)
        in.W[4 * n + r] = 0.0;
    return in;
}

TEST(FlushKernel, Avx2BitIdenticalToScalar)
{
#if defined(BPERF_SIMD) && defined(__x86_64__)
    if (!cpuHasAvx2Fma())
        GTEST_SKIP() << "CPU without AVX2";
    Rng rng(31);
    // Sizes off the kernels' 4- and 16-element chunks.
    for (std::size_t n : {1u, 7u, 37u, 50u}) {
        const FlushInput in = randomFlushInput(n, rng);
        std::vector<double> scalar = in.cov, simd = in.cov;
        flushScalar(scalar.data(), n, in.W.data(), in.C.data(),
                    in.C.size());
        flushAvx2(simd.data(), n, in.W.data(), in.C.data(), in.C.size());
        for (std::size_t i = 0; i < n * n; ++i)
            EXPECT_EQ(simd[i], scalar[i]) << "n=" << n << " entry " << i;
    }
#else
    GTEST_SKIP() << "AVX2 flush not compiled in";
#endif
}

TEST(FlushKernel, ScalarMatchesOneUpdateAtATime)
{
#if defined(__x86_64__) && !defined(__FMA__)
    // Baseline x86-64 has no FMA, so the reference loop below rounds
    // each multiply and subtract separately, as the kernels do.
    Rng rng(37);
    for (std::size_t n : {1u, 7u, 37u}) {
        const FlushInput in = randomFlushInput(n, rng);
        std::vector<double> kernel = in.cov, reference = in.cov;
        flushScalar(kernel.data(), n, in.W.data(), in.C.data(),
                    in.C.size());
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t i = 0; i < in.C.size(); ++i) {
                const double a = in.C[i] * in.W[i * n + r];
                if (a == 0.0)
                    continue;
                for (std::size_t k = 0; k <= r; ++k)
                    reference[r * n + k] -= a * in.W[i * n + k];
            }
        for (std::size_t i = 0; i < n * n; ++i)
            EXPECT_EQ(kernel[i], reference[i]) << "n=" << n << " entry " << i;
    }
#else
    GTEST_SKIP() << "this build may fuse the reference loop into FMAs";
#endif
}

} // namespace
} // namespace graph
} // namespace bperf

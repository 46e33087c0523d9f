#include "core/ep.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/quad_kernel.h"

namespace bperf {
namespace core {

using graph::FactorGraph;
using graph::FactorKind;
using graph::Gaussian;
using graph::GaussianSolver;

namespace {

/** Damping of MCMC site updates in natural parameters. */
constexpr double kMcmcDamping = 0.7;
/** Grid size of the tilted-moment quadrature. */
constexpr std::size_t kQuadraturePoints = 129;
/** Seed of the per-site MCMC seed stream. */
constexpr std::uint64_t kMcmcSeed = 7;

static_assert(kEpBlockSize <= graph::BlockedJointUpdater::kMaxBlockSize);

/**
 * Grid setup shared by every quadrature entry point: cover both the
 * cavity and the likelihood bulk, then hand the uniform grid to the
 * requested kernel.  All x-independent terms of the two log-densities
 * are dropped (they shift all weights equally and cancel in the
 * normalized moments), so the kernels evaluate only one log1p and one
 * exp per grid point.
 */
void
quadMomentsOnGrid(double cavity_mean, double cavity_var, double loc,
                  double scale, double nu, std::size_t points,
                  QuadKernelFn kernel, double &mean_out, double &var_out)
{
    bp_assert(cavity_var > 0.0, "quadrature needs proper cavity");
    bp_assert(points >= 9, "too few quadrature points");
    const double cavity_sd = std::sqrt(cavity_var);

    QuadParams p;
    p.lo = std::min(cavity_mean - 8.0 * cavity_sd, loc - 10.0 * scale);
    const double hi = std::max(cavity_mean + 8.0 * cavity_sd,
                               loc + 10.0 * scale);
    p.step = (hi - p.lo) / static_cast<double>(points - 1);
    p.points = points;
    p.cavityMean = cavity_mean;
    p.invSd = 1.0 / cavity_sd;
    p.loc = loc;
    p.invScale = 1.0 / scale;
    p.halfNup1 = 0.5 * (nu + 1.0);
    p.invNu = 1.0 / nu;
    kernel(p, mean_out, var_out);
}

/**
 * One site's moment-matched update (Alg. 1 lines 3-7): computes the
 * cavity and tilted moments, commits the `damping`-weighted site
 * approximation and folds its delta into `site_sums`, and accumulates
 * the relative mean change into `max_rel_change`.  Returns false
 * (touching nothing) when the cavity is improper or degenerate;
 * `delta_out` is valid only on true.  Bringing the *joint* up to date
 * with `delta_out` is the caller's job.
 */
template <typename Site>
bool
momentMatchSite(const FactorGraph &graph, Site &site,
                std::vector<Gaussian> &site_sums, double marg_mean,
                double marg_var, const EpConfig &config, QuadKernelFn quad,
                double damping, std::uint64_t mcmc_seed, Gaussian &delta_out,
                double &max_rel_change)
{
    const graph::VarId v = site.var;
    if (marg_var <= 0.0)
        return false;
    const Gaussian marginal = Gaussian::fromMeanVar(marg_mean, marg_var);
    const Gaussian cavity = marginal / site.approx;
    // Degenerate cavity: skip when the division leaves less than 1e-9
    // of the marginal precision.  True rounding noise appears near
    // 1e-16 of the marginal; the margin is deliberately conservative —
    // a cavity carrying under a billionth of the precision contributes
    // nothing real to moment matching, and near the noise floor its
    // sign is arbitrary.  Subsumes the classic improper (lambda <= 0)
    // case.
    if (!(cavity.lambda * marg_var > 1e-9))
        return false;

    double tilt_mean = 0.0, tilt_var = 0.0;
    if (config.method == MomentMethod::Quadrature) {
        quadMomentsOnGrid(cavity.mean(), cavity.variance(), site.loc,
                          site.scale, site.nu, kQuadraturePoints, quad,
                          tilt_mean, tilt_var);
    } else {
        tiltedMomentsMcmc(cavity.mean(), cavity.variance(), site.loc,
                          site.scale, site.nu, config.mcmcSamples,
                          config.mcmcBurnin, mcmc_seed, tilt_mean, tilt_var);
    }

    const Gaussian tilted = Gaussian::fromMeanVar(tilt_mean, tilt_var);
    Gaussian updated = tilted / cavity;
    // Keep sites proper: clamping retains stability without changing
    // the fixed point in practice.
    if (updated.lambda < 0.0)
        updated = Gaussian::flat();

    const double d = damping;
    const Gaussian damped(d * updated.lambda + (1.0 - d) * site.approx.lambda,
                          d * updated.eta + (1.0 - d) * site.approx.eta);

    const double scale_hint = graph.variable(v).scaleHint;
    const double old_mean =
        site.approx.isProper() ? site.approx.mean() : site.loc;
    const double new_mean = damped.isProper() ? damped.mean() : site.loc;
    max_rel_change = std::max(max_rel_change,
                              std::abs(new_mean - old_mean) / scale_hint);

    delta_out = damped / site.approx;
    site.approx = damped;
    site_sums[v] = site_sums[v] * delta_out;
    return true;
}

} // namespace

void
tiltedMomentsQuadrature(double cavity_mean, double cavity_var, double loc,
                        double scale, double nu, std::size_t points,
                        double &mean_out, double &var_out)
{
    quadMomentsOnGrid(cavity_mean, cavity_var, loc, scale, nu, points,
                      activeQuadKernel(), mean_out, var_out);
}

void
tiltedMomentsQuadratureScalar(double cavity_mean, double cavity_var,
                              double loc, double scale, double nu,
                              std::size_t points, double &mean_out,
                              double &var_out)
{
    quadMomentsOnGrid(cavity_mean, cavity_var, loc, scale, nu, points,
                      quadMomentsScalar, mean_out, var_out);
}

void
tiltedMomentsMcmc(double cavity_mean, double cavity_var, double loc,
                  double scale, double nu, std::size_t samples,
                  std::size_t burnin, std::uint64_t seed, double &mean_out,
                  double &var_out)
{
    bp_assert(cavity_var > 0.0, "MCMC needs proper cavity");
    bp_assert(samples >= 16, "too few MCMC samples");
    Rng rng(seed);
    const double cavity_sd = std::sqrt(cavity_var);

    // Constant-free log-target: the dropped normalizers cancel in the
    // Metropolis accept ratio exactly as they do in quadrature.
    const double inv_sd = 1.0 / cavity_sd;
    const double inv_scale = 1.0 / scale;
    const double half_nup1 = 0.5 * (nu + 1.0);
    const double inv_nu = 1.0 / nu;
    auto log_target = [&](double x) {
        const double u = (x - cavity_mean) * inv_sd;
        const double t = (x - loc) * inv_scale;
        return -0.5 * u * u - half_nup1 * std::log1p(t * t * inv_nu);
    };

    // Random-walk Metropolis with a proposal matched to the tighter
    // of cavity and likelihood (the AcMC2-generated samplers do the
    // equivalent tuning at compile time).
    const double prop_sd = std::min(cavity_sd, scale) * 1.5;
    double x = (cavity_mean / cavity_var + loc / (scale * scale)) /
               (1.0 / cavity_var + 1.0 / (scale * scale));
    double lx = log_target(x);

    RunningStats stats;
    for (std::size_t i = 0; i < burnin + samples; ++i) {
        const double cand = x + rng.normal(0.0, prop_sd);
        const double lc = log_target(cand);
        if (lc >= lx || rng.uniform() < std::exp(lc - lx)) {
            x = cand;
            lx = lc;
        }
        if (i >= burnin)
            stats.push(x);
    }
    mean_out = stats.mean();
    // Guard against degenerate chains (all rejections).
    var_out = std::max(stats.variance(),
                       1e-6 * std::min(cavity_var, scale * scale));
}

std::size_t
EpWorkspace::totalAllocations() const
{
    return grows_ + scratch_.grows + solver_.bufferGrows();
}

ExpectationPropagation::ExpectationPropagation(EpConfig config)
    : config_(config)
{
}

EpResult
ExpectationPropagation::run(const FactorGraph &graph) const
{
    EpWorkspace ws;
    return run(graph, ws);
}

EpResult
ExpectationPropagation::run(const FactorGraph &graph, EpWorkspace &ws) const
{
    EpResult result;
    // Pre-size the fresh result so its (one-time) growth is not
    // charged to the workspace accounting, matching the persistent-
    // result overload's steady state.
    result.mean.reserve(graph.numVariables());
    result.stddev.reserve(graph.numVariables());
    run(graph, ws, result);
    return result;
}

void
ExpectationPropagation::run(const FactorGraph &graph, EpWorkspace &ws,
                            EpResult &result) const
{
    const std::size_t n = graph.numVariables();
    const std::size_t grows_before = ws.totalAllocations();
    ++ws.runs_;

    result.sweeps = 0;
    result.converged = false;
    result.skippedUpdates = 0;
    result.momentEvaluations = 0;
    result.rank1Updates = 0;
    result.fullSolves = 0;
    result.blockFlushes = 0;
    result.workspaceAllocations = 0;

    GaussianSolver &solver = ws.solver_;
    solver.rebind(graph);

    // Collect the Student-t factors; each owns one site.
    const auto &t_factors = graph.factorsOfKind(FactorKind::StudentT);
    if (ws.sites_.capacity() < t_factors.size())
        ++ws.grows_;
    ws.sites_.clear();
    for (graph::FactorId fid : t_factors) {
        const auto &f = graph.factor(fid);
        EpWorkspace::Site s;
        s.var = f.vars[0];
        s.loc = f.loc;
        s.scale = f.scale;
        s.nu = f.nu;
        // Initialize sites at a moment-matched Gaussian of the
        // likelihood (variance of a Student-t, inflated when nu <= 2).
        const double t_var = s.nu > 2.0
                                 ? s.scale * s.scale * s.nu / (s.nu - 2.0)
                                 : 9.0 * s.scale * s.scale;
        s.approx = Gaussian::fromMeanVar(s.loc, t_var);
        ws.sites_.push_back(s);
    }

    if (ws.siteByVar_.capacity() < n)
        ++ws.grows_;
    ws.siteByVar_.assign(n, Gaussian::flat());
    for (const auto &s : ws.sites_)
        ws.siteByVar_[s.var] = ws.siteByVar_[s.var] * s.approx;
    solver.solveInto(ws.siteByVar_, ws.joint_, ws.scratch_);
    ++result.fullSolves;

    runSweeps(graph, ws, result);

    if (result.mean.capacity() < n || result.stddev.capacity() < n)
        ++ws.grows_;
    result.mean.resize(n);
    result.stddev.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
        result.mean[v] = ws.joint_.mean[v];
        result.stddev[v] =
            std::sqrt(std::max(ws.joint_.covariance(v, v), 0.0));
    }
    result.workspaceAllocations = ws.totalAllocations() - grows_before;
}

void
ExpectationPropagation::runSweeps(const FactorGraph &graph,
                                  EpWorkspace &ws, EpResult &result) const
{
    const std::size_t n = graph.numVariables();
    GaussianSolver &solver = ws.solver_;
    const QuadKernelFn quad =
        config_.simdQuadrature ? activeQuadKernel() : quadMomentsScalar;
    const bool incremental = config_.jointStrategy == JointStrategy::Rank1;
    graph::BlockedJointUpdater updater(ws.joint_, ws.scratch_,
                                       incremental ? kEpBlockSize : 1);

    Rng rng(kMcmcSeed);

    // Sequential site-by-site EP against the exact joint runs undamped
    // (Minka, UAI 2001).  MCMC moments are noisy, so their updates are
    // damped to average the noise across sweeps.
    const double damping =
        config_.method == MomentMethod::Mcmc ? kMcmcDamping : 1.0;

    for (std::size_t sweep = 0; sweep < config_.maxSweeps; ++sweep) {
        ++result.sweeps;
        double max_rel_change = 0.0;

        for (auto &site : ws.sites_) {
            const graph::VarId v = site.var;
            // marginalVariance sees the stored diagonal corrected for
            // the pending block — exactly what the one-at-a-time
            // chain would read; the mean is maintained eagerly.
            const double marg_var = updater.marginalVariance(v);
            const double marg_mean = ws.joint_.mean[v];
            const std::uint64_t mcmc_seed =
                config_.method == MomentMethod::Mcmc ? rng() : 0;

            Gaussian delta;
            if (!momentMatchSite(graph, site, ws.siteByVar_, marg_mean,
                                 marg_var, config_, quad, damping, mcmc_seed,
                                 delta, max_rel_change)) {
                ++result.skippedUpdates;
                continue;
            }
            ++result.momentEvaluations;
            if (delta.lambda == 0.0 && delta.eta == 0.0)
                continue;

            // Bring the joint up to date with this one site change.
            if (!incremental) {
                solver.solveInto(ws.siteByVar_, ws.joint_, ws.scratch_);
                ++result.fullSolves;
            } else if (updater.push(v, delta.lambda, delta.eta)) {
                ++result.rank1Updates;
            } else {
                // Downdate refused (near-improper joint): recover with
                // a fresh factorization.  Anything pending is
                // superseded by it, and the per-variable site sums are
                // rebuilt from scratch so the re-factorized joint
                // carries no additive drift.
                updater.discard();
                ws.siteByVar_.assign(n, Gaussian::flat());
                for (const auto &s : ws.sites_)
                    ws.siteByVar_[s.var] = ws.siteByVar_[s.var] * s.approx;
                solver.solveInto(ws.siteByVar_, ws.joint_, ws.scratch_);
                ++result.fullSolves;
            }
        }

        if (max_rel_change < config_.tolerance) {
            result.converged = true;
            break;
        }
    }

    // Apply any still-pending downdates so the stored covariance is
    // current for result extraction.
    updater.flush();
    result.blockFlushes += updater.flushes();
}

} // namespace core
} // namespace bperf

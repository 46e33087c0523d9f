/**
 * @file
 * Expectation Propagation for BayesPerf factor graphs (paper Alg. 1).
 *
 * Gaussian factors (invariants, random walks, priors) form the exact
 * Gaussian backbone.  Each Student-t measurement factor gets a 1-D
 * Gaussian site approximation; EP iterates:
 *   cavity  = joint marginal / site              (Alg. 1 line 3)
 *   tilted  = likelihood x cavity, moments via   (Alg. 1 line 4)
 *             quadrature or MCMC
 *   site'   = tilted / cavity, damped            (Alg. 1 lines 5-7)
 *
 * Hot-path structure: tilted moments run through the SIMD quadrature
 * kernel (quad_kernel.h, AVX2 with a bit-identical scalar fallback);
 * sites update sequentially against a joint that is kept current by
 * blocked Sherman-Morrison downdates of the covariance
 * (BlockedJointUpdater: O(n^2) per site with the triangle sweep
 * amortized over a block of 8 sites, instead of a re-solve).  A full
 * re-factorization (the envelope solve of graph/exact.h) runs only
 * when a downdate is refused.  JointStrategy::DenseResolve replaces
 * every incremental update with a full re-solve on the same schedule;
 * the golden-posterior suite pins the two paths to each other within
 * 1e-6.
 *
 * Callers that run EP repeatedly (windowed inference) pass an
 * EpWorkspace (and optionally a persistent EpResult) so steady-state
 * runs reuse all buffers and perform no allocations.
 */

#ifndef BPERF_CORE_EP_H
#define BPERF_CORE_EP_H

#include <cstdint>
#include <vector>

#include "graph/exact.h"
#include "graph/factor_graph.h"

namespace bperf {
namespace core {

/** How tilted moments are computed (Alg. 1 line 4). */
enum class MomentMethod {
    /** Deterministic grid quadrature (fast, reproducible). */
    Quadrature,
    /** Metropolis MCMC, as the paper's accelerator does. */
    Mcmc,
};

/** How the joint is kept in sync with site updates. */
enum class JointStrategy {
    /**
     * Blocked Sherman-Morrison update per site change, full
     * re-factorization when a downdate is too ill-conditioned.  The
     * fast path.
     */
    Rank1,
    /**
     * Full dense re-solve after every site change.  Same update
     * schedule as Rank1 — the numerical reference the regression
     * suite compares the fast path against.
     */
    DenseResolve,
};

/** EP configuration. */
struct EpConfig
{
    std::size_t maxSweeps = 8;
    /** Convergence threshold on relative site-mean change. */
    double tolerance = 1e-4;
    MomentMethod method = MomentMethod::Quadrature;
    JointStrategy jointStrategy = JointStrategy::Rank1;
    std::size_t mcmcSamples = 400;
    std::size_t mcmcBurnin = 100;
    /**
     * Gauss grid evaluation via the runtime-dispatched SIMD kernel
     * (true) or the scalar reference kernel (false).  The two are
     * bit-identical by construction; the switch exists for the parity
     * tests and for -DBPERF_SIMD=OFF builds.
     */
    bool simdQuadrature = true;
};

/** Result of EP inference. */
struct EpResult
{
    std::vector<double> mean;   // per variable
    std::vector<double> stddev; // per variable
    std::size_t sweeps = 0;
    bool converged = false;
    /** Count of site updates skipped due to improper cavities. */
    std::size_t skippedUpdates = 0;
    /** Total tilted-moment evaluations (accelerator cost model). */
    std::size_t momentEvaluations = 0;
    /** Incremental (blocked rank-1) joint updates applied. */
    std::size_t rank1Updates = 0;
    /** Full joint factorizations (initial solve + recoveries from
     * refused downdates). */
    std::size_t fullSolves = 0;
    /** Covariance-triangle sweeps of the blocked updater. */
    std::size_t blockFlushes = 0;
    /**
     * Workspace buffer-growth events during this run.  0 means the
     * run reused a warm EpWorkspace without allocating — the
     * steady-state invariant the streaming tests assert.
     */
    std::size_t workspaceAllocations = 0;
};

/**
 * Reusable buffers for ExpectationPropagation::run.  One workspace
 * belongs to one caller (one windowed-inference engine); after a
 * warm-up run on a given graph shape, further runs on graphs of the
 * same (or smaller) size allocate nothing.
 */
class EpWorkspace
{
  public:
    /** Buffer-growth events since construction. */
    std::size_t totalAllocations() const;

    /** EP runs served by this workspace. */
    std::size_t runs() const { return runs_; }

  private:
    friend class ExpectationPropagation;

    struct Site
    {
        graph::VarId var;
        double loc, scale, nu;
        graph::Gaussian approx; // natural units
    };

    std::vector<Site> sites_;
    std::vector<graph::Gaussian> siteByVar_;
    graph::GaussianSolver solver_;
    graph::GaussianJoint joint_;
    graph::SolverScratch scratch_;
    std::size_t grows_ = 0;
    std::size_t runs_ = 0;
};

/** Sites per covariance-triangle sweep of the fast path's blocked
 * joint updater (graph::BlockedJointUpdater). */
inline constexpr std::size_t kEpBlockSize = 8;

/**
 * Runs EP over a factor graph.
 */
class ExpectationPropagation
{
  public:
    explicit ExpectationPropagation(EpConfig config = {});

    /** One-shot run with a private workspace. */
    EpResult run(const graph::FactorGraph &graph) const;

    /** Run reusing caller-owned buffers (hot path). */
    EpResult run(const graph::FactorGraph &graph, EpWorkspace &ws) const;

    /**
     * Run reusing caller-owned buffers *and* a caller-owned result:
     * result.mean/stddev are resized in place, so steady-state runs
     * allocate nothing at all.  All result counters are reset.
     */
    void run(const graph::FactorGraph &graph, EpWorkspace &ws,
             EpResult &result) const;

  private:
    void runSweeps(const graph::FactorGraph &graph, EpWorkspace &ws,
                   EpResult &result) const;

    EpConfig config_;
};

/**
 * Moments of the 1-D tilted density
 *   p(x) ∝ N(x; cavity_mean, cavity_var) * St(x; loc, scale, nu)
 * computed on a uniform grid covering both densities' bulk, by the
 * best quadrature kernel for this CPU (quad_kernel.h).  All
 * x-independent density constants are dropped since they cancel in
 * the normalized moments.  Exposed for tests.
 */
void tiltedMomentsQuadrature(double cavity_mean, double cavity_var,
                             double loc, double scale, double nu,
                             std::size_t points, double &mean_out,
                             double &var_out);

/** Same grid through the scalar reference kernel — bit-identical to
 * tiltedMomentsQuadrature by the kernel parity contract.  Exposed for
 * the SIMD-vs-scalar golden tests. */
void tiltedMomentsQuadratureScalar(double cavity_mean, double cavity_var,
                                   double loc, double scale, double nu,
                                   std::size_t points, double &mean_out,
                                   double &var_out);

/** Same moments estimated by Metropolis MCMC.  Exposed for tests. */
void tiltedMomentsMcmc(double cavity_mean, double cavity_var, double loc,
                       double scale, double nu, std::size_t samples,
                       std::size_t burnin, std::uint64_t seed,
                       double &mean_out, double &var_out);

} // namespace core
} // namespace bperf

#endif // BPERF_CORE_EP_H

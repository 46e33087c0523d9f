/**
 * @file
 * Exact inference for the Gaussian part of a factor graph.
 *
 * Builds the joint information form (precision matrix J, information
 * vector h) from all LinearGaussian and GaussianPrior factors plus an
 * optional set of per-variable Gaussian "site" approximations (as EP
 * maintains for the non-Gaussian factors), and solves for the joint
 * mean and covariance.  Variables are internally rescaled by their
 * scale hints so the solve stays well conditioned even though event
 * magnitudes span five orders of magnitude.
 *
 * The Gaussian backbone (everything except the sites) never changes
 * between solves of the same graph, so the solver caches it at
 * construction; repeated solves only add the site diagonal and
 * factorize.  The factorization is an envelope Cholesky
 * (Matrix::choleskyInverseInto) that follows a window graph's
 * structure: its variables are slice-major and each couples only to
 * its own and the neighbouring slices, so a solve costs O(n^2 w) for
 * envelope width w instead of O(n^3).  For EP's inner loop,
 * BlockedJointUpdater applies Sherman-Morrison site updates to an
 * already-solved joint, so a single-site change costs O(n^2).
 *
 * When every factor in the graph is Gaussian this *is* the exact
 * posterior, which the tests use to validate EP.
 */

#ifndef BPERF_GRAPH_EXACT_H
#define BPERF_GRAPH_EXACT_H

#include <vector>

#include "common/matrix.h"
#include "graph/factor_graph.h"
#include "graph/flush_kernel.h"
#include "graph/gaussian.h"

namespace bperf {
namespace graph {

/** Joint Gaussian over all variables of a graph. */
struct GaussianJoint
{
    std::vector<double> mean;
    Matrix covariance; // full covariance, natural units

    double marginalMean(VarId v) const { return mean[v]; }
    double marginalVariance(VarId v) const { return covariance(v, v); }
};

/**
 * Reusable buffers for GaussianSolver::solveInto and
 * BlockedJointUpdater.  One scratch belongs to one solver loop (EP run
 * / workspace); solves become allocation-free once its capacity covers
 * the graph size.
 */
struct SolverScratch
{
    Matrix J;                  // scaled precision copy
    std::vector<double> h;     // scaled information vector
    std::vector<double> chol;  // Cholesky factorization scratch
    std::vector<double> blockW; // pending update columns (block x n)
    std::vector<double> blockC; // pending downdate coefficients
    /** Buffer-growth events (allocation accounting for EpWorkspace). */
    std::size_t grows = 0;
};

/**
 * Solver for the Gaussian sub-model of a factor graph.
 */
class GaussianSolver
{
  public:
    /** Empty solver; rebind() before use. */
    GaussianSolver() = default;

    explicit GaussianSolver(const FactorGraph &graph) { rebind(graph); }

    /**
     * (Re)build the cached Gaussian backbone for `graph`, reusing the
     * solver's buffers — allocation-free when the previous graph was
     * at least as large.  The graph must outlive the solver's use.
     */
    void rebind(const FactorGraph &graph);

    /** Buffer-growth events since construction (allocation accounting). */
    std::size_t bufferGrows() const { return grows_; }

    /**
     * Compute the joint implied by all Gaussian factors plus
     * per-variable sites (sites may be flat).  `sites` must be empty
     * or one entry per variable.  Dies if the model is improper
     * (unconstrained variables with no prior/site).
     */
    GaussianJoint solve(const std::vector<Gaussian> &sites = {}) const;

    /**
     * solve() into caller-owned storage: `joint` and `scratch` are
     * reused across calls and only (re)allocate while their capacity
     * is below the graph size — steady-state re-solves of equal-sized
     * graphs perform no allocations.
     */
    void solveInto(const std::vector<Gaussian> &sites, GaussianJoint &joint,
                   SolverScratch &scratch) const;

    /**
     * True iff the graph contains non-Gaussian factors (so solve()
     * alone is not the full posterior).
     */
    bool hasNonGaussianFactors() const;

  private:
    const FactorGraph *graph_ = nullptr;
    std::vector<double> scale_; // per-variable scale hints
    Matrix baseJ_;              // Gaussian backbone precision (scaled)
    std::vector<double> baseH_; // backbone information vector (scaled)
    std::size_t grows_ = 0;
};

/**
 * Sherman-Morrison site updates of an already-solved joint, applied
 * in blocks.  A site change (d_lambda, d_eta) on variable v shifts
 * the precision by d_lambda e_v e_v^T and the information vector by
 * d_eta e_v; with sigma = Sigma e_v and denom = 1 + d_lambda Sigma_vv,
 *   Sigma' = Sigma - (d_lambda / denom) sigma sigma^T
 *   mean'  = mean + sigma (d_eta - d_lambda mean_v) / denom.
 * The updater defers up to `blockSize` of these downdates and applies
 * them to the stored covariance in one pass (flush_kernel.h), cutting
 * the memory traffic of the memory-bound covariance sweep by the
 * block factor.
 *
 * The algebra is exactly the sequential Sherman-Morrison chain: each
 * push materializes the covariance column of its variable *as of all
 * pending updates* (implicit correction against the pending block),
 * so marginal variances, mean updates and conditioning guards see the
 * same values one-at-a-time updates would — block sizes differ only
 * by floating-point summation order.
 *
 * Contract: only the LOWER triangle (including the diagonal) of
 * joint.covariance is kept current — the EP loop reads only marginal
 * variances and columns, both recoverable from it, so mirroring the
 * upper half would double the traffic for nothing.  The mean is kept
 * current eagerly; the covariance only through marginalVariance() and
 * flush().  Callers must flush() before reading covariance entries
 * (r, c) with c <= r directly, and discard() before a full re-solve,
 * which supersedes anything pending and restores the full matrix.
 *
 * Borrows the joint and scratch; one updater serves one EP run.
 */
class BlockedJointUpdater
{
  public:
    /** Largest supported block (bounds the flush kernels' buffers). */
    static constexpr std::size_t kMaxBlockSize = kMaxFlushUpdates;

    BlockedJointUpdater(GaussianJoint &joint, SolverScratch &scratch,
                        std::size_t block_size);

    /** Marginal variance of v as of all pending updates. */
    double marginalVariance(VarId v) const;

    /**
     * Queue the site change (d_lambda, d_eta) on v.  Applies the mean
     * update immediately and auto-flushes when the block fills.
     * Returns false — leaving joint and block untouched — when the
     * downdate is too ill-conditioned to apply stably (see push() in
     * exact.cc); the caller must then discard() and fall back to a
     * full solve.
     */
    bool push(VarId v, double d_lambda, double d_eta);

    /** Apply all pending downdates to the stored lower triangle. */
    void flush();

    /** Drop pending downdates (before a full re-solve). */
    void discard() { pending_ = 0; }

    std::size_t pending() const { return pending_; }
    /** Lower-triangle passes performed (bench accounting). */
    std::size_t flushes() const { return flushes_; }

  private:
    GaussianJoint *joint_;
    SolverScratch *scratch_;
    std::size_t blockSize_;
    std::size_t n_;
    std::size_t pending_ = 0;
    std::size_t flushes_ = 0;
};

} // namespace graph
} // namespace bperf

#endif // BPERF_GRAPH_EXACT_H

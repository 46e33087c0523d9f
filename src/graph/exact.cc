#include "graph/exact.h"

#include <cmath>

#include "common/logging.h"

namespace bperf {
namespace graph {

void
GaussianSolver::rebind(const FactorGraph &graph)
{
    graph_ = &graph;
    const std::size_t n = graph.numVariables();

    if (baseJ_.capacity() < n * n || scale_.capacity() < n ||
        baseH_.capacity() < n)
        ++grows_;

    // Work in scaled units u = x / s to keep the precision matrix
    // well conditioned.
    scale_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        scale_[i] = graph.variable(static_cast<VarId>(i)).scaleHint;

    // The Gaussian backbone is site-independent: build it once.
    baseJ_.reset(n, n, 0.0);
    baseH_.assign(n, 0.0);

    for (FactorId fid : graph.factorsOfKind(FactorKind::LinearGaussian)) {
        const Factor &f = graph.factor(fid);
        // (a^T x + b)^2 / sigma^2 contributes a a^T / sigma^2.
        const double inv_var = 1.0 / (f.noiseStd * f.noiseStd);
        for (std::size_t i = 0; i < f.vars.size(); ++i) {
            const VarId vi = f.vars[i];
            const double ai = f.coeffs[i] * scale_[vi];
            for (std::size_t j = 0; j < f.vars.size(); ++j) {
                const VarId vj = f.vars[j];
                const double aj = f.coeffs[j] * scale_[vj];
                baseJ_(vi, vj) += ai * aj * inv_var;
            }
            baseH_[vi] += -f.offset * ai * inv_var;
        }
    }
    for (FactorId fid : graph.factorsOfKind(FactorKind::GaussianPrior)) {
        const Factor &f = graph.factor(fid);
        const VarId v = f.vars[0];
        const double inv_var = scale_[v] * scale_[v] / (f.scale * f.scale);
        baseJ_(v, v) += inv_var;
        baseH_[v] += inv_var * f.loc / scale_[v];
    }

    // Tiny ridge to keep strictly-determined systems numerically SPD.
    for (std::size_t v = 0; v < n; ++v)
        baseJ_(v, v) += 1e-12;
}

bool
GaussianSolver::hasNonGaussianFactors() const
{
    bp_assert(graph_ != nullptr, "solver not bound to a graph");
    return !graph_->factorsOfKind(FactorKind::StudentT).empty();
}

GaussianJoint
GaussianSolver::solve(const std::vector<Gaussian> &sites) const
{
    GaussianJoint joint;
    SolverScratch scratch;
    solveInto(sites, joint, scratch);
    return joint;
}

void
GaussianSolver::solveInto(const std::vector<Gaussian> &sites,
                          GaussianJoint &joint, SolverScratch &scratch) const
{
    bp_assert(graph_ != nullptr, "solver not bound to a graph");
    const std::size_t n = graph_->numVariables();
    bp_assert(sites.empty() || sites.size() == n,
              "site vector must be empty or cover all variables");

    if (scratch.J.capacity() < n * n ||
        joint.covariance.capacity() < n * n ||
        scratch.chol.capacity() < n * n ||
        scratch.h.capacity() < n || joint.mean.capacity() < n)
        ++scratch.grows;

    scratch.J = baseJ_;
    scratch.h = baseH_;
    if (!sites.empty()) {
        for (std::size_t v = 0; v < n; ++v) {
            // Site in natural units; convert to scaled units.
            scratch.J(v, v) += sites[v].lambda * scale_[v] * scale_[v];
            scratch.h[v] += sites[v].eta * scale_[v];
        }
    }

    // Covariance = J^-1 (one envelope Cholesky factorization),
    // mean = J^-1 h.
    scratch.J.choleskyInverseInto(joint.covariance, scratch.chol);

    // Mean in natural units, from the still-scaled covariance.
    joint.mean.resize(n);
    double *cov = joint.covariance.data();
    const double *hs = scratch.h.data();
    for (std::size_t r = 0; r < n; ++r) {
        const double *row = cov + r * n;
        double s = 0.0;
        for (std::size_t c = 0; c < n; ++c)
            s += row[c] * hs[c];
        joint.mean[r] = s * scale_[r];
    }

    // Rescale the covariance to natural units in place.
    for (std::size_t r = 0; r < n; ++r) {
        double *row = cov + r * n;
        const double sr = scale_[r];
        for (std::size_t c = 0; c < n; ++c)
            row[c] *= sr * scale_[c];
    }
}

BlockedJointUpdater::BlockedJointUpdater(GaussianJoint &joint,
                                         SolverScratch &scratch,
                                         std::size_t block_size)
    : joint_(&joint), scratch_(&scratch),
      blockSize_(std::max<std::size_t>(1, block_size)),
      n_(joint.mean.size())
{
    bp_assert(blockSize_ <= kMaxBlockSize, "block size too large");
    if (scratch.blockW.capacity() < blockSize_ * n_ ||
        scratch.blockC.capacity() < blockSize_)
        ++scratch.grows;
    scratch.blockW.resize(blockSize_ * n_);
    scratch.blockC.resize(blockSize_);
}

double
BlockedJointUpdater::marginalVariance(VarId v) const
{
    double var = joint_->covariance(v, v);
    const double *W = scratch_->blockW.data();
    const double *C = scratch_->blockC.data();
    for (std::size_t i = 0; i < pending_; ++i) {
        const double wv = W[i * n_ + v];
        var -= C[i] * wv * wv;
    }
    return var;
}

bool
BlockedJointUpdater::push(VarId v, double d_lambda, double d_eta)
{
    bp_assert(v < n_, "blocked update variable out of range");
    double *W = scratch_->blockW.data();
    double *C = scratch_->blockC.data();
    double *w = W + pending_ * n_;
    const double *cov = joint_->covariance.data();

    // Column v of the *stored* covariance, from the lower triangle.
    const double *rowv = cov + static_cast<std::size_t>(v) * n_;
    for (std::size_t r = 0; r <= v; ++r)
        w[r] = rowv[r];
    for (std::size_t r = v + 1; r < n_; ++r)
        w[r] = cov[r * n_ + v];

    // Correct it to the current covariance: subtract each pending
    // downdate's contribution.  This is the whole trick — the column
    // is exactly what the sequential chain would read after applying
    // the pending updates, without touching the n^2 matrix.
    for (std::size_t i = 0; i < pending_; ++i) {
        const double f = C[i] * W[i * n_ + v];
        if (f == 0.0)
            continue;
        const double *wi = W + i * n_;
        for (std::size_t r = 0; r < n_; ++r)
            w[r] -= f * wi[r];
    }

    const double var_v = w[v];
    if (!(var_v > 0.0))
        return false;
    const double dl_var = d_lambda * var_v;
    const double denom = 1.0 + dl_var;
    // Conditioning guards — refuse and let the caller re-solve when
    // the update would poison the covariance:
    //  - denom <= 0.05: a strong downdate amplifies every entry (and
    //    any accumulated drift) by 1/denom > 20x;
    //  - dl_var > 1e4: the diagonal update cancels ~dl_var leading
    //    digits, injecting ~dl_var * eps relative error.
    // Both are rare (large site jumps happen in the first sweeps);
    // the full-solve fallback keeps the fast path's drift below the
    // 1e-6 agreement the golden suite asserts.
    if (!(denom > 0.05) || dl_var > 1e4)
        return false;

    // Mean update is exact and eager (the EP loop reads means between
    // pushes); covariance is deferred.
    double *mean = joint_->mean.data();
    const double mean_gain = (d_eta - d_lambda * mean[v]) / denom;
    for (std::size_t r = 0; r < n_; ++r)
        mean[r] += mean_gain * w[r];

    C[pending_] = d_lambda / denom;
    ++pending_;
    if (pending_ == blockSize_)
        flush();
    return true;
}

void
BlockedJointUpdater::flush()
{
    if (pending_ == 0)
        return;
    // One pass over the lower triangle applying all pending outer
    // products (flush_kernel.h).
    activeFlushKernel()(joint_->covariance.data(), n_,
                        scratch_->blockW.data(), scratch_->blockC.data(),
                        pending_);
    ++flushes_;
    pending_ = 0;
}

} // namespace graph
} // namespace bperf

#include "graph/factor_graph.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"

namespace bperf {
namespace graph {

namespace {

bool
touches(const Factor &f, VarId v)
{
    return std::find(f.vars.begin(), f.vars.end(), v) != f.vars.end();
}

} // namespace

VarId
FactorGraph::addVariable(double scale_hint)
{
    bp_assert(scale_hint > 0.0, "scale hint must be positive");
    if (liveVariables_ == variables_.size()) {
        ++grows_;
        variables_.emplace_back();
    }
    variables_[liveVariables_].scaleHint = scale_hint;
    return static_cast<VarId>(liveVariables_++);
}

Factor &
FactorGraph::claimFactor(FactorKind kind)
{
    if (liveFactors_ == factors_.size()) {
        ++grows_;
        factors_.emplace_back();
    }
    Factor &f = factors_[liveFactors_];
    f.kind = kind;
    f.vars.clear();
    f.coeffs.clear();
    f.offset = 0.0;
    f.noiseStd = 1.0;
    f.loc = 0.0;
    f.scale = 1.0;
    f.nu = 3.0;
    ++liveFactors_;
    return f;
}

FactorId
FactorGraph::addLinearGaussian(std::span<const VarId> vars,
                               std::span<const double> coeffs,
                               double offset, double noise_std)
{
    bp_assert(!vars.empty(), "linear factor needs terms");
    bp_assert(vars.size() == coeffs.size(),
              "vars/coeffs length mismatch");
    bp_assert(noise_std > 0.0, "linear factor needs positive noise");
    Factor &f = claimFactor(FactorKind::LinearGaussian);
    if (f.vars.capacity() < vars.size())
        ++grows_;
    if (f.coeffs.capacity() < coeffs.size())
        ++grows_;
    for (VarId v : vars) {
        bp_assert(v < liveVariables_, "factor references missing var");
        f.vars.push_back(v);
    }
    f.coeffs.assign(coeffs.begin(), coeffs.end());
    f.offset = offset;
    f.noiseStd = noise_std;
    return indexNewest();
}

FactorId
FactorGraph::addLinearGaussian(const std::vector<std::pair<VarId, double>>
                                   &terms,
                               double offset, double noise_std)
{
    bp_assert(!terms.empty(), "linear factor needs terms");
    bp_assert(noise_std > 0.0, "linear factor needs positive noise");
    Factor &f = claimFactor(FactorKind::LinearGaussian);
    if (f.vars.capacity() < terms.size())
        ++grows_;
    if (f.coeffs.capacity() < terms.size())
        ++grows_;
    for (const auto &[v, c] : terms) {
        bp_assert(v < liveVariables_, "factor references missing var");
        f.vars.push_back(v);
        f.coeffs.push_back(c);
    }
    f.offset = offset;
    f.noiseStd = noise_std;
    return indexNewest();
}

FactorId
FactorGraph::addStudentT(VarId var, double loc, double scale, double nu)
{
    bp_assert(var < liveVariables_, "factor references missing var");
    bp_assert(scale > 0.0 && nu > 0.0, "bad Student-t parameters");
    Factor &f = claimFactor(FactorKind::StudentT);
    if (f.vars.capacity() < 1)
        ++grows_;
    f.vars.push_back(var);
    f.loc = loc;
    f.scale = scale;
    f.nu = nu;
    return indexNewest();
}

FactorId
FactorGraph::addGaussianPrior(VarId var, double mean, double stddev)
{
    bp_assert(var < liveVariables_, "factor references missing var");
    bp_assert(stddev > 0.0, "bad prior stddev");
    Factor &f = claimFactor(FactorKind::GaussianPrior);
    if (f.vars.capacity() < 1)
        ++grows_;
    f.vars.push_back(var);
    f.loc = mean;
    f.scale = stddev;
    return indexNewest();
}

void
FactorGraph::reset()
{
    liveVariables_ = 0;
    liveFactors_ = 0;
    for (auto &index : kindFactors_)
        index.clear();
}

FactorId
FactorGraph::indexNewest()
{
    const FactorId fid = static_cast<FactorId>(liveFactors_ - 1);
    auto &index =
        kindFactors_[static_cast<std::size_t>(factors_[fid].kind)];
    if (index.size() == index.capacity())
        ++grows_;
    index.push_back(fid);
    return fid;
}

const Variable &
FactorGraph::variable(VarId v) const
{
    bp_assert(v < liveVariables_, "variable id out of range");
    return variables_[v];
}

const Factor &
FactorGraph::factor(FactorId f) const
{
    bp_assert(f < liveFactors_, "factor id out of range");
    return factors_[f];
}

const std::vector<FactorId> &
FactorGraph::factorsOfKind(FactorKind kind) const
{
    return kindFactors_[static_cast<std::size_t>(kind)];
}

std::set<VarId>
FactorGraph::markovBlanket(VarId v) const
{
    bp_assert(v < liveVariables_, "variable id out of range");
    std::set<VarId> blanket;
    for (const Factor &f : factors())
        if (touches(f, v))
            for (VarId u : f.vars)
                if (u != v)
                    blanket.insert(u);
    return blanket;
}

std::set<VarId>
FactorGraph::markovBlanketOfSet(const std::set<VarId> &vars) const
{
    std::set<VarId> blanket;
    for (VarId v : vars)
        for (VarId u : markovBlanket(v))
            if (!vars.count(u))
                blanket.insert(u);
    return blanket;
}

std::vector<VarId>
FactorGraph::shortestPath(VarId from, VarId to) const
{
    bp_assert(from < liveVariables_ && to < liveVariables_,
              "path endpoints out of range");
    if (from == to)
        return {from};

    std::vector<VarId> parent(liveVariables_, kNoVar);
    std::vector<bool> visited(liveVariables_, false);
    std::deque<VarId> queue{from};
    visited[from] = true;

    while (!queue.empty()) {
        const VarId v = queue.front();
        queue.pop_front();
        for (const Factor &f : factors()) {
            if (!touches(f, v))
                continue;
            for (VarId u : f.vars) {
                if (visited[u])
                    continue;
                visited[u] = true;
                parent[u] = v;
                if (u == to) {
                    std::vector<VarId> path{to};
                    for (VarId p = v; p != kNoVar; p = parent[p])
                        path.push_back(p);
                    std::reverse(path.begin(), path.end());
                    return path;
                }
                queue.push_back(u);
            }
        }
    }
    return {};
}

} // namespace graph
} // namespace bperf

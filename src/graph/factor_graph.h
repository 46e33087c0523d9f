/**
 * @file
 * Bipartite factor graph over scalar variables.
 *
 * The graph is the paper's central data structure (section 4.1): its
 * variables are event values, its factors the statistical
 * relationships between them.  It holds only what the Gaussian solver
 * and EP read — no names and no variable-to-factor adjacency index.
 * The structural queries the scheduler runs on its small event graph
 * (Markov blankets, shortest paths) scan the factor list instead.
 *
 * Graphs are rebuilt per sliding window, so the container recycles:
 * reset() drops the logical contents but keeps every buffer (variable
 * and factor slots, term vectors, the per-kind index), and subsequent
 * add*() calls reuse those slots in place.  A steady-state window
 * rebuild therefore allocates nothing — the bufferGrows() counter,
 * which ticks once per underlying buffer growth, is the invariant the
 * engine tests assert.
 */

#ifndef BPERF_GRAPH_FACTOR_GRAPH_H
#define BPERF_GRAPH_FACTOR_GRAPH_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

namespace bperf {
namespace graph {

using VarId = std::uint32_t;
using FactorId = std::uint32_t;

constexpr VarId kNoVar = static_cast<VarId>(-1);

/** What density a factor contributes. */
enum class FactorKind {
    /** sum_i coeff_i x_i + offset ~ N(0, noiseStd^2). */
    LinearGaussian,
    /** Scaled/shifted Student-t likelihood on a single variable. */
    StudentT,
    /** Gaussian prior on a single variable. */
    GaussianPrior,
    // Adding a kind? Bump kFactorKindCount below.
};

/** Number of FactorKind values (sizes the per-kind factor index). */
inline constexpr std::size_t kFactorKindCount = 3;
static_assert(kFactorKindCount ==
                  static_cast<std::size_t>(FactorKind::GaussianPrior) + 1,
              "update kFactorKindCount when FactorKind grows");

/** One variable (an event value at a time slice). */
struct Variable
{
    /** Typical magnitude, used to condition the linear algebra. */
    double scaleHint = 1.0;
};

/** One factor. */
struct Factor
{
    FactorKind kind = FactorKind::LinearGaussian;
    std::vector<VarId> vars;

    // LinearGaussian parameters (coeffs aligned with vars).
    std::vector<double> coeffs;
    double offset = 0.0;
    double noiseStd = 1.0;

    // StudentT / GaussianPrior parameters.
    double loc = 0.0;
    double scale = 1.0;
    double nu = 3.0;
};

/**
 * The factor graph: variables, factors, a per-kind factor index and
 * structural queries.  Ids are insertion positions.
 */
class FactorGraph
{
  public:
    /** Add a variable; returns its id. */
    VarId addVariable(double scale_hint);

    /** Add `sum coeff_i x_i + offset ~ N(0, noise_std^2)`. */
    FactorId addLinearGaussian(std::span<const VarId> vars,
                               std::span<const double> coeffs,
                               double offset, double noise_std);

    /** Convenience overload taking (var, coeff) pairs. */
    FactorId addLinearGaussian(const std::vector<std::pair<VarId, double>>
                                   &terms,
                               double offset, double noise_std);

    /** Add a Student-t measurement factor on one variable. */
    FactorId addStudentT(VarId var, double loc, double scale, double nu);

    /** Add a Gaussian prior on one variable. */
    FactorId addGaussianPrior(VarId var, double mean, double stddev);

    /**
     * Empty the graph logically while retaining every buffer (slots,
     * their term vectors, the per-kind index); the next build cycle
     * refills them in place.
     */
    void reset();

    std::size_t numVariables() const { return liveVariables_; }

    const Variable &variable(VarId v) const;
    const Factor &factor(FactorId f) const;
    std::span<const Factor> factors() const
    {
        return {factors_.data(), liveFactors_};
    }

    /**
     * Ids of all factors of one kind, in insertion order.  Maintained
     * incrementally so hot paths (EP's site scan, the Gaussian
     * solver's backbone build) iterate only the factors they handle
     * instead of filtering the full factor list.
     */
    const std::vector<FactorId> &factorsOfKind(FactorKind kind) const;

    /**
     * Cumulative buffer-growth events: ticks whenever an add*() call
     * had to grow an underlying buffer (new slot, more terms than the
     * recycled slot ever held).  Constant across steady-state
     * reset()/rebuild cycles — the zero-allocation invariant the
     * window engine asserts.
     */
    std::size_t bufferGrows() const { return grows_; }

    /**
     * Markov blanket of a variable: all variables co-occurring with it
     * in some factor (excluding the variable itself).
     */
    std::set<VarId> markovBlanket(VarId v) const;

    /** Union of Markov blankets of a set, minus the set itself. */
    std::set<VarId> markovBlanketOfSet(const std::set<VarId> &vars) const;

    /**
     * Shortest variable path between two variables, traversing
     * factors at unit cost (BFS).  A variable's neighbours are visited
     * factor by factor in insertion order, so ties between equally
     * short paths go to the earlier-inserted factor.  Returns the
     * sequence of variables including both endpoints, or empty if
     * disconnected.
     */
    std::vector<VarId> shortestPath(VarId from, VarId to) const;

  private:
    /** Claim the next factor slot (recycled or new) for `kind`. */
    Factor &claimFactor(FactorKind kind);
    /** Append the newest factor to its kind index; returns its id. */
    FactorId indexNewest();

    std::vector<Variable> variables_;
    std::vector<Factor> factors_;
    /** Indexed by static_cast<std::size_t>(FactorKind). */
    std::array<std::vector<FactorId>, kFactorKindCount> kindFactors_;

    /** Logical sizes; slots beyond them are retained for reuse. */
    std::size_t liveVariables_ = 0;
    std::size_t liveFactors_ = 0;
    std::size_t grows_ = 0;
};

} // namespace graph
} // namespace bperf

#endif // BPERF_GRAPH_FACTOR_GRAPH_H

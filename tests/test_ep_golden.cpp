/**
 * @file
 * Golden-posterior regression suite for the EP fast path.
 *
 * The rank-1 rewrite of the EP inner loop (Sherman-Morrison joint
 * updates + fused quadrature) must not move posteriors.  Two locks:
 *
 *  1. Strategy agreement: for every case, JointStrategy::Rank1 and
 *     JointStrategy::DenseResolve (full re-solve after every site
 *     update, same schedule) agree within 1e-6 relative tolerance.
 *
 *  2. Golden fixtures: recorded posteriors in
 *     tests/data/golden_posteriors.json, covering k in {2, 4, 6},
 *     both MomentMethods, and a degenerate-cavity graph that
 *     exercises the skippedUpdates paths.  Any future change of the
 *     numerical core that moves a posterior beyond tolerance fails
 *     here first.
 *
 * Regenerate fixtures (after an INTENDED numerical change) with:
 *     BP_REGEN_GOLDEN=1 ./test_ep_golden
 * which rewrites the JSON in the source tree; re-run without the
 * variable to verify, and review the diff like any other code change.
 */

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/ep.h"
#include "graph/exact.h"
#include "graph/factor_graph.h"

#ifndef BPERF_TEST_DATA_DIR
#define BPERF_TEST_DATA_DIR "tests/data"
#endif

namespace bperf {
namespace core {
namespace {

using graph::FactorGraph;

constexpr double kStrategyRelTol = 1e-6;
constexpr double kGoldenRelTol = 1e-6;

// ---------------------------------------------------------------- cases

struct GoldenCase
{
    std::string name;
    std::size_t k = 2;          // slices per window graph
    MomentMethod method = MomentMethod::Quadrature;
    bool degenerate = false;    // engineer improper cavities
};

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    for (std::size_t k : {2u, 4u, 6u}) {
        for (MomentMethod m :
             {MomentMethod::Quadrature, MomentMethod::Mcmc}) {
            GoldenCase c;
            c.k = k;
            c.method = m;
            c.name = "k" + std::to_string(k) + "_" +
                     (m == MomentMethod::Quadrature ? "quadrature" : "mcmc");
            cases.push_back(c);
        }
    }
    GoldenCase d;
    d.k = 4;
    d.method = MomentMethod::Quadrature;
    d.degenerate = true;
    d.name = "k4_quadrature_degenerate";
    cases.push_back(d);
    return cases;
}

/**
 * A window-shaped graph: E events x k slices, with per-event random
 * walks, a cross-event invariant per slice, carry-style priors on the
 * first slice, and Student-t measurements — event magnitudes spanning
 * five orders so the scaled solve and the rank-1 conditioning guards
 * are both exercised.  Deterministic per (k, degenerate).
 */
FactorGraph
makeWindowGraph(std::size_t k, bool degenerate)
{
    constexpr std::size_t E = 5;
    const double level[E] = {1e9, 2.5e8, 1.25e9, 3.0e4, 7.0e6};
    FactorGraph g;
    Rng rng(1234 + k);

    std::vector<std::vector<graph::VarId>> var(E);
    for (std::size_t e = 0; e < E; ++e) {
        for (std::size_t t = 0; t < k; ++t)
            var[e].push_back(g.addVariable(level[e]));
    }

    for (std::size_t e = 0; e < E; ++e) {
        // Carry prior on the first slice.
        g.addGaussianPrior(var[e][0], level[e], 0.3 * level[e]);
        // Random walk along slices.
        for (std::size_t t = 0; t + 1 < k; ++t)
            g.addLinearGaussian({{var[e][t], 1.0}, {var[e][t + 1], -1.0}},
                                0.0, 0.1 * level[e]);
    }
    // Invariant: e0 + e1 = e2 at every slice (tight).
    for (std::size_t t = 0; t < k; ++t)
        g.addLinearGaussian(
            {{var[0][t], 1.0}, {var[1][t], 1.0}, {var[2][t], -1.0}}, 0.0,
            0.01 * level[2]);

    // Measurements: most (event, slice) pairs observed, mixed nu.
    for (std::size_t e = 0; e < E; ++e) {
        for (std::size_t t = 0; t < k; ++t) {
            if ((e + t) % 4 == 3)
                continue; // multiplexed away
            const double obs =
                level[e] * (1.0 + 0.2 * rng.normal());
            const double nu = (e % 2 == 0) ? 3.0 : 30.0;
            g.addStudentT(var[e][t], obs, 0.08 * level[e], nu);
        }
    }

    if (degenerate) {
        // One measurement ~17 orders tighter than everything else on
        // its variable: the site precision swallows the rest of the
        // marginal precision below double resolution, so the cavity
        // division cancels to an improper (<= 0 precision) Gaussian
        // and EP must take the skippedUpdates path every sweep.
        g.addStudentT(var[3][0], 0.9e4, 1e-6, 3.0);
    }
    return g;
}

EpResult
runCase(const GoldenCase &c, JointStrategy strategy)
{
    const FactorGraph g = makeWindowGraph(c.k, c.degenerate);
    EpConfig cfg;
    cfg.method = c.method;
    cfg.jointStrategy = strategy;
    // A low refactor interval would mask drift; keep the default so
    // the suite tests what production runs.
    ExpectationPropagation ep(cfg);
    return ep.run(g);
}

// ------------------------------------------------- minimal JSON reader

/**
 * Parser for the subset of JSON the fixture uses: objects, arrays,
 * numbers, strings (no escapes), booleans.
 */
struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    const JsonValue &at(const std::string &key) const
    {
        auto it = fields.find(key);
        EXPECT_TRUE(it != fields.end()) << "missing JSON key: " << key;
        static const JsonValue kNull;
        return it == fields.end() ? kNull : it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string text) : text_(std::move(text)) {}

    JsonValue parse()
    {
        JsonValue v = parseValue();
        skipWs();
        EXPECT_EQ(pos_, text_.size()) << "trailing JSON garbage";
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char peek()
    {
        skipWs();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void expect(char c)
    {
        skipWs();
        ASSERT_LT(pos_, text_.size()) << "unexpected end of JSON";
        ASSERT_EQ(text_[pos_], c) << "at offset " << pos_;
        ++pos_;
    }

    JsonValue parseValue()
    {
        const char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return parseString();
        if (c == 't' || c == 'f')
            return parseBool();
        return parseNumber();
    }

    JsonValue parseObject()
    {
        JsonValue v;
        v.kind = JsonValue::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            JsonValue key = parseString();
            expect(':');
            v.fields[key.str] = parseValue();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue parseArray()
    {
        JsonValue v;
        v.kind = JsonValue::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue parseString()
    {
        JsonValue v;
        v.kind = JsonValue::String;
        expect('"');
        while (pos_ < text_.size() && text_[pos_] != '"')
            v.str.push_back(text_[pos_++]);
        expect('"');
        return v;
    }

    JsonValue parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else {
            EXPECT_EQ(text_.compare(pos_, 5, "false"), 0);
            v.boolean = false;
            pos_ += 5;
        }
        return v;
    }

    JsonValue parseNumber()
    {
        JsonValue v;
        v.kind = JsonValue::Number;
        skipWs();
        std::size_t end = pos_;
        while (end < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[end])) ||
                text_[end] == '-' || text_[end] == '+' ||
                text_[end] == '.' || text_[end] == 'e' ||
                text_[end] == 'E'))
            ++end;
        v.number = std::strtod(text_.substr(pos_, end - pos_).c_str(),
                               nullptr);
        pos_ = end;
        return v;
    }

    std::string text_;
    std::size_t pos_ = 0;
};

std::string
fixturePath()
{
    return std::string(BPERF_TEST_DATA_DIR) + "/golden_posteriors.json";
}

bool
regenRequested()
{
    const char *env = std::getenv("BP_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void
writeFixture(const std::vector<GoldenCase> &cases,
             const std::vector<EpResult> &results)
{
    std::ofstream out(fixturePath());
    ASSERT_TRUE(out.good()) << "cannot write " << fixturePath();
    out.precision(17);
    out << "{\n  \"cases\": [\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &c = cases[i];
        const auto &r = results[i];
        out << "    {\n"
            << "      \"name\": \"" << c.name << "\",\n"
            << "      \"k\": " << c.k << ",\n"
            << "      \"method\": \""
            << (c.method == MomentMethod::Quadrature ? "quadrature"
                                                     : "mcmc")
            << "\",\n"
            << "      \"degenerate\": "
            << (c.degenerate ? "true" : "false") << ",\n"
            << "      \"converged\": " << (r.converged ? "true" : "false")
            << ",\n"
            << "      \"skippedUpdates\": " << r.skippedUpdates << ",\n"
            << "      \"mean\": [";
        for (std::size_t v = 0; v < r.mean.size(); ++v)
            out << (v ? ", " : "") << r.mean[v];
        out << "],\n      \"stddev\": [";
        for (std::size_t v = 0; v < r.stddev.size(); ++v)
            out << (v ? ", " : "") << r.stddev[v];
        out << "]\n    }" << (i + 1 < cases.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

void
expectClose(double actual, double expected, double rel_tol,
            const std::string &what)
{
    const double denom = std::max(std::abs(expected), 1e-30);
    EXPECT_LE(std::abs(actual - expected) / denom, rel_tol) << what;
}

// ----------------------------------------------------------------- tests

TEST(GoldenPosteriors, Rank1AgreesWithDenseResolve)
{
    for (const GoldenCase &c : goldenCases()) {
        const EpResult fast = runCase(c, JointStrategy::Rank1);
        const EpResult dense = runCase(c, JointStrategy::DenseResolve);
        ASSERT_EQ(fast.mean.size(), dense.mean.size()) << c.name;
        EXPECT_GT(fast.rank1Updates, 0u) << c.name;
        EXPECT_EQ(dense.rank1Updates, 0u) << c.name;
        for (std::size_t v = 0; v < fast.mean.size(); ++v) {
            expectClose(fast.mean[v], dense.mean[v], kStrategyRelTol,
                        c.name + " mean[" + std::to_string(v) + "]");
            expectClose(fast.stddev[v], dense.stddev[v], kStrategyRelTol,
                        c.name + " stddev[" + std::to_string(v) + "]");
        }
    }
}

TEST(GoldenPosteriors, DegenerateCaseExercisesSkippedUpdates)
{
    GoldenCase d;
    d.k = 4;
    d.method = MomentMethod::Quadrature;
    d.degenerate = true;
    d.name = "degenerate";
    const EpResult r = runCase(d, JointStrategy::Rank1);
    EXPECT_GT(r.skippedUpdates, 0u)
        << "degenerate case no longer hits the improper-cavity path";
    for (double m : r.mean)
        EXPECT_TRUE(std::isfinite(m));
}

TEST(GoldenPosteriors, SimdQuadratureBitIdenticalToScalar)
{
    // The dispatched SIMD quadrature kernel and the scalar reference
    // share one polynomial and one reduction order by construction:
    // the contract is bit-identity, not closeness, so any drift —
    // a reassociated accumulator, an FMA the scalar path lacks —
    // fails here exactly.
    for (const GoldenCase &c : goldenCases()) {
        if (c.method != MomentMethod::Quadrature)
            continue;
        const FactorGraph g = makeWindowGraph(c.k, c.degenerate);
        EpConfig cfg;
        cfg.jointStrategy = JointStrategy::Rank1;
        cfg.simdQuadrature = true;
        ExpectationPropagation simd_ep(cfg);
        const EpResult simd = simd_ep.run(g);
        cfg.simdQuadrature = false;
        ExpectationPropagation scalar_ep(cfg);
        const EpResult scalar = scalar_ep.run(g);

        ASSERT_EQ(simd.mean.size(), scalar.mean.size()) << c.name;
        EXPECT_EQ(simd.sweeps, scalar.sweeps) << c.name;
        EXPECT_EQ(simd.skippedUpdates, scalar.skippedUpdates) << c.name;
        for (std::size_t v = 0; v < simd.mean.size(); ++v) {
            EXPECT_EQ(simd.mean[v], scalar.mean[v])
                << c.name << " mean[" << v << "]";
            EXPECT_EQ(simd.stddev[v], scalar.stddev[v])
                << c.name << " stddev[" << v << "]";
        }
    }
}

TEST(GoldenPosteriors, MatchesRecordedFixtures)
{
    const std::vector<GoldenCase> cases = goldenCases();
    std::vector<EpResult> results;
    for (const GoldenCase &c : cases)
        results.push_back(runCase(c, JointStrategy::Rank1));

    if (regenRequested()) {
        writeFixture(cases, results);
        GTEST_SKIP() << "regenerated " << fixturePath();
    }

    std::ifstream in(fixturePath());
    ASSERT_TRUE(in.good())
        << "missing fixture " << fixturePath()
        << " — run BP_REGEN_GOLDEN=1 ./test_ep_golden once to record";
    std::stringstream buf;
    buf << in.rdbuf();
    JsonParser parser(buf.str());
    const JsonValue root = parser.parse();

    const auto &recorded = root.at("cases").items;
    ASSERT_EQ(recorded.size(), cases.size())
        << "fixture case count differs — regenerate and review";

    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &c = cases[i];
        const auto &r = results[i];
        const JsonValue &rec = recorded[i];
        EXPECT_EQ(rec.at("name").str, c.name);
        EXPECT_EQ(rec.at("converged").boolean, r.converged) << c.name;
        EXPECT_EQ(static_cast<std::size_t>(
                      rec.at("skippedUpdates").number),
                  r.skippedUpdates)
            << c.name;

        const auto &mean = rec.at("mean").items;
        const auto &stddev = rec.at("stddev").items;
        ASSERT_EQ(mean.size(), r.mean.size()) << c.name;
        ASSERT_EQ(stddev.size(), r.stddev.size()) << c.name;
        for (std::size_t v = 0; v < r.mean.size(); ++v) {
            expectClose(r.mean[v], mean[v].number, kGoldenRelTol,
                        c.name + " mean[" + std::to_string(v) + "]");
            expectClose(r.stddev[v], stddev[v].number, kGoldenRelTol,
                        c.name + " stddev[" + std::to_string(v) + "]");
        }
    }
}

} // namespace
} // namespace core
} // namespace bperf

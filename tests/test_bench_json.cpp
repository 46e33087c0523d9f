/** @file Schema tests for the shared bench JSON writer: the one
 * serializer behind every BENCH_*.json artifact must emit
 * syntactically valid JSON with exactly the nesting the benches ask
 * for. */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/stats.h"

#include "bench_util.h"
#include "json_checker.h"

namespace bperf {
namespace {

using testutil::JsonChecker;

TEST(JsonWriter, ScalarFieldsAndCommaPlacement)
{
    bench::JsonWriter json;
    json.beginObject()
        .field("count", 3)
        .field("ratio", 1.5)
        .field("name", std::string("ep"))
        .field("tag", "fast")
        .field("ok", true)
        .field("bad", false)
        .endObject();
    EXPECT_EQ(json.str(),
              "{\"count\": 3, \"ratio\": 1.5, \"name\": \"ep\", "
              "\"tag\": \"fast\", \"ok\": true, \"bad\": false}");
    EXPECT_TRUE(JsonChecker(json.str()).valid());
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters)
{
    bench::JsonWriter json;
    json.beginObject()
        .field("path", "C:\\data\\run")
        .field("quote", "say \"hi\"")
        .field("multi", "a\nb\tc")
        .endObject();
    EXPECT_EQ(json.str(),
              "{\"path\": \"C:\\\\data\\\\run\", "
              "\"quote\": \"say \\\"hi\\\"\", "
              "\"multi\": \"a\\nb\\tc\"}");
    EXPECT_TRUE(JsonChecker(json.str()).valid());
}

TEST(JsonWriter, NestedObjectsAndArrays)
{
    bench::JsonWriter json;
    json.beginObject()
        .beginObject("host")
        .field("p50_us", 12.5)
        .endObject()
        .beginArray("accel");
    for (int engines : {1, 2}) {
        json.beginObject()
            .field("engines", engines)
            .field("p99_us", 100.0 * engines)
            .endObject();
    }
    json.endArray().beginArray("raw").value(1).value(2.5).endArray();
    json.beginObject("empty").endObject().endObject();

    EXPECT_EQ(json.str(),
              "{\"host\": {\"p50_us\": 12.5}, "
              "\"accel\": [{\"engines\": 1, \"p99_us\": 100}, "
              "{\"engines\": 2, \"p99_us\": 200}], "
              "\"raw\": [1, 2.5], \"empty\": {}}");
    EXPECT_TRUE(JsonChecker(json.str()).valid());
}

/** The exact schema bench_ep_window.cpp writes. */
TEST(JsonWriter, EpWindowBenchSchemaIsValid)
{
    bench::JsonWriter json;
    json.beginObject()
        .field("events", 13)
        .field("window_slices", 6)
        .field("joint_size", 78)
        .field("quad_kernel", "avx2")
        .field("flush_kernel", "avx2")
        .field("block_size", 8)
        .field("us_per_window_fast", 730.5)
        .field("us_per_window_scalar", 4500.0)
        .field("us_per_window_dense", 45000.25)
        .field("us_per_window_mcmc", 30000.0)
        .field("speedup_fast_vs_dense", 16.66)
        .field("speedup_simd_vs_scalar", 6.15)
        .field("sweeps_per_window", 4.33)
        .field("moment_evals_per_window", 293.0)
        .field("rank1_updates_per_window", 292.0)
        .field("full_solves_per_window", 2.0)
        .field("block_flushes_per_window", 37.0)
        .field("buffer_growths", 1205)
        .field("quadrature_us", 1.25)
        .field("rank1_update_us", 10.5)
        .field("full_solve_us", 120.75)
        .endObject();
    const std::string doc = json.str();
    EXPECT_TRUE(JsonChecker(doc).valid());
    for (const char *key :
         {"events", "window_slices", "joint_size", "quad_kernel",
          "flush_kernel", "us_per_window_fast", "us_per_window_scalar",
          "us_per_window_dense", "speedup_fast_vs_dense",
          "speedup_simd_vs_scalar", "sweeps_per_window",
          "buffer_growths"})
        EXPECT_NE(doc.find('"' + std::string(key) + "\": "),
                  std::string::npos)
            << key;
}

/** The exact schema bench_accel_service.cpp writes. */
TEST(JsonWriter, AccelServiceBenchSchemaIsValid)
{
    bench::JsonWriter json;
    json.beginObject()
        .field("sessions", 8)
        .field("slices", 48)
        .field("window_slices", 6)
        .field("events", 13)
        .field("slice_period_us", 100.0)
        .beginObject("host")
        .field("backend", "host")
        .field("windows", 120)
        .field("mean_us", 2700.0)
        .field("p50_us", 2650.0)
        .field("p95_us", 3100.0)
        .field("p99_us", 3400.0)
        .field("mean_queue_wait_us", 0.0)
        .field("mean_transfer_us", 0.0)
        .field("mean_compute_us", 2700.0)
        .field("publish_p50_us", 2.0)
        .field("publish_p99_us", 11.0)
        .endObject()
        .beginArray("accel");
    for (int engines : {1, 2, 4, 8}) {
        json.beginObject()
            .field("engines", engines)
            .field("backend", "accel-capi")
            .field("windows", 120)
            .field("mean_us", 500.0)
            .field("p50_us", 400.0)
            .field("p95_us", 900.0)
            .field("p99_us", 1200.0)
            .field("mean_queue_wait_us", 250.0)
            .field("mean_transfer_us", 40.0)
            .field("mean_compute_us", 210.0)
            .field("publish_p50_us", 2.0)
            .field("publish_p99_us", 11.0)
            .field("engine_utilization", 0.85)
            .field("speedup_vs_host", 5.4)
            .endObject();
    }
    json.endArray().endObject();
    const std::string doc = json.str();
    EXPECT_TRUE(JsonChecker(doc).valid());
    for (const char *key :
         {"sessions", "host", "accel", "p50_us", "p95_us", "p99_us",
          "mean_queue_wait_us", "mean_transfer_us", "mean_compute_us",
          "publish_p50_us", "publish_p99_us", "engine_utilization",
          "speedup_vs_host"})
        EXPECT_NE(doc.find('"' + std::string(key) + '"'),
                  std::string::npos)
            << key;
}

/** The exact schema bench_shim_read.cpp writes (layout v2: the
 * `checksum` section carries the verify-off read latencies, the
 * relative verification overhead, and the corruptReads protocol
 * assertion — zero in any healthy run; `bySession` times reads by
 * session id in pipebench live_tenants' table geometry; the read
 * sections count Torn and WriterDead verdicts apart). */
TEST(JsonWriter, ShimReadBenchSchemaIsValid)
{
    bench::JsonWriter json;
    const auto ns_summary = [&](const char *key) {
        json.beginObject(key)
            .field("samples", 200000)
            .field("meanNs", 120.0)
            .field("p50Ns", 110.0)
            .field("p95Ns", 160.0)
            .field("p99Ns", 180.0)
            .field("maxNs", 9000.0)
            .endObject();
    };
    json.beginObject()
        .field("bench", "shim_read")
        .field("quick", false)
        .beginObject("config")
        .field("events", 13)
        .field("directReads", 200000)
        .field("publishes", 200000)
        .field("slices", 48)
        .field("maxRetries", 64)
        .endObject();
    for (const char *section : {"uncontended", "hammered"}) {
        json.beginObject(section);
        ns_summary("readLatency");
        ns_summary("staleness");
        json.field("retriedReads", 12)
            .field("tornReads", 3)
            .field("writerDeadReads", 0)
            .endObject();
    }
    json.beginObject("bySession").field("slots", 64).field("sessions", 16);
    ns_summary("readLatency");
    json.field("p50VsUncontended", 1.02).endObject();
    json.beginObject("checksum");
    ns_summary("uncontendedNoVerify");
    ns_summary("hammeredNoVerify");
    json.field("verifyOverheadPctP50", 4.5)
        .field("verifyOverheadPctP99", 6.1)
        .field("corruptReads", 0)
        .endObject();
    json.beginObject("writer")
        .field("publishNs", 210.0)
        .field("serviceOffSeconds", 1.2)
        .field("serviceOnSeconds", 1.22)
        .field("overheadPct", 1.7)
        .endObject();
    json.beginObject("service").field("windows", 120);
    ns_summary("subscriptionLag");
    ns_summary("shimReadAge");
    json.field("posteriorsBitIdentical", true).endObject();
    json.endObject();

    const std::string doc = json.str();
    EXPECT_TRUE(JsonChecker(doc).valid());
    for (const char *key :
         {"uncontended", "hammered", "checksum", "uncontendedNoVerify",
          "hammeredNoVerify", "verifyOverheadPctP50",
          "verifyOverheadPctP99", "corruptReads", "readLatency",
          "staleness", "tornReads", "writerDeadReads", "bySession",
          "slots", "sessions",
          "p50VsUncontended", "publishNs", "posteriorsBitIdentical"})
        EXPECT_NE(doc.find('"' + std::string(key) + "\": "),
                  std::string::npos)
            << key;
}

/** The exact schema bench_telemetry_overhead.cpp writes. */
TEST(JsonWriter, TelemetryBenchSchemaIsValid)
{
    bench::JsonWriter json;
    json.beginObject()
        .field("events", 13)
        .field("window_slices", 6)
        .field("us_per_window_disabled", 2700.0)
        .field("us_per_window_enabled", 2750.0)
        .field("overhead_pct", 1.85)
        .field("counter_add_ns_enabled", 4.0)
        .field("counter_add_ns_disabled", 0.8)
        .field("histogram_record_ns_enabled", 6.5)
        .field("histogram_record_ns_disabled", 0.8)
        .field("clock_stamp_ns", 20.0)
        .field("scrape_us", 3.5)
        .endObject();
    const std::string doc = json.str();
    EXPECT_TRUE(JsonChecker(doc).valid());
    for (const char *key :
         {"us_per_window_disabled", "us_per_window_enabled",
          "overhead_pct", "counter_add_ns_enabled",
          "histogram_record_ns_disabled", "scrape_us"})
        EXPECT_NE(doc.find('"' + std::string(key) + "\": "),
                  std::string::npos)
            << key;
}

/** The exact schema bench_sec63_decision_quality.cpp writes: per
 * policy x counter-quality improvement distributions, the
 * corrected-vs-raw gains, the corrected_beats_raw verdicts the CI
 * smoke asserts on, and the paper's section 6.3 bars. */
TEST(JsonWriter, DecisionQualityBenchSchemaIsValid)
{
    bench::JsonWriter json;
    const auto stats_block = [&](const char *key) {
        json.beginObject(key)
            .field("mean_pct", 15.1)
            .field("stddev_pct", 2.2)
            .field("stderr_pct", 1.0)
            .field("ci95_pct", 1.96)
            .field("trials", 5)
            .endObject();
    };
    const auto paper_bar = [&](const char *key) {
        json.beginObject(key)
            .field("mean_pct", 22.3)
            .field("pm_pct", 7.9)
            .endObject();
    };
    json.beginObject()
        .field("quick", false)
        .field("trials", 5)
        .field("eval_episodes", 1500)
        .field("train_iters", 7000)
        .beginObject("noise")
        .field("raw_error_pct", 38.0)
        .field("raw_staleness", 0.5)
        .field("corrected_error_pct", 10.0)
        .field("corrected_staleness", 0.0)
        .endObject();
    json.beginObject("improvement_vs_static_pct");
    for (const char *key : {"cf_raw", "rl_raw", "cf_corrected",
                            "rl_corrected"})
        stats_block(key);
    json.endObject();
    json.beginObject("corrected_vs_raw_pct");
    stats_block("cf");
    stats_block("rl");
    json.endObject();
    json.beginObject("corrected_beats_raw")
        .field("cf", true)
        .field("rl", true)
        .endObject();
    json.beginObject("paper");
    for (const char *key : {"cf_vs_static", "rl_vs_static",
                            "cf_corrected_gain", "rl_corrected_gain"})
        paper_bar(key);
    json.endObject().endObject();

    const std::string doc = json.str();
    EXPECT_TRUE(JsonChecker(doc).valid());
    for (const char *key :
         {"noise", "raw_error_pct", "raw_staleness",
          "improvement_vs_static_pct", "cf_raw", "rl_corrected",
          "corrected_vs_raw_pct", "corrected_beats_raw", "mean_pct",
          "ci95_pct", "paper", "rl_corrected_gain"})
        EXPECT_NE(doc.find('"' + std::string(key) + "\": "),
                  std::string::npos)
            << key;
}

/** The exact schema bench_fig9_pcie_contention.cpp writes. */
TEST(JsonWriter, Fig9PcieContentionBenchSchemaIsValid)
{
    bench::JsonWriter json;
    json.beginObject()
        .field("peak_copy_gbps", 12.2)
        .beginArray("points");
    for (int log2_bytes : {12, 16, 20}) {
        json.beginObject()
            .field("log2_bytes", log2_bytes)
            .field("isolated_gbps", 9.5)
            .field("contended_gbps", 4.2)
            .field("slowdown_x", 2.26)
            .endObject();
    }
    json.endArray()
        .beginObject("contention")
        .field("saturation_gbps", 11.9)
        .field("max_slowdown_x", 2.8)
        .field("small_message_slowdown_x", 2.3)
        .endObject()
        .endObject();

    const std::string doc = json.str();
    EXPECT_TRUE(JsonChecker(doc).valid());
    for (const char *key :
         {"peak_copy_gbps", "points", "log2_bytes", "isolated_gbps",
          "contended_gbps", "slowdown_x", "contention",
          "saturation_gbps", "max_slowdown_x",
          "small_message_slowdown_x"})
        EXPECT_NE(doc.find('"' + std::string(key) + "\": "),
                  std::string::npos)
            << key;
}

TEST(JsonWriter, NonFiniteDoublesSerializeAsNull)
{
    // Regression: percentiles over an empty sample set (a 0-window
    // run) used to stream bare nan/inf tokens, which no JSON parser
    // accepts.  Every non-finite double must come out as null.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    bench::JsonWriter json;
    json.beginObject()
        .field("p99_us", nan)
        .field("speedup", inf)
        .field("slowdown", -inf)
        .field("ok", 1.5)
        .beginArray("raw")
        .value(nan)
        .value(2.0)
        .endArray()
        .endObject();
    EXPECT_EQ(json.str(),
              "{\"p99_us\": null, \"speedup\": null, "
              "\"slowdown\": null, \"ok\": 1.5, \"raw\": [null, 2]}");
    EXPECT_TRUE(JsonChecker(json.str()).valid());
}

TEST(JsonWriter, EmptyPercentilePathEmitsNull)
{
    // The exact empty-sample path the benches hit on a 0-window run:
    // percentileOrNan -> NaN -> null in the artifact.
    const std::vector<double> empty;
    const double p99 = bench::percentileOrNan(empty, 99.0);
    EXPECT_TRUE(std::isnan(p99));
    // Non-empty input must agree with the strict percentile().
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(bench::percentileOrNan(xs, 50.0),
                     percentile(xs, 50.0));

    bench::JsonWriter json;
    json.beginObject().field("windows", 0).field("p99_us", p99).endObject();
    EXPECT_EQ(json.str(), "{\"windows\": 0, \"p99_us\": null}");
    EXPECT_TRUE(JsonChecker(json.str()).valid());
}

TEST(JsonWriter, WriteFileRoundTrips)
{
    bench::JsonWriter json;
    json.beginObject().field("a", 1).endObject();
    const std::string path =
        ::testing::TempDir() + "bperf_json_writer_test.json";
    ASSERT_TRUE(json.writeFile(path));
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, "{\"a\": 1}\n");
}

} // namespace
} // namespace bperf

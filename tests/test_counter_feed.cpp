/**
 * @file
 * Counter-feed tests (mlsched/counter_feed.h): the synthetic feed's
 * bit-reproducibility and corruption arithmetic, the shim feed's
 * live quality derivation from posterior snapshots, its typed
 * degrade-to-last-good/fallback policy under injected writer faults,
 * bit-identity between what the feed serves and what the service's
 * subscription stream saw, and a forked-writer test where the parent
 * attaches a ShimCounterFeed to a child daemon's named segment and
 * rides through the child's death mid-publish.  The fork tests are
 * skipped under TSan (fork + TSan runtime do not mix).
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mlsched/counter_feed.h"
#include "service/monitor_service.h"
#include "service/record_stream.h"
#include "shim/snapshot_layout.h"
#include "shim/snapshot_reader.h"
#include "shim/snapshot_region.h"
#include "sim/ground_truth.h"
#include "workloads/hibench.h"

#if defined(__SANITIZE_THREAD__)
#define BPERF_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BPERF_TSAN 1
#endif
#endif

namespace bperf {
namespace ml {
namespace {

/** Unique POSIX shm name per test process (parallel ctest runs). */
std::string
uniqueShmName(const char *tag)
{
    return std::string("/bperf-test-") + tag + "-" +
           std::to_string(::getpid());
}

core::WindowExecution
sampleExecution()
{
    core::WindowExecution exec;
    exec.engineId = 1;
    exec.endSlice = 12;
    exec.queueWaitSeconds = 1e-4;
    exec.serviceSeconds = 2e-4;
    exec.transferSeconds = 0.5e-4;
    exec.modeledSeconds = 3.5e-4;
    return exec;
}

TEST(FeedServedName, CoversEveryEnumerator)
{
    for (FeedServed served :
         {FeedServed::Live, FeedServed::LastGood, FeedServed::Fallback}) {
        const char *name = feedServedName(served);
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::strlen(name), 0u);
        EXPECT_STRNE(name, "?");
    }
    EXPECT_STREQ(feedServedName(FeedServed::Live), "live");
}

TEST(SyntheticFeed, SeededRunsAreBitIdentical)
{
    const FeatureNoise noise{25.0, 0.3};
    SyntheticCounterFeed a(noise, 77);
    SyntheticCounterFeed b(noise, 77);
    SyntheticCounterFeed other(noise, 78);

    bool any_diff = false;
    for (int step = 0; step < 20; ++step) {
        std::vector<double> sa = {10.0 + step, 20.0, 30.0, 4.0};
        std::vector<double> sb = sa;
        std::vector<double> sc = sa;
        const FeedQuality qa = a.observe(sa, 3);
        const FeedQuality qb = b.observe(sb, 3);
        other.observe(sc, 3);
        EXPECT_EQ(qa.errorPct, qb.errorPct);
        EXPECT_EQ(qa.served, FeedServed::Live);
        for (std::size_t i = 0; i < sa.size(); ++i)
            ASSERT_EQ(shim::doubleBits(sa[i]), shim::doubleBits(sb[i]))
                << "step " << step << " signal " << i;
        for (std::size_t i = 0; i < sa.size(); ++i)
            any_diff |= shim::doubleBits(sa[i]) != shim::doubleBits(sc[i]);
    }
    EXPECT_TRUE(any_diff) << "different seeds produced the same stream";
    EXPECT_EQ(a.stats().observations, 20u);
    EXPECT_EQ(a.stats().liveObservations, 20u);
    EXPECT_EQ(a.stats().degradedPolls(), 0u);
}

TEST(SyntheticFeed, ZeroNoiseIsIdentityAndTailPassesThrough)
{
    SyntheticCounterFeed clean(FeatureNoise{0.0, 0.0}, 5);
    std::vector<double> sig = {1.5, -0.0, 2.75, 8.0};
    const std::vector<double> orig = sig;
    clean.observe(sig, 2);
    for (std::size_t i = 0; i < sig.size(); ++i)
        EXPECT_EQ(shim::doubleBits(sig[i]), shim::doubleBits(orig[i]));

    // Heavy noise still never touches the non-HPC tail.
    SyntheticCounterFeed noisy(FeatureNoise{80.0, 0.4}, 5);
    for (int step = 0; step < 10; ++step) {
        std::vector<double> s = {3.0, 4.0, 5.5, 6.25};
        noisy.observe(s, 2);
        EXPECT_EQ(shim::doubleBits(s[2]), shim::doubleBits(5.5));
        EXPECT_EQ(shim::doubleBits(s[3]), shim::doubleBits(6.25));
    }
}

TEST(SyntheticFeed, StalenessMixesThePreviousTruth)
{
    // Pure staleness (no error): the second observation must be the
    // exact convex mix of the previous and current true signals.
    SyntheticCounterFeed feed(FeatureNoise{0.0, 0.25}, 9);
    std::vector<double> first = {100.0, 200.0, 7.0};
    feed.observe(first, 2);
    EXPECT_EQ(first[0], 100.0); // no previous truth yet
    EXPECT_EQ(first[1], 200.0);

    std::vector<double> second = {40.0, 120.0, 7.0};
    feed.observe(second, 2);
    EXPECT_DOUBLE_EQ(second[0], 0.75 * 40.0 + 0.25 * 100.0);
    EXPECT_DOUBLE_EQ(second[1], 0.75 * 120.0 + 0.25 * 200.0);
    EXPECT_EQ(second[2], 7.0);
}

/** Shim feed config used by the in-process tests: watch session 42,
 * short last-good hold so the fallback transition is testable. */
ShimFeedConfig
watchedConfig(std::size_t hold = 2)
{
    ShimFeedConfig cfg;
    cfg.watchedSessions = {42};
    cfg.holdLastGoodObservations = hold;
    cfg.fallback = FeatureNoise{38.0, 0.5};
    return cfg;
}

TEST(ShimFeed, DerivesLiveQualityFromThePosterior)
{
    shim::SnapshotRegion region(shim::SnapshotRegionConfig{4, 8});
    const std::vector<sim::EventId> events = {3, 9};
    // Relative stddevs 5% and 5% -> errorPct exactly 5.0.
    const std::vector<core::PosteriorPoint> posterior = {{100.0, 5.0},
                                                         {200.0, 10.0}};
    region.write(0, 42, 1, 6, sampleExecution(), events, posterior,
                 shim::steadyNowNanos());

    ShimCounterFeed feed(shim::SnapshotReader(region), watchedConfig());
    std::vector<double> sig = {50.0, 60.0, 70.0};
    const FeedQuality quality = feed.observe(sig, 2);

    EXPECT_EQ(quality.served, FeedServed::Live);
    EXPECT_NEAR(quality.errorPct, 5.0, 1e-9);
    EXPECT_LT(quality.staleness, 0.1); // just-published snapshot
    ASSERT_TRUE(feed.lastSnapshot().has_value());
    const shim::PosteriorSnapshot &snap = *feed.lastSnapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    for (std::size_t i = 0; i < posterior.size(); ++i) {
        EXPECT_EQ(snap.counters[i].event, events[i]);
        EXPECT_EQ(shim::doubleBits(snap.counters[i].posterior.mean),
                  shim::doubleBits(posterior[i].mean));
        EXPECT_EQ(shim::doubleBits(snap.counters[i].posterior.stddev),
                  shim::doubleBits(posterior[i].stddev));
    }
    EXPECT_EQ(feed.stats().okPolls, 1u);
    EXPECT_EQ(feed.stats().liveObservations, 1u);
    EXPECT_EQ(feed.stats().degradedPolls(), 0u);
}

TEST(ShimFeed, SkipsTheSelfMetricsPseudoSession)
{
    shim::SnapshotRegion region(shim::SnapshotRegionConfig{4, 8});
    // Session 0 (the daemon's self-metrics) with absurd uncertainty:
    // if it were polled, the clamp would push errorPct to the ceiling.
    region.write(0, 0, 1, 1, sampleExecution(), {1},
                 {core::PosteriorPoint{1.0, 100.0}},
                 shim::steadyNowNanos());
    region.write(1, 7, 1, 1, sampleExecution(), {2},
                 {core::PosteriorPoint{100.0, 5.0}},
                 shim::steadyNowNanos());

    ShimFeedConfig cfg; // empty watch list: scan everything but 0
    ShimCounterFeed feed(shim::SnapshotReader(region), cfg);
    std::vector<double> sig = {1.0, 2.0};
    const FeedQuality quality = feed.observe(sig, 1);
    EXPECT_EQ(quality.served, FeedServed::Live);
    EXPECT_NEAR(quality.errorPct, 5.0, 1e-9);
    EXPECT_EQ(feed.stats().okPolls, 1u);
}

TEST(ShimFeed, FallsBackBeforeTheFirstSuccessfulPoll)
{
    shim::SnapshotRegion region(shim::SnapshotRegionConfig{2, 4});
    ShimCounterFeed feed(shim::SnapshotReader(region), watchedConfig());
    std::vector<double> sig = {10.0, 20.0};
    const FeedQuality quality = feed.observe(sig, 1);
    EXPECT_EQ(quality.served, FeedServed::Fallback);
    EXPECT_EQ(quality.errorPct, 38.0);
    EXPECT_EQ(quality.staleness, 0.5);
    EXPECT_EQ(feed.stats().notFoundPolls, 1u);
    EXPECT_EQ(feed.stats().fallbackObservations, 1u);
}

TEST(ShimFeed, DegradesToLastGoodThenFallbackOnWriterDeath)
{
    shim::SnapshotRegion region(shim::SnapshotRegionConfig{4, 8});
    const std::vector<sim::EventId> events = {3};
    region.write(0, 42, 1, 6, sampleExecution(), events,
                 {core::PosteriorPoint{100.0, 5.0}},
                 shim::steadyNowNanos());

    ShimCounterFeed feed(shim::SnapshotReader(region),
                         watchedConfig(/*hold=*/2));
    std::vector<double> sig = {50.0, 60.0};
    const FeedQuality live = feed.observe(sig, 1);
    ASSERT_EQ(live.served, FeedServed::Live);

    // The writer "dies" mid-publish: the next write leaves the slot's
    // sequence odd forever, exactly what a crashed daemon leaves.  Its
    // stamp, which the heartbeat takes when the publish opens, is
    // from long ago, so the writer has been silent since.
    shim::WriterFaultInjection faults;
    faults.armed = true;
    faults.skipFinalEvenStoreAtPublish = 2;
    region.setFaultInjection(faults);
    region.write(0, 42, 2, 12, sampleExecution(), events,
                 {core::PosteriorPoint{101.0, 5.0}},
                 /*publish_nanos=*/1);

    // Two observations ride on the last-good quality...
    for (int i = 0; i < 2; ++i) {
        std::vector<double> s = {50.0, 60.0};
        const FeedQuality q = feed.observe(s, 1);
        EXPECT_EQ(q.served, FeedServed::LastGood) << i;
        EXPECT_EQ(q.errorPct, live.errorPct) << i;
        EXPECT_EQ(q.staleness, live.staleness) << i;
    }
    // ...then the hold budget expires and the fallback profile serves.
    std::vector<double> s = {50.0, 60.0};
    const FeedQuality q = feed.observe(s, 1);
    EXPECT_EQ(q.served, FeedServed::Fallback);
    EXPECT_EQ(q.errorPct, 38.0);
    EXPECT_EQ(q.staleness, 0.5);

    const FeedStats stats = feed.stats();
    EXPECT_EQ(stats.writerDeadPolls, 3u);
    EXPECT_EQ(stats.lastGoodObservations, 2u);
    EXPECT_EQ(stats.fallbackObservations, 1u);
    EXPECT_EQ(stats.observations, 4u);
    // The last consistent snapshot is still the pre-death one.
    ASSERT_TRUE(feed.lastSnapshot().has_value());
    EXPECT_EQ(feed.lastSnapshot()->windowIndex, 1u);
}

TEST(ShimFeed, AttachToMissingSegmentIsTypedAndRetryable)
{
    const ShimFeedAttach attached =
        ShimCounterFeed::attach(uniqueShmName("feed-missing"));
    EXPECT_FALSE(attached);
    EXPECT_EQ(attached.status, shim::AttachStatus::NoSegment);
    EXPECT_TRUE(attached.retryable());
}

} // namespace
} // namespace ml

// ---------------------------------------------------------------- service
// Bit-identity between the feed's snapshot and the subscription
// stream requires the full daemon; same namespace layout as
// test_shim.cpp's service section.

namespace service {
namespace {

const sim::MicroarchDescriptor &
uarch()
{
    static const sim::MicroarchDescriptor u = sim::makeX86Skylake();
    return u;
}

std::vector<sim::EventId>
monitoredSet()
{
    std::vector<sim::EventId> events;
    for (sim::EventId e : uarch().fixedEvents())
        events.push_back(e);
    for (sim::Role r :
         {sim::Role::LlcMiss, sim::Role::L2Miss, sim::Role::L1DMiss,
          sim::Role::Loads, sim::Role::Stores, sim::Role::Branches,
          sim::Role::BranchMisses, sim::Role::StallMem})
        events.push_back(uarch().idForRole(r));
    return events;
}

TEST(ShimFeedService, ObservationQualityMatchesSubscriptionStream)
{
    MonitorServiceConfig cfg;
    cfg.numWorkers = 2;
    cfg.sessionDefaults.streaming.inference.windowSlices = 6;
    cfg.snapshot.enabled = true;
    cfg.snapshot.slots = 8;
    cfg.snapshot.maxEvents = 32;
    MonitorService daemon(uarch(), cfg);
    ASSERT_NE(daemon.snapshotRegion(), nullptr);
    const SessionId id = daemon.open(monitoredSet());
    const auto monitored = daemon.monitoredEvents(id);

    std::mutex mutex;
    std::vector<WindowUpdate> updates;
    const auto sub = daemon.subscribe(id, [&](const WindowUpdate &u) {
        std::lock_guard<std::mutex> lock(mutex);
        updates.push_back(u);
    });
    ASSERT_TRUE(sub.has_value());

    const sim::GroundTruthGenerator generator(
        uarch(), wl::makeHibench("KMeans"));
    const sim::TruthTrace truth = generator.generate(24, 6101);
    sim::PerfSessionConfig session_cfg;
    session_cfg.seed = 6101 * 3 + 1;
    sim::PerfSession session(uarch(), session_cfg);
    const auto run = session.runRoundRobin(truth, monitored);
    daemon.ingestBatch(id, recordStream(run));
    daemon.quiesce();
    daemon.flushSubscriptions();

    ml::ShimFeedConfig feed_cfg;
    feed_cfg.watchedSessions = {id};
    ml::ShimCounterFeed feed(
        shim::SnapshotReader(*daemon.snapshotRegion()), feed_cfg);
    std::vector<double> sig = {1.0, 2.0, 3.0};
    const ml::FeedQuality quality = feed.observe(sig, 2);
    ASSERT_EQ(quality.served, ml::FeedServed::Live);

    // The feed's snapshot is the subscription stream's last window,
    // bit for bit — a live consumer sees exactly what a subscriber
    // would, just through shared memory.
    ASSERT_TRUE(feed.lastSnapshot().has_value());
    const shim::PosteriorSnapshot &snap = *feed.lastSnapshot();
    {
        std::lock_guard<std::mutex> lock(mutex);
        ASSERT_FALSE(updates.empty());
        const WindowUpdate &last = updates.back();
        EXPECT_EQ(snap.sessionId, last.sessionId);
        EXPECT_EQ(snap.windowIndex, last.windowIndex);
        EXPECT_EQ(snap.endSlice, last.endSlice);
        ASSERT_EQ(snap.counters.size(), last.posterior.size());
        double rel_sum = 0.0;
        for (std::size_t i = 0; i < snap.counters.size(); ++i) {
            EXPECT_EQ(snap.counters[i].event, last.events[i]);
            EXPECT_EQ(shim::doubleBits(snap.counters[i].posterior.mean),
                      shim::doubleBits(last.posterior[i].mean));
            EXPECT_EQ(
                shim::doubleBits(snap.counters[i].posterior.stddev),
                shim::doubleBits(last.posterior[i].stddev));
            rel_sum += last.posterior[i].stddev /
                       std::max(std::abs(last.posterior[i].mean), 1e-9);
        }
        // And the quality stamp is the clamp of exactly that mean
        // relative posterior uncertainty.
        const double expected =
            std::clamp(100.0 * rel_sum /
                           static_cast<double>(snap.counters.size()),
                       feed_cfg.minErrorPct, feed_cfg.maxErrorPct);
        EXPECT_NEAR(quality.errorPct, expected, 1e-9);
    }
    daemon.close(id);
    daemon.flushSubscriptions();
}

} // namespace
} // namespace service

// ------------------------------------------------------------ cross-process
#ifndef BPERF_TSAN

namespace ml {
namespace {

/** One-byte pipe handshake. */
bool
sendByte(int fd, char c)
{
    return ::write(fd, &c, 1) == 1;
}
bool
recvByte(int fd, char expected)
{
    char c = 0;
    return ::read(fd, &c, 1) == 1 && c == expected;
}

TEST(ShimFeedCrossProcess, ChildWriterFeedsParentThenDiesMidPublish)
{
    const std::string name = uniqueShmName("feed-fork");
    const std::vector<core::PosteriorPoint> posterior = {{320.0, 16.0}};

    int c2p[2], p2c[2];
    ASSERT_EQ(::pipe(c2p), 0);
    ASSERT_EQ(::pipe(p2c), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: a perf_daemon-style writer on a named segment.
        ::close(c2p[0]);
        ::close(p2c[1]);
        shim::SnapshotRegion region(shim::SnapshotRegionConfig{4, 8},
                                    name);
        region.write(0, /*session_id=*/9, /*window_index=*/1,
                     /*end_slice=*/6, sampleExecution(), {3}, posterior,
                     shim::steadyNowNanos());
        if (!sendByte(c2p[1], 'a') || !recvByte(p2c[0], 'g'))
            ::_exit(4);
        // Freeze the slot odd — the mid-publish state a crash leaves —
        // under a publish stamp from long ago, so the wedged writer's
        // heartbeat is silent.
        shim::WriterFaultInjection faults;
        faults.armed = true;
        faults.skipFinalEvenStoreAtPublish = 2;
        region.setFaultInjection(faults);
        region.write(0, 9, 2, 12, sampleExecution(), {3}, posterior,
                     /*publish_nanos=*/1);
        if (!sendByte(c2p[1], 'b'))
            ::_exit(4);
        for (;;) // parent SIGKILLs us; never run the destructor
            ::pause();
    }
    ::close(c2p[1]);
    ::close(p2c[0]);
    ASSERT_TRUE(recvByte(c2p[0], 'a'));

    // Attach with retry — only retryable statuses keep us looping.
    ShimFeedConfig cfg;
    cfg.watchedSessions = {9};
    cfg.holdLastGoodObservations = 1;
    std::optional<ShimCounterFeed> feed;
    for (int i = 0; i < 500 && !feed; ++i) {
        ShimFeedAttach attached = ShimCounterFeed::attach(name, cfg);
        if (attached) {
            feed = std::move(attached.feed);
            break;
        }
        ASSERT_TRUE(attached.retryable())
            << shim::attachStatusName(attached.status);
        ::usleep(2000);
    }
    ASSERT_TRUE(feed.has_value());

    std::vector<double> sig = {5.0, 7.0};
    const FeedQuality live = feed->observe(sig, 1);
    EXPECT_EQ(live.served, FeedServed::Live);
    EXPECT_NEAR(live.errorPct, 5.0, 1e-9); // 16/320 = 5%
    ASSERT_TRUE(feed->lastSnapshot().has_value());
    ASSERT_EQ(feed->lastSnapshot()->counters.size(), 1u);
    EXPECT_EQ(
        shim::doubleBits(feed->lastSnapshot()->counters[0].posterior.mean),
        shim::doubleBits(posterior[0].mean));
    EXPECT_EQ(shim::doubleBits(
                  feed->lastSnapshot()->counters[0].posterior.stddev),
              shim::doubleBits(posterior[0].stddev));

    ASSERT_TRUE(sendByte(p2c[1], 'g'));
    ASSERT_TRUE(recvByte(c2p[0], 'b'));

    // The writer is wedged mid-publish: the poll verdict is
    // WriterDead and the feed degrades, first to last-good...
    std::vector<double> s1 = {5.0, 7.0};
    const FeedQuality held = feed->observe(s1, 1);
    EXPECT_EQ(held.served, FeedServed::LastGood);
    EXPECT_EQ(held.errorPct, live.errorPct);
    // ...then to the fallback profile once the hold budget expires.
    std::vector<double> s2 = {5.0, 7.0};
    const FeedQuality fallen = feed->observe(s2, 1);
    EXPECT_EQ(fallen.served, FeedServed::Fallback);
    const FeedStats stats = feed->stats();
    EXPECT_EQ(stats.okPolls, 1u);
    EXPECT_EQ(stats.writerDeadPolls, 2u);
    EXPECT_EQ(stats.lastGoodObservations, 1u);
    EXPECT_EQ(stats.fallbackObservations, 1u);

    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ::close(c2p[0]);
    ::close(p2c[1]);
    // The SIGKILLed child never unlinked its segment.
    ::shm_unlink(name.c_str());
}

} // namespace
} // namespace ml

#endif // !BPERF_TSAN

} // namespace bperf

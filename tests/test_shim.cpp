/** @file Tests for the shared-memory posterior snapshot shim:
 * seqlock write/read round trips (bit-identical doubles), torn-write
 * retry under a hammering writer, writer-death verdicts judged from
 * the heartbeat (a stalled live writer reads Torn, a silent one
 * WriterDead), readers attaching before the first
 * publish, slot invalidation on session close, the reader's
 * session -> slot hint (moved and colliding sessions, a torn hinted
 * slot spun once per read, two threads on one reader), failed reads
 * leaving `out` untouched, zero allocations
 * per steady-state read, the service publisher
 * mirroring the subscription stream bit for bit, and cross-process
 * reads through a forked child attached to a named POSIX shm
 * segment.  The in-process tests run under TSan in CI; the fork
 * tests are skipped there (fork + TSan runtime do not mix). */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "counting_new.h"
#include "service/monitor_service.h"
#include "service/record_stream.h"
#include "shim/snapshot_reader.h"
#include "shim/snapshot_region.h"
#include "sim/ground_truth.h"
#include "telemetry/telemetry.h"
#include "workloads/hibench.h"

#if defined(__SANITIZE_THREAD__)
#define BPERF_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BPERF_TSAN 1
#endif
#endif

namespace bperf {
namespace shim {
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
    exec.engineId = 3;
    exec.endSlice = 17;
    exec.queueWaitSeconds = 1.25e-4;
    exec.serviceSeconds = 2.5e-4;
    exec.transferSeconds = 0.5e-4;
    exec.modeledSeconds = 3.75e-4;
    return exec;
}

TEST(SnapshotRegion, WriteReadRoundTripBitIdentical)
{
    SnapshotRegion region(SnapshotRegionConfig{4, 8});
    SnapshotReader reader(region);

    // Values chosen to catch any text or float-rounding path: bit
    // patterns must survive exactly, including -0.0 and subnormals.
    const std::vector<sim::EventId> events = {7, 11, 900001};
    std::vector<core::PosteriorPoint> posterior(3);
    posterior[0] = {1.0 / 3.0, 5e-324};
    posterior[1] = {-0.0, 1.2345678901234567e8};
    posterior[2] = {6.02214076e23, 2.0 / 7.0};

    region.write(/*slot=*/2, /*session_id=*/42, /*window_index=*/9,
                 /*end_slice=*/17, sampleExecution(), events, posterior,
                 /*publish_nanos=*/123456789);

    PosteriorSnapshot snap;
    ASSERT_EQ(reader.read(42, snap), ReadStatus::Ok);
    EXPECT_EQ(snap.sessionId, 42u);
    EXPECT_EQ(snap.windowIndex, 9u);
    EXPECT_EQ(snap.endSlice, 17u);
    EXPECT_EQ(snap.publishNanos, 123456789u);
    EXPECT_EQ(snap.retries, 0u);
    EXPECT_EQ(snap.execution.engineId, 3u);
    EXPECT_EQ(doubleBits(snap.execution.queueWaitSeconds),
              doubleBits(1.25e-4));
    EXPECT_EQ(doubleBits(snap.execution.modeledSeconds),
              doubleBits(3.75e-4));
    ASSERT_EQ(snap.counters.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(snap.counters[i].event, events[i]);
        EXPECT_EQ(doubleBits(snap.counters[i].posterior.mean),
                  doubleBits(posterior[i].mean));
        EXPECT_EQ(doubleBits(snap.counters[i].posterior.stddev),
                  doubleBits(posterior[i].stddev));
    }
    EXPECT_EQ(region.publishes(), 1u);
    EXPECT_EQ(reader.publishes(), 1u);
}

TEST(SnapshotReader, AttachBeforeFirstPublishSeesNothing)
{
    SnapshotRegion region(SnapshotRegionConfig{4, 8});
    SnapshotReader reader(region);

    EXPECT_EQ(reader.publishes(), 0u);
    EXPECT_TRUE(reader.sessions().empty());
    PosteriorSnapshot snap;
    EXPECT_EQ(reader.read(1, snap), ReadStatus::NotFound);
    for (std::size_t slot = 0; slot < reader.slots(); ++slot)
        EXPECT_EQ(reader.readSlot(slot, snap), ReadStatus::NotFound);
}

TEST(SnapshotRegion, InvalidateHidesSlotAndAllowsReuse)
{
    SnapshotRegion region(SnapshotRegionConfig{2, 4});
    SnapshotReader reader(region);
    const std::vector<sim::EventId> events = {1, 2};
    const std::vector<core::PosteriorPoint> posterior = {{10.0, 1.0},
                                                         {20.0, 2.0}};

    region.write(0, 7, 0, 5, sampleExecution(), events, posterior, 1);
    PosteriorSnapshot snap;
    ASSERT_EQ(reader.read(7, snap), ReadStatus::Ok);

    region.invalidate(0);
    EXPECT_EQ(reader.read(7, snap), ReadStatus::NotFound);
    EXPECT_EQ(reader.readSlot(0, snap), ReadStatus::NotFound);
    EXPECT_TRUE(reader.sessions().empty());

    // A successor session can take the slot over; only it is visible.
    region.write(0, 8, 0, 6, sampleExecution(), events, posterior, 2);
    ASSERT_EQ(reader.read(8, snap), ReadStatus::Ok);
    EXPECT_EQ(snap.sessionId, 8u);
    EXPECT_EQ(reader.read(7, snap), ReadStatus::NotFound);
}

TEST(SnapshotReader, TornWritesRetriedNeverReturned)
{
    // One writer hammering a slot with a self-consistent pattern
    // (every field derived from the window index); a reader polling
    // concurrently must only ever observe consistent snapshots —
    // torn reads surface as retries or ReadStatus::Torn, never as a
    // mixed payload.  The writer publishes in back-to-back bursts
    // that tear concurrent reads, and pauses between bursts so that
    // it cannot starve the reader of stable windows.
    constexpr std::size_t kEvents = 13;
    constexpr std::uint64_t kBurstPublishes = 64;
    SnapshotRegion region(SnapshotRegionConfig{2, kEvents});

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        std::vector<sim::EventId> events(kEvents);
        std::vector<core::PosteriorPoint> posterior(kEvents);
        std::uint64_t w = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            ++w;
            for (std::size_t i = 0; i < kEvents; ++i) {
                events[i] = static_cast<sim::EventId>(w % 1000 + i);
                posterior[i].mean = static_cast<double>(w * kEvents + i);
                posterior[i].stddev =
                    static_cast<double>(w * kEvents + i) + 0.5;
            }
            core::WindowExecution exec;
            exec.engineId = static_cast<std::size_t>(w % 7);
            exec.modeledSeconds = static_cast<double>(w) * 1e-9;
            region.write(0, /*session_id=*/1, w, /*end_slice=*/w + 3,
                         exec, events, posterior, /*publish_nanos=*/w);
            if (w % kBurstPublishes == 0)
                std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });

    SnapshotReader reader(region);
    std::uint64_t ok_reads = 0;
    std::uint64_t torn_reads = 0;
    std::uint64_t retried_reads = 0;
    PosteriorSnapshot snap;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (std::chrono::steady_clock::now() < deadline) {
        const ReadStatus status = reader.readSlot(0, snap);
        if (status == ReadStatus::Torn) {
            ++torn_reads;
            continue;
        }
        if (status != ReadStatus::Ok)
            continue; // writer has not published yet
        ++ok_reads;
        if (snap.retries > 0)
            ++retried_reads;
        const std::uint64_t w = snap.windowIndex;
        ASSERT_EQ(snap.endSlice, w + 3);
        ASSERT_EQ(snap.publishNanos, w);
        ASSERT_EQ(snap.execution.engineId, w % 7);
        ASSERT_EQ(doubleBits(snap.execution.modeledSeconds),
                  doubleBits(static_cast<double>(w) * 1e-9));
        ASSERT_EQ(snap.counters.size(), kEvents);
        for (std::size_t i = 0; i < kEvents; ++i) {
            ASSERT_EQ(snap.counters[i].event,
                      static_cast<sim::EventId>(w % 1000 + i));
            ASSERT_EQ(doubleBits(snap.counters[i].posterior.mean),
                      doubleBits(static_cast<double>(w * kEvents + i)));
            ASSERT_EQ(
                doubleBits(snap.counters[i].posterior.stddev),
                doubleBits(static_cast<double>(w * kEvents + i) + 0.5));
        }
    }
    stop.store(true);
    writer.join();
    // The reader must have made progress against the hammering
    // writer.  Torn outcomes are legal in any ratio: on a single
    // core, a writer descheduled mid-publish leaves the sequence odd
    // for a whole scheduler quantum and every read in it is torn —
    // what is never legal is an inconsistent payload, asserted above
    // for every one of the (typically hundreds of thousands of)
    // successful reads.
    EXPECT_GT(ok_reads, 100u);
    EXPECT_GT(region.publishes(), 0u);
    (void)torn_reads;    // ratio is scheduling-dependent
    (void)retried_reads; // informational; contention is not guaranteed
}

TEST(SnapshotReader, FrozenOddSequenceReportsWriterDead)
{
    SnapshotRegion region(SnapshotRegionConfig{2, 4});
    // Forge a stalled publish: bump the slot sequence to odd and
    // leave it there under a heartbeat stamped long ago, exactly the
    // state a writer dying mid-burst leaves behind once its heartbeat
    // has gone silent.
    region.heartbeat(1);
    auto *slot = slotAt(const_cast<std::byte *>(region.base()),
                        region.layout(), 1);
    slot->sessionId.store(9, std::memory_order_relaxed);
    slot->active.store(1, std::memory_order_relaxed);
    slot->seq.store(1, std::memory_order_release);

    SnapshotReader reader(region);
    PosteriorSnapshot snap;
    EXPECT_EQ(reader.readSlot(1, snap), ReadStatus::WriterDead);
    // The by-session scan reports the dead slot over NotFound: the
    // stalled slot *could* hold the requested session, and a retry
    // loop keyed on Torn would spin forever against it.
    EXPECT_EQ(reader.read(9, snap), ReadStatus::WriterDead);
    // Untouched slots are unaffected.
    EXPECT_EQ(reader.readSlot(0, snap), ReadStatus::NotFound);
    EXPECT_STREQ(readStatusName(ReadStatus::WriterDead), "writer-dead");
}

TEST(SnapshotReader, OddSequenceFirstSeenMidScanStillReportsWriterDead)
{
    // Regression (PR 8): the PR 7 detector armed only on the odd
    // value observed by attempt 0, so a slot that advanced to a *new*
    // odd value mid-scan and then froze was reported Torn forever —
    // recreating the spin-forever loop WriterDead exists to break.
    SnapshotRegion region(SnapshotRegionConfig{2, 4});
    region.heartbeat(1); // the writer has been silent for ages
    auto *slot = slotAt(const_cast<std::byte *>(region.base()),
                        region.layout(), 1);
    slot->sessionId.store(9, std::memory_order_relaxed);
    slot->active.store(1, std::memory_order_relaxed);
    slot->seq.store(1, std::memory_order_release);

    SnapshotReader reader(region);
    // Deterministic mid-scan death: attempt 0 sees the slot odd on 1
    // (arming the old detector on that value), then the writer
    // "advances" to odd 3 before attempt 1 and dies there.  The slot
    // is still odd on 3 when the budget runs out.
    reader.setRetryProbe([&](std::size_t attempt) {
        if (attempt == 1)
            slot->seq.store(3, std::memory_order_release);
    });
    PosteriorSnapshot snap;
    EXPECT_EQ(reader.readSlot(1, snap), ReadStatus::WriterDead);

    // The verdict is quarantined: the next probe is answered from the
    // quarantine table (no fresh retry loop) until the sequence moves.
    reader.setRetryProbe(nullptr);
    EXPECT_EQ(reader.read(9, snap), ReadStatus::WriterDead);
    const ReaderStats stats = reader.stats();
    EXPECT_EQ(stats.deadReads, 2u);
    EXPECT_GE(stats.quarantineSkips, 1u);
    EXPECT_EQ(stats.quarantinedSlots, 1u);
}

TEST(SnapshotReader, StalledPublishUnderFreshHeartbeatReadsTorn)
{
    // A live writer descheduled mid-publish: the slot stays odd past
    // any retry budget, but the publish stamped the heartbeat when it
    // opened.  That reads Torn at the default budget and at 2^22
    // spins, is never quarantined, and the slot reads Ok again once
    // the writer closes a publish.
    SnapshotRegion region(SnapshotRegionConfig{2, 4});
    WriterFaultInjection faults;
    faults.skipFinalEvenStoreAtPublish = 2;
    region.setFaultInjection(faults);
    const std::vector<sim::EventId> events = {1, 2};
    const std::vector<core::PosteriorPoint> posterior = {{10.0, 1.0},
                                                         {20.0, 2.0}};
    region.write(0, 5, 0, 3, sampleExecution(), events, posterior,
                 steadyNowNanos());
    region.write(0, 5, 1, 4, sampleExecution(), events, posterior,
                 steadyNowNanos()); // left open

    SnapshotReader reader(region);
    PosteriorSnapshot snap;
    EXPECT_EQ(reader.readSlot(0, snap), ReadStatus::Torn);
    EXPECT_EQ(reader.read(5, snap), ReadStatus::Torn);
    EXPECT_EQ(reader.readSlot(0, snap, std::size_t{1} << 22),
              ReadStatus::Torn);
    EXPECT_EQ(reader.read(5, snap, std::size_t{1} << 22),
              ReadStatus::Torn);
    const ReaderStats stats = reader.stats();
    EXPECT_EQ(stats.tornReads, 4u);
    EXPECT_EQ(stats.deadReads, 0u);
    EXPECT_EQ(stats.quarantinedSlots, 0u);
    EXPECT_EQ(stats.quarantineSkips, 0u);

    region.write(0, 5, 2, 5, sampleExecution(), events, posterior,
                 steadyNowNanos());
    ASSERT_EQ(reader.read(5, snap), ReadStatus::Ok);
    EXPECT_EQ(snap.windowIndex, 2u);
    EXPECT_EQ(reader.stats().okReads, 1u);
}

TEST(SnapshotReader, PublishOpenedAfterLongSilenceReadsTorn)
{
    // A writer silent for longer than the bound opens a publish and
    // stalls in it.  The heartbeat it had before was stale, but the
    // publish stamped it when it opened, so the writer is live: Torn.
    SnapshotRegion region(SnapshotRegionConfig{2, 4});
    WriterFaultInjection faults;
    faults.skipFinalEvenStoreAtPublish = 2;
    region.setFaultInjection(faults);
    const std::vector<sim::EventId> events = {1, 2};
    const std::vector<core::PosteriorPoint> posterior = {{10.0, 1.0},
                                                         {20.0, 2.0}};
    region.write(0, 5, 0, 3, sampleExecution(), events, posterior,
                 /*publish_nanos=*/1); // long ago
    SnapshotReader reader(region);
    EXPECT_GT(reader.writerIdleNanos(), SnapshotReader::kWriterSilentNanos);

    region.write(0, 5, 1, 4, sampleExecution(), events, posterior,
                 steadyNowNanos()); // opened now, left open
    EXPECT_LT(reader.writerIdleNanos(), SnapshotReader::kWriterSilentNanos);
    PosteriorSnapshot snap;
    EXPECT_EQ(reader.readSlot(0, snap), ReadStatus::Torn);
    EXPECT_EQ(reader.read(5, snap), ReadStatus::Torn);
    EXPECT_EQ(reader.stats().deadReads, 0u);
    EXPECT_EQ(reader.stats().quarantinedSlots, 0u);
}

TEST(SnapshotReader, LiveWriterIsNeverReportedDead)
{
    // A writer republishing one 13-event slot back to back, stamping
    // the real clock.  Default-budget reads often run out on a
    // publish in flight (Torn), but none may call the writer dead.
    constexpr std::size_t kEvents = 13;
    SnapshotRegion region(SnapshotRegionConfig{1, kEvents});
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        const std::vector<sim::EventId> events(kEvents);
        const std::vector<core::PosteriorPoint> posterior(kEvents,
                                                          {1e6, 42.0});
        for (std::uint64_t w = 0; !stop.load(std::memory_order_relaxed);
             ++w)
            region.write(0, /*session_id=*/1, w, w, sampleExecution(),
                         events, posterior, steadyNowNanos());
    });

    SnapshotReader reader(region);
    PosteriorSnapshot snap;
    std::uint64_t reads = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (std::chrono::steady_clock::now() < deadline) {
        (void)reader.readSlot(0, snap);
        ++reads;
    }
    stop.store(true);
    writer.join();
    const ReaderStats stats = reader.stats();
    EXPECT_GT(reads, 0u);
    EXPECT_EQ(stats.deadReads, 0u);
    EXPECT_EQ(stats.quarantinedSlots, 0u);
    EXPECT_EQ(stats.corruptReads, 0u);
}

TEST(SnapshotReader, FlippedPayloadWordReadsCorruptNeverOk)
{
    SnapshotRegion region(SnapshotRegionConfig{2, 4});
    const std::vector<sim::EventId> events = {1, 2};
    const std::vector<core::PosteriorPoint> posterior = {{10.0, 1.0},
                                                         {20.0, 2.0}};
    region.write(0, 5, 0, 3, sampleExecution(), events, posterior, 1);

    SnapshotReader reader(region);
    PosteriorSnapshot snap;
    ASSERT_EQ(reader.readSlot(0, snap), ReadStatus::Ok);

    // Flip one bit of one posterior word outside any seqlock window:
    // the sequence stays stable and even, so only the checksum can
    // catch it — and must, on the by-slot read, the by-session scan,
    // and the session listing alike.
    auto *slot = slotAt(const_cast<std::byte *>(region.base()),
                        region.layout(), 0);
    slot->events()[0].meanBits.fetch_xor(1ull << 17,
                                         std::memory_order_relaxed);
    EXPECT_EQ(reader.readSlot(0, snap), ReadStatus::Corrupt);
    EXPECT_EQ(reader.read(5, snap), ReadStatus::Corrupt);
    EXPECT_TRUE(reader.sessions().empty());
    EXPECT_STREQ(readStatusName(ReadStatus::Corrupt), "corrupt");

    const ReaderStats stats = reader.stats();
    EXPECT_EQ(stats.corruptReads, 2u);
    EXPECT_EQ(stats.quarantinedSlots, 1u);
    EXPECT_GE(stats.quarantineSkips, 1u);

    // The next publish overwrites the flipped word and moves the
    // sequence, which lifts the quarantine: detection is per-payload,
    // not a permanent verdict on the slot.
    region.write(0, 5, 1, 4, sampleExecution(), events, posterior, 2);
    ASSERT_EQ(reader.readSlot(0, snap), ReadStatus::Ok);
    EXPECT_EQ(snap.windowIndex, 1u);
    EXPECT_EQ(reader.stats().quarantinedSlots, 0u);
}

TEST(SnapshotReader, SessionsReportsScanHealth)
{
    // Regression (PR 8): sessions() used to silently drop degraded
    // slots, so an enumerating consumer concluded those sessions were
    // gone.  The scan now reports how every slot answered.
    SnapshotRegion region(SnapshotRegionConfig{4, 4});
    const std::vector<sim::EventId> events = {1};
    const std::vector<core::PosteriorPoint> posterior = {{4.0, 0.5}};
    region.write(0, 5, 0, 3, sampleExecution(), events, posterior, 1);
    region.write(2, 6, 0, 3, sampleExecution(), events, posterior, 1);

    // Slot 1: frozen odd (writer died mid-publish; the publishes above
    // stamped the heartbeat at 1, long ago).  Slot 2: flipped payload
    // word.  Slot 3: never published.
    auto *dead = slotAt(const_cast<std::byte *>(region.base()),
                        region.layout(), 1);
    dead->seq.store(1, std::memory_order_release);
    auto *flipped = slotAt(const_cast<std::byte *>(region.base()),
                           region.layout(), 2);
    flipped->sessionId.fetch_xor(1ull << 9, std::memory_order_relaxed);

    SnapshotReader reader(region);
    ScanHealth health;
    const auto ids = reader.sessions(&health);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], 5u);
    EXPECT_EQ(health.active, 1u);
    EXPECT_EQ(health.empty, 1u);
    EXPECT_EQ(health.torn, 0u);
    EXPECT_EQ(health.writerDead, 1u);
    EXPECT_EQ(health.corrupt, 1u);
    EXPECT_EQ(health.degraded(), 2u);
}

TEST(SnapshotReader, WriterHeartbeatTracksPublishes)
{
    SnapshotRegion region(SnapshotRegionConfig{1, 2});
    SnapshotReader reader(region);
    // Creation stamps the first heartbeat; a publish re-stamps it
    // with the publish time; an explicit heartbeat() covers idle
    // writers between publishes.
    EXPECT_GT(reader.writerHeartbeatNanos(), 0u);
    const std::vector<sim::EventId> events = {1};
    const std::vector<core::PosteriorPoint> posterior = {{4.0, 0.5}};
    region.write(0, 1, 0, 1, sampleExecution(), events, posterior,
                 steadyNowNanos());
    EXPECT_LT(reader.writerIdleNanos(), 60ull * 1000000000ull);
    const std::uint64_t beat = steadyNowNanos();
    region.heartbeat(beat);
    EXPECT_EQ(reader.writerHeartbeatNanos(), beat);
}

TEST(SnapshotReader, AttachToMissingSegmentFails)
{
    const AttachResult result =
        SnapshotReader::attach(uniqueShmName("missing"));
    EXPECT_FALSE(result);
    EXPECT_TRUE(result.retryable());
    EXPECT_EQ(result.status, AttachStatus::NoSegment);
    EXPECT_STREQ(attachStatusName(result.status), "no-segment");
}

TEST(SnapshotReader, AttachToNamedSegmentSameProcess)
{
    const std::string name = uniqueShmName("named");
    SnapshotRegion region(SnapshotRegionConfig{3, 4}, name);
    EXPECT_EQ(region.shmName(), name);

    AttachResult attached = SnapshotReader::attach(name);
    ASSERT_TRUE(attached);
    EXPECT_EQ(attached.status, AttachStatus::Ok);
    auto &reader = attached.reader;
    EXPECT_EQ(reader->slots(), 3u);
    EXPECT_EQ(reader->maxEvents(), 4u);

    const std::vector<sim::EventId> events = {5};
    const std::vector<core::PosteriorPoint> posterior = {{3.5, 0.25}};
    region.write(1, 77, 4, 9, sampleExecution(), events, posterior, 11);

    PosteriorSnapshot snap;
    ASSERT_EQ(reader->read(77, snap), ReadStatus::Ok);
    EXPECT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(doubleBits(snap.counters[0].posterior.mean),
              doubleBits(3.5));
}

/** Every field of a snapshot as raw bits, for bit-identity checks. */
std::vector<std::uint64_t>
fieldBits(const PosteriorSnapshot &snap)
{
    const core::WindowExecution &e = snap.execution;
    std::vector<std::uint64_t> bits = {
        snap.sessionId, snap.windowIndex, snap.endSlice, e.engineId,
        e.endSlice, doubleBits(e.queueWaitSeconds),
        doubleBits(e.serviceSeconds), doubleBits(e.transferSeconds),
        doubleBits(e.modeledSeconds), e.windowOrdinal, e.span.traceId,
        e.span.ingestNanos, e.span.assembleNanos, e.span.epStartNanos,
        e.span.epEndNanos, e.span.publishNanos, snap.publishNanos,
        snap.ageNanos, snap.retries, snap.counters.size()};
    for (const SnapshotCounter &c : snap.counters) {
        bits.push_back(c.event);
        bits.push_back(doubleBits(c.posterior.mean));
        bits.push_back(doubleBits(c.posterior.stddev));
    }
    return bits;
}

/** A snapshot holding a distinctive value in every field, including
 * the execution fields no slot carries. */
PosteriorSnapshot
sentinelSnapshot()
{
    PosteriorSnapshot snap;
    snap.sessionId = 0xdead;
    snap.windowIndex = 41;
    snap.endSlice = 43;
    snap.execution = sampleExecution();
    snap.execution.windowOrdinal = 47;
    snap.execution.span = {1, 2, 3, 4, 5, 6};
    snap.counters = {{53, {-1.5, 0.25}}, {59, {6.5, 2.0}}};
    snap.publishNanos = 61;
    snap.ageNanos = 67;
    snap.retries = 71;
    return snap;
}

/** Publish `session_id` into `slot` with a payload derived from
 * (session, window), so a read can tell whose payload it got. */
void
publishTagged(SnapshotRegion &region, std::size_t slot,
              std::uint64_t session_id, std::uint64_t window,
              std::size_t event_count = 2)
{
    std::vector<sim::EventId> events(event_count);
    std::vector<core::PosteriorPoint> posterior(event_count);
    for (std::size_t i = 0; i < event_count; ++i) {
        events[i] = static_cast<sim::EventId>(session_id * 1000 + i);
        posterior[i].mean = static_cast<double>(window * 100 + i);
        posterior[i].stddev = static_cast<double>(session_id) + 0.5;
    }
    region.write(slot, session_id, window, /*end_slice=*/window + 3,
                 sampleExecution(), events, posterior,
                 /*publish_nanos=*/window);
}

/** Whether `snap` is exactly what publishTagged wrote. */
bool
isTagged(const PosteriorSnapshot &snap, std::uint64_t session_id,
         std::size_t event_count = 2)
{
    if (snap.sessionId != session_id ||
        snap.endSlice != snap.windowIndex + 3 ||
        snap.publishNanos != snap.windowIndex ||
        snap.counters.size() != event_count)
        return false;
    for (std::size_t i = 0; i < event_count; ++i) {
        const SnapshotCounter &c = snap.counters[i];
        if (c.event != static_cast<sim::EventId>(session_id * 1000 + i) ||
            doubleBits(c.posterior.mean) !=
                doubleBits(static_cast<double>(snap.windowIndex * 100 + i)) ||
            doubleBits(c.posterior.stddev) !=
                doubleBits(static_cast<double>(session_id) + 0.5))
            return false;
    }
    return true;
}

TEST(SnapshotReader, FailedReadsLeaveOutBitIdentical)
{
    // A consumer may keep its last-known snapshot across a failed
    // poll, so no outcome but Ok may write a single field of `out` —
    // whichever slot the read decoded on the way.
    SnapshotRegion region(SnapshotRegionConfig{4, 4});
    publishTagged(region, 0, /*session=*/1, /*window=*/1);
    publishTagged(region, 2, /*session=*/3, /*window=*/1);
    publishTagged(region, 3, /*session=*/4, /*window=*/1);
    SnapshotReader reader(region);
    PosteriorSnapshot out;
    for (std::uint64_t id : {1u, 3u, 4u}) // every session gets a hint
        ASSERT_EQ(reader.read(id, out), ReadStatus::Ok);
    const std::vector<std::uint64_t> want = fieldBits(sentinelSnapshot());
    const auto expectUntouched = [&](ReadStatus got, ReadStatus status,
                                     const char *what) {
        EXPECT_EQ(got, status) << what;
        EXPECT_EQ(fieldBits(out), want) << what;
        out = sentinelSnapshot();
    };
    out = sentinelSnapshot();

    expectUntouched(reader.read(99, out), ReadStatus::NotFound,
                    "unknown session");
    expectUntouched(reader.readSlot(1, out), ReadStatus::NotFound,
                    "empty slot");

    // Session 1's hinted slot is handed to session 2: the hint decode
    // is an Ok read of the wrong session and must not leak into out.
    region.invalidate(0);
    publishTagged(region, 0, /*session=*/2, /*window=*/5);
    expectUntouched(reader.read(1, out), ReadStatus::NotFound,
                    "hinted slot handed to another session");

    // Torn: the sequence is odd and moves on every attempt, under a
    // fresh heartbeat.
    publishTagged(region, 0, /*session=*/1, /*window=*/2);
    region.heartbeat(steadyNowNanos());
    ASSERT_EQ(reader.read(1, out), ReadStatus::Ok);
    out = sentinelSnapshot();
    auto *torn = slotAt(const_cast<std::byte *>(region.base()),
                        region.layout(), 0);
    const std::uint64_t stable = torn->seq.load(std::memory_order_relaxed);
    reader.setRetryProbe([&](std::size_t attempt) {
        torn->seq.store(stable + 2 * attempt + 1, std::memory_order_release);
    });
    expectUntouched(reader.read(1, out, /*max_retries=*/8),
                    ReadStatus::Torn, "torn by session");
    expectUntouched(reader.readSlot(0, out, /*max_retries=*/8),
                    ReadStatus::Torn, "torn by slot");
    reader.setRetryProbe(nullptr);
    torn->seq.store(stable, std::memory_order_release);

    // Corrupt: a flipped payload bit in session 4's slot.
    auto *flipped = slotAt(const_cast<std::byte *>(region.base()),
                           region.layout(), 3);
    flipped->events()[1].stddevBits.fetch_xor(1ull << 3,
                                              std::memory_order_relaxed);
    expectUntouched(reader.read(4, out), ReadStatus::Corrupt,
                    "corrupt by session");
    expectUntouched(reader.readSlot(3, out), ReadStatus::Corrupt,
                    "corrupt by slot");

    // WriterDead: session 3's slot froze odd mid-publish, and the
    // heartbeat went silent.
    region.heartbeat(1);
    auto *dead = slotAt(const_cast<std::byte *>(region.base()),
                        region.layout(), 2);
    dead->seq.fetch_add(1, std::memory_order_release);
    expectUntouched(reader.read(3, out), ReadStatus::WriterDead,
                    "writer dead by session");
    expectUntouched(reader.readSlot(2, out), ReadStatus::WriterDead,
                    "writer dead by slot");

    // An Ok read replaces out whole: the execution fields no slot
    // carries come back zeroed, also on the read whose decode reuses
    // the buffers the sentinel handed over.
    for (int i = 0; i < 2; ++i) {
        out = sentinelSnapshot();
        ASSERT_EQ(reader.read(1, out), ReadStatus::Ok);
        EXPECT_TRUE(isTagged(out, 1));
        EXPECT_EQ(out.windowIndex, 2u);
        EXPECT_EQ(out.retries, 0u);
        EXPECT_EQ(out.execution.windowOrdinal, 0u);
        EXPECT_EQ(out.execution.span.traceId, 0u);
        EXPECT_EQ(out.execution.span.publishNanos, 0u);
    }
}

TEST(SnapshotReader, SessionMovedToAnotherSlotIsStillFound)
{
    SnapshotRegion region(SnapshotRegionConfig{4, 4});
    SnapshotReader reader(region);
    std::size_t decodes = 0;
    reader.setRetryProbe([&](std::size_t attempt) {
        if (attempt == 0)
            ++decodes;
    });
    PosteriorSnapshot out;

    publishTagged(region, 1, /*session=*/7, /*window=*/1);
    ASSERT_EQ(reader.read(7, out), ReadStatus::Ok);
    decodes = 0;
    ASSERT_EQ(reader.read(7, out), ReadStatus::Ok);
    EXPECT_EQ(decodes, 1u) << "a hinted read decodes one slot";

    // The session moves from slot 1 to slot 3: the scan skips the
    // stale hinted slot it already decoded, so the read decodes each
    // slot once, and the refreshed hint makes the next read one
    // decode again.
    region.invalidate(1);
    publishTagged(region, 3, /*session=*/7, /*window=*/2);
    decodes = 0;
    ASSERT_EQ(reader.read(7, out), ReadStatus::Ok);
    EXPECT_TRUE(isTagged(out, 7));
    EXPECT_EQ(out.windowIndex, 2u);
    EXPECT_EQ(decodes, region.slots());
    decodes = 0;
    ASSERT_EQ(reader.read(7, out), ReadStatus::Ok);
    EXPECT_EQ(out.windowIndex, 2u);
    EXPECT_EQ(decodes, 1u);
    EXPECT_EQ(reader.stats().okReads, 4u);
}

TEST(SnapshotReader, TornHintedSlotSpinsItsBudgetOnce)
{
    // A live writer stalled mid-publish in the hinted slot: the slot
    // stays odd under a fresh heartbeat.  One by-session read spins
    // the retry budget on it once (max_retries + 1 attempts), decodes
    // every other slot once, and reports Torn with `out` untouched.
    SnapshotRegion region(SnapshotRegionConfig{4, 4});
    publishTagged(region, 0, /*session=*/1, /*window=*/1);
    publishTagged(region, 2, /*session=*/6, /*window=*/1);
    publishTagged(region, 3, /*session=*/4, /*window=*/1);
    SnapshotReader reader(region);
    PosteriorSnapshot out;
    ASSERT_EQ(reader.read(6, out), ReadStatus::Ok); // hint: slot 2

    auto *stalled = slotAt(const_cast<std::byte *>(region.base()),
                           region.layout(), 2);
    const std::uint64_t stable = stalled->seq.load(std::memory_order_relaxed);
    stalled->seq.store(stable + 1, std::memory_order_release);
    region.heartbeat(steadyNowNanos());
    std::size_t decodes = 0, retries = 0;
    reader.setRetryProbe([&](std::size_t attempt) {
        ++(attempt == 0 ? decodes : retries);
    });
    constexpr std::size_t kMaxRetries = 16;
    out = sentinelSnapshot();
    EXPECT_EQ(reader.read(6, out, kMaxRetries), ReadStatus::Torn);
    EXPECT_EQ(retries, kMaxRetries);
    EXPECT_EQ(decodes, region.slots());
    EXPECT_EQ(fieldBits(out), fieldBits(sentinelSnapshot()));
    EXPECT_EQ(reader.stats().tornReads, 1u);
    EXPECT_EQ(reader.stats().quarantinedSlots, 0u);

    // The writer closes its publish: the hint still holds, one decode.
    stalled->seq.store(stable, std::memory_order_release);
    decodes = retries = 0;
    ASSERT_EQ(reader.read(6, out, kMaxRetries), ReadStatus::Ok);
    EXPECT_TRUE(isTagged(out, 6));
    EXPECT_EQ(decodes, 1u);
    EXPECT_EQ(retries, 0u);
}

TEST(SnapshotReader, CollidingHintIdsEachReadTheirOwnPayload)
{
    // Ids s and s + slots() share one hint word; read in alternation,
    // each evicts the other's hint, yet every read must return its
    // own session's payload.
    SnapshotRegion region(SnapshotRegionConfig{4, 4});
    const std::uint64_t a = 2;
    const std::uint64_t b = a + region.slots();
    publishTagged(region, 3, a, /*window=*/10);
    publishTagged(region, 0, b, /*window=*/20);
    SnapshotReader reader(region);
    PosteriorSnapshot out;
    for (int round = 0; round < 8; ++round) {
        ASSERT_EQ(reader.read(a, out), ReadStatus::Ok);
        EXPECT_TRUE(isTagged(out, a));
        EXPECT_EQ(out.windowIndex, 10u);
        ASSERT_EQ(reader.read(b, out), ReadStatus::Ok);
        EXPECT_TRUE(isTagged(out, b));
        EXPECT_EQ(out.windowIndex, 20u);
    }
    EXPECT_EQ(reader.stats().okReads, 16u);
}

TEST(SnapshotReader, SharedReaderThreadsStayConsistentUnderRepublish)
{
    // One reader, two consumer threads, two sessions whose ids share a
    // hint word, and a writer that republishes both and keeps swapping
    // their slots: every Ok read must be exactly one of the writer's
    // payloads for the session asked for.
    constexpr std::size_t kEvents = 13;
    SnapshotRegion region(SnapshotRegionConfig{4, kEvents});
    const std::uint64_t ids[2] = {1, 1 + region.slots()};
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        std::size_t slot_of[2] = {0, 2};
        for (std::uint64_t w = 1; !stop.load(std::memory_order_relaxed);
             ++w) {
            if (w % 64 == 0) {
                for (std::size_t s : slot_of)
                    region.invalidate(s);
                std::swap(slot_of[0], slot_of[1]);
            }
            for (int k = 0; k < 2; ++k)
                publishTagged(region, slot_of[k], ids[k], w, kEvents);
        }
    });

    SnapshotReader reader(region);
    std::atomic<std::uint64_t> ok_reads[2] = {0, 0};
    std::atomic<std::uint64_t> bad_reads{0};
    std::vector<std::thread> consumers;
    for (int k = 0; k < 2; ++k) {
        consumers.emplace_back([&, k] {
            PosteriorSnapshot snap;
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(10);
            while (ok_reads[k].load() < 2000 &&
                   std::chrono::steady_clock::now() < deadline) {
                if (reader.read(ids[k], snap) != ReadStatus::Ok)
                    continue; // moved, torn or not yet published
                ok_reads[k].fetch_add(1);
                if (!isTagged(snap, ids[k], kEvents))
                    bad_reads.fetch_add(1);
            }
        });
    }
    for (std::thread &t : consumers)
        t.join();
    stop.store(true);
    writer.join();
    EXPECT_EQ(bad_reads.load(), 0u);
    EXPECT_GT(ok_reads[0].load(), 100u);
    EXPECT_GT(ok_reads[1].load(), 100u);
}

TEST(SnapshotReader, SteadyStateReadsAllocateNothing)
{
    // pipebench live_tenants' geometry: 16 sessions of 13 events in a
    // 64-slot table; the consumer reads the last session.
    constexpr std::size_t kEvents = 13;
    SnapshotRegion region(SnapshotRegionConfig{64, kEvents});
    for (std::size_t s = 0; s < 16; ++s)
        publishTagged(region, s, /*session=*/s + 1, /*window=*/s, kEvents);
    SnapshotReader reader(region);
    PosteriorSnapshot out;
    // Two warm-up reads grow both `out` and the thread's decode
    // scratch, which trade buffers on every Ok read.
    for (int i = 0; i < 2; ++i)
        ASSERT_EQ(reader.read(16, out), ReadStatus::Ok);

    std::size_t ok = 0;
    const std::uint64_t before =
        gOperatorNewCalls.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i)
        ok += reader.read(16, out) == ReadStatus::Ok;
    for (int i = 0; i < 1000; ++i)
        ok += reader.readSlot(15, out) == ReadStatus::Ok;
    const std::uint64_t allocations =
        gOperatorNewCalls.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(ok, 2000u);
    EXPECT_EQ(allocations, 0u);
    EXPECT_TRUE(isTagged(out, 16, kEvents));
}

#ifndef BPERF_TSAN

/** Wire format the forked child streams back over a pipe. */
struct WireCounter
{
    std::uint64_t event;
    std::uint64_t meanBits;
    std::uint64_t stddevBits;
};
struct WireSnapshot
{
    std::uint64_t status; // ReadStatus as int
    std::uint64_t sessionId;
    std::uint64_t windowIndex;
    std::uint64_t endSlice;
    std::uint64_t modeledBits;
    std::uint64_t count;
};

/** Child side: attach to `name` (with retry), read `session_id`,
 * stream the snapshot over `fd`, exit 0 on success. */
void
childReadAndReport(const std::string &name, std::uint64_t session_id,
                   int fd)
{
    std::optional<SnapshotReader> reader;
    for (int i = 0; i < 500 && !reader; ++i) {
        AttachResult attach = SnapshotReader::attach(name);
        if (attach)
            reader = std::move(attach.reader);
        else
            ::usleep(2000);
    }
    WireSnapshot wire{};
    PosteriorSnapshot snap;
    if (!reader) {
        wire.status = 99;
        (void)!::write(fd, &wire, sizeof(wire));
        ::_exit(2);
    }
    ReadStatus status = ReadStatus::NotFound;
    for (int i = 0; i < 500; ++i) {
        status = reader->read(session_id, snap);
        if (status == ReadStatus::Ok)
            break;
        ::usleep(2000);
    }
    wire.status = static_cast<std::uint64_t>(status);
    wire.sessionId = snap.sessionId;
    wire.windowIndex = snap.windowIndex;
    wire.endSlice = snap.endSlice;
    wire.modeledBits = doubleBits(snap.execution.modeledSeconds);
    wire.count = snap.counters.size();
    if (::write(fd, &wire, sizeof(wire)) != sizeof(wire))
        ::_exit(3);
    for (const auto &counter : snap.counters) {
        WireCounter wc{counter.event,
                       doubleBits(counter.posterior.mean),
                       doubleBits(counter.posterior.stddev)};
        if (::write(fd, &wc, sizeof(wc)) != sizeof(wc))
            ::_exit(3);
    }
    ::_exit(status == ReadStatus::Ok ? 0 : 1);
}

/** Parent side: read the child's wire snapshot. */
bool
readWire(int fd, WireSnapshot &wire, std::vector<WireCounter> &counters)
{
    if (::read(fd, &wire, sizeof(wire)) != sizeof(wire))
        return false;
    counters.resize(wire.count);
    for (auto &wc : counters) {
        if (::read(fd, &wc, sizeof(wc)) != sizeof(wc))
            return false;
    }
    return true;
}

TEST(SnapshotCrossProcess, ForkedChildReadsBitIdenticalSnapshot)
{
    const std::string name = uniqueShmName("fork");
    SnapshotRegion region(SnapshotRegionConfig{4, 8}, name);

    const std::vector<sim::EventId> events = {3, 1400};
    const std::vector<core::PosteriorPoint> posterior = {
        {1.0 / 3.0, 7.25e-3}, {9.87654321e6, 2.0 / 3.0}};
    core::WindowExecution exec = sampleExecution();
    region.write(1, /*session_id=*/1234, /*window_index=*/6,
                 /*end_slice=*/41, exec, events, posterior,
                 /*publish_nanos=*/55);

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(fds[0]);
        childReadAndReport(name, 1234, fds[1]);
    }
    ::close(fds[1]);
    WireSnapshot wire{};
    std::vector<WireCounter> counters;
    ASSERT_TRUE(readWire(fds[0], wire, counters));
    ::close(fds[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    EXPECT_EQ(wire.status,
              static_cast<std::uint64_t>(ReadStatus::Ok));
    EXPECT_EQ(wire.sessionId, 1234u);
    EXPECT_EQ(wire.windowIndex, 6u);
    EXPECT_EQ(wire.endSlice, 41u);
    EXPECT_EQ(wire.modeledBits, doubleBits(exec.modeledSeconds));
    ASSERT_EQ(counters.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(counters[i].event, events[i]);
        EXPECT_EQ(counters[i].meanBits, doubleBits(posterior[i].mean));
        EXPECT_EQ(counters[i].stddevBits,
                  doubleBits(posterior[i].stddev));
    }
}

TEST(SnapshotCrossProcess, WriterKilledMidPublishReportsWriterDead)
{
    const std::string name = uniqueShmName("dead");
    SnapshotRegion region(SnapshotRegionConfig{4, 8}, name);

    // A healthy session in slot 0: the dead slot must not hide it.
    const std::vector<sim::EventId> events = {3};
    const std::vector<core::PosteriorPoint> posterior = {{2.5, 0.5}};
    region.write(0, /*session_id=*/7, /*window_index=*/1,
                 /*end_slice=*/5, sampleExecution(), events, posterior,
                 /*publish_nanos=*/10);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: begin publishing session 42 into slot 2 of the
        // shared named segment, then die before the closing sequence
        // increment — the slot stays odd forever.
        auto *slot = slotAt(const_cast<std::byte *>(region.base()),
                            region.layout(), 2);
        slot->sessionId.store(42, std::memory_order_relaxed);
        slot->active.store(1, std::memory_order_relaxed);
        slot->seq.store(1, std::memory_order_release);
        ::kill(::getpid(), SIGKILL);
        ::_exit(9); // unreachable
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    SnapshotReader reader(region);
    PosteriorSnapshot snap;
    // The killed writer's slot is reported dead, not endlessly torn.
    EXPECT_EQ(reader.readSlot(2, snap), ReadStatus::WriterDead);
    EXPECT_EQ(reader.read(42, snap), ReadStatus::WriterDead);
    // The live session still reads fine through the same scan.
    ASSERT_EQ(reader.read(7, snap), ReadStatus::Ok);
    EXPECT_EQ(snap.sessionId, 7u);
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(doubleBits(snap.counters[0].posterior.mean),
              doubleBits(2.5));
}

#endif // !BPERF_TSAN

} // namespace
} // namespace shim

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

sim::PerfResult
measuredRun(const std::vector<sim::EventId> &monitored,
            std::size_t num_slices, std::uint64_t seed)
{
    const sim::GroundTruthGenerator generator(
        uarch(), wl::makeHibench("KMeans"));
    const sim::TruthTrace truth = generator.generate(num_slices, seed);
    sim::PerfSessionConfig cfg;
    cfg.seed = seed * 3 + 1;
    sim::PerfSession session(uarch(), cfg);
    return session.runRoundRobin(truth, monitored);
}

MonitorServiceConfig
snapshotServiceConfig(std::size_t slots = 8, std::size_t max_events = 32,
                      std::string shm_name = {})
{
    MonitorServiceConfig cfg;
    cfg.numWorkers = 2;
    cfg.sessionDefaults.streaming.inference.windowSlices = 6;
    cfg.snapshot.enabled = true;
    cfg.snapshot.slots = slots;
    cfg.snapshot.maxEvents = max_events;
    cfg.snapshot.shmName = std::move(shm_name);
    return cfg;
}

TEST(MonitorService, SnapshotMirrorsSubscriptionStreamBitIdentical)
{
    MonitorService daemon(uarch(), snapshotServiceConfig());
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

    const auto run = measuredRun(monitored, 24, 7001);
    daemon.ingestBatch(id, recordStream(run));
    daemon.quiesce();
    daemon.flushSubscriptions();

    // The table now holds the latest completed window; it must be the
    // same window the subscription stream saw last, bit for bit.
    shim::SnapshotReader reader(*daemon.snapshotRegion());
    shim::PosteriorSnapshot snap;
    ASSERT_EQ(reader.read(id, snap), shim::ReadStatus::Ok);
    {
        std::lock_guard<std::mutex> lock(mutex);
        ASSERT_FALSE(updates.empty());
        const WindowUpdate &last = updates.back();
        EXPECT_EQ(snap.sessionId, last.sessionId);
        EXPECT_EQ(snap.windowIndex, last.windowIndex);
        EXPECT_EQ(snap.endSlice, last.endSlice);
        EXPECT_EQ(shim::doubleBits(snap.execution.modeledSeconds),
                  shim::doubleBits(last.execution.modeledSeconds));
        EXPECT_EQ(shim::doubleBits(snap.execution.queueWaitSeconds),
                  shim::doubleBits(last.execution.queueWaitSeconds));
        ASSERT_EQ(snap.counters.size(), last.events.size());
        ASSERT_EQ(snap.counters.size(), last.posterior.size());
        for (std::size_t i = 0; i < snap.counters.size(); ++i) {
            EXPECT_EQ(snap.counters[i].event, last.events[i]);
            EXPECT_EQ(shim::doubleBits(snap.counters[i].posterior.mean),
                      shim::doubleBits(last.posterior[i].mean));
            EXPECT_EQ(
                shim::doubleBits(snap.counters[i].posterior.stddev),
                shim::doubleBits(last.posterior[i].stddev));
        }
    }
    const auto sessions = reader.sessions();
    ASSERT_EQ(sessions.size(), 1u);
    EXPECT_EQ(sessions[0], id);

    // Closing the session invalidates its slot; the tail windows the
    // close ran were still published first.  Flush before touching
    // `updates` again — the close's tail publishes are still being
    // dispatched to the callback.
    const auto report = daemon.close(id);
    ASSERT_TRUE(report.has_value());
    daemon.flushSubscriptions();
    EXPECT_EQ(reader.read(id, snap), shim::ReadStatus::NotFound);
    EXPECT_TRUE(reader.sessions().empty());

    const ServiceStats stats = daemon.stats();
    EXPECT_TRUE(stats.snapshot.enabled);
    EXPECT_EQ(stats.snapshot.publishes, report->stats.windowsRun);
    EXPECT_EQ(stats.snapshot.publishDrops, 0u);
    EXPECT_EQ(stats.snapshot.slotsLive, 0u);
    EXPECT_EQ(stats.snapshot.slotCapacity, 8u);
}

TEST(MonitorService, SnapshotTableFullDropsAndCounts)
{
    // One slot, two sessions: the second runs un-exported and its
    // windows are counted as snapshot drops.
    MonitorService daemon(uarch(), snapshotServiceConfig(/*slots=*/1));
    const SessionId first = daemon.open(monitoredSet());
    const SessionId second = daemon.open(monitoredSet());
    const auto monitored = daemon.monitoredEvents(first);
    const auto run = measuredRun(monitored, 18, 7002);
    daemon.ingestBatch(first, recordStream(run));
    daemon.ingestBatch(second, recordStream(run));
    daemon.quiesce();

    shim::SnapshotReader reader(*daemon.snapshotRegion());
    const auto sessions = reader.sessions();
    ASSERT_EQ(sessions.size(), 1u);
    EXPECT_EQ(sessions[0], first);
    shim::PosteriorSnapshot snap;
    EXPECT_EQ(reader.read(second, snap), shim::ReadStatus::NotFound);

    const ServiceStats stats = daemon.stats();
    EXPECT_GT(stats.snapshot.publishes, 0u);
    EXPECT_GT(stats.snapshot.publishDrops, 0u);
    EXPECT_EQ(stats.snapshot.slotsLive, 1u);

    // Closing the exported session frees its slot for a newcomer.
    daemon.close(first);
    const SessionId third = daemon.open(monitoredSet());
    daemon.ingestBatch(third, recordStream(run));
    daemon.quiesce();
    ASSERT_EQ(reader.read(third, snap), shim::ReadStatus::Ok);
    daemon.close(third);
    daemon.close(second);
}

TEST(MonitorService, SelfMetricsPublishRecordsTelemetry)
{
    // Regression (PR 8): publishSelfMetrics used to bypass the
    // publisher's publish() path, bumping shim.publishes itself but
    // never recording shim.publish_ns — self-metrics publishes are
    // ordinary publishes and must hit the same telemetry.
    auto &registry = telemetry::MetricsRegistry::global();
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    const std::uint64_t counter0 =
        registry.counterValue("shim.publishes");
    const std::uint64_t histogram0 =
        registry.histogramSnapshot("shim.publish_ns").count;

    MonitorService daemon(uarch(), snapshotServiceConfig());
    EXPECT_TRUE(daemon.publishSelfMetrics());
    EXPECT_EQ(registry.counterValue("shim.publishes"), counter0 + 1);
    EXPECT_EQ(registry.histogramSnapshot("shim.publish_ns").count,
              histogram0 + 1);

    // And the reader sees the metrics as pseudo-session 0.
    shim::SnapshotReader reader(*daemon.snapshotRegion());
    shim::PosteriorSnapshot snap;
    ASSERT_EQ(reader.read(0, snap), shim::ReadStatus::Ok);
    EXPECT_FALSE(snap.counters.empty());
    telemetry::setEnabled(was_enabled);
}

TEST(MonitorService, OversizedEventSetRunsUnexported)
{
    // maxEvents smaller than the monitored set: the session is
    // admitted and infers normally, it just never reaches the table.
    MonitorService daemon(
        uarch(), snapshotServiceConfig(/*slots=*/4, /*max_events=*/2));
    const SessionId id = daemon.open(monitoredSet());
    const auto monitored = daemon.monitoredEvents(id);
    const auto run = measuredRun(monitored, 18, 7003);
    daemon.ingestBatch(id, recordStream(run));
    daemon.quiesce();

    shim::SnapshotReader reader(*daemon.snapshotRegion());
    EXPECT_TRUE(reader.sessions().empty());
    const ServiceStats stats = daemon.stats();
    EXPECT_EQ(stats.snapshot.publishes, 0u);
    EXPECT_GT(stats.snapshot.publishDrops, 0u);

    const auto report = daemon.close(id);
    ASSERT_TRUE(report.has_value());
    EXPECT_GT(report->stats.windowsRun, 0u);
}

#ifndef BPERF_TSAN

TEST(MonitorService, ForkedShimReaderSeesServicePosteriors)
{
    // The acceptance scenario end to end: a daemon exporting over
    // named shm, a forked consumer attaching read-only and observing
    // the same posterior the in-process subscription stream saw, bit
    // for bit, across the process boundary.
    const std::string name = shim::uniqueShmName("service");
    MonitorService daemon(
        uarch(), snapshotServiceConfig(8, 32, name));
    const SessionId id = daemon.open(monitoredSet());
    const auto monitored = daemon.monitoredEvents(id);

    std::mutex mutex;
    std::vector<WindowUpdate> updates;
    const auto sub = daemon.subscribe(id, [&](const WindowUpdate &u) {
        std::lock_guard<std::mutex> lock(mutex);
        updates.push_back(u);
    });
    ASSERT_TRUE(sub.has_value());

    const auto run = measuredRun(monitored, 24, 7004);
    daemon.ingestBatch(id, recordStream(run));
    daemon.quiesce();
    daemon.flushSubscriptions();

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(fds[0]);
        shim::childReadAndReport(name, id, fds[1]);
    }
    ::close(fds[1]);
    shim::WireSnapshot wire{};
    std::vector<shim::WireCounter> counters;
    ASSERT_TRUE(shim::readWire(fds[0], wire, counters));
    ::close(fds[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    {
        std::lock_guard<std::mutex> lock(mutex);
        ASSERT_FALSE(updates.empty());
        const WindowUpdate &last = updates.back();
        EXPECT_EQ(wire.sessionId, id);
        EXPECT_EQ(wire.windowIndex, last.windowIndex);
        EXPECT_EQ(wire.endSlice, last.endSlice);
        EXPECT_EQ(wire.modeledBits,
                  shim::doubleBits(last.execution.modeledSeconds));
        ASSERT_EQ(counters.size(), last.posterior.size());
        for (std::size_t i = 0; i < counters.size(); ++i) {
            EXPECT_EQ(counters[i].event, last.events[i]);
            EXPECT_EQ(counters[i].meanBits,
                      shim::doubleBits(last.posterior[i].mean));
            EXPECT_EQ(counters[i].stddevBits,
                      shim::doubleBits(last.posterior[i].stddev));
        }
    }
    daemon.close(id);
    daemon.flushSubscriptions(); // close's tail publishes still in flight
}

#endif // !BPERF_TSAN

} // namespace
} // namespace service
} // namespace bperf

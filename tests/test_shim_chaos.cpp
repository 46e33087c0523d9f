/** @file Chaos suite for the posterior snapshot shim (layout v2).
 *
 * Every test here injects a fault the integrity machinery exists to
 * survive and asserts the *protocol-level* guarantee: no Ok read ever
 * returns a payload the writer did not publish, and every failure is
 * reported through a typed status (ReadStatus / AttachStatus), never
 * a crash, a hang, or silently wrong data.
 *
 * Fault injection is deterministic: writer-side hooks
 * (WriterFaultInjection) kill or abandon a publish at an exact
 * 1-based publish number, and header faults are injected by mapping
 * the named segment a second time read-write and flipping specific
 * words.  The one stochastic test (BitFlipsUnderHammeringReader)
 * asserts an invariant that must hold for *every* interleaving, so
 * scheduling nondeterminism widens coverage instead of flaking.
 *
 * The fork-and-SIGKILL test is skipped under TSan (fork and the TSan
 * runtime do not mix); everything else runs under both sanitizers.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "shim/snapshot_reader.h"
#include "shim/snapshot_region.h"

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
    return std::string("/bperf-chaos-") + tag + "-" +
           std::to_string(::getpid());
}

core::WindowExecution
sampleExecution()
{
    core::WindowExecution exec;
    exec.engineId = 2;
    exec.endSlice = 9;
    exec.queueWaitSeconds = 1e-4;
    exec.serviceSeconds = 2e-4;
    exec.transferSeconds = 3e-5;
    exec.modeledSeconds = 3.3e-4;
    return exec;
}

void
publishSession(SnapshotRegion &region, std::size_t slot,
               std::uint64_t session_id, std::uint64_t window,
               std::uint64_t publish_nanos)
{
    const std::vector<sim::EventId> events = {1, 2};
    const std::vector<core::PosteriorPoint> posterior = {
        {10.0 + static_cast<double>(window), 1.0},
        {20.0 + static_cast<double>(window), 2.0}};
    region.write(slot, session_id, window, /*end_slice=*/window + 3,
                 sampleExecution(), events, posterior, publish_nanos);
}

/**
 * A second, read-write mapping of a named segment — the chaos suite's
 * "cosmic ray": it flips header words underneath attaching readers
 * without going through (or perturbing) the owning SnapshotRegion.
 */
struct RwSegmentMap
{
    std::byte *mem = nullptr;
    std::size_t bytes = 0;

    explicit RwSegmentMap(const std::string &name)
    {
        const int fd = ::shm_open(name.c_str(), O_RDWR, 0);
        if (fd < 0)
            return;
        struct stat st;
        if (::fstat(fd, &st) == 0 && st.st_size > 0) {
            void *m = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                             PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
            if (m != MAP_FAILED) {
                mem = static_cast<std::byte *>(m);
                bytes = static_cast<std::size_t>(st.st_size);
            }
        }
        ::close(fd);
    }
    ~RwSegmentMap()
    {
        if (mem != nullptr)
            ::munmap(mem, bytes);
    }
    RwSegmentMap(const RwSegmentMap &) = delete;
    RwSegmentMap &operator=(const RwSegmentMap &) = delete;

    RegionHeader *header() { return reinterpret_cast<RegionHeader *>(mem); }
};

#ifndef BPERF_TSAN

/**
 * The headline crash: a writer SIGKILLed *inside* the seqlock critical
 * section of its second publish — payload and checksum stored, closing
 * even sequence store never issued.  Readers must keep serving the
 * slots the writer completed, report the interrupted slot WriterDead
 * (bounded, no spin-forever), and expose the stalled heartbeat.
 */
TEST(ShimChaos, ForkedWriterSigkilledMidPublish)
{
    const std::string name = uniqueShmName("sigkill");
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(pipe_fds[0]);
        SnapshotRegion region(SnapshotRegionConfig{4, 4}, name);
        WriterFaultInjection faults;
        faults.dieAtPublish = 2;
        region.setFaultInjection(faults);
        // Publish 1 completes; its tiny publish stamp doubles as the
        // heartbeat, so the parent sees a writer idle "forever".
        publishSession(region, /*slot=*/0, /*session=*/1, /*window=*/0,
                       /*publish_nanos=*/5);
        const char byte = 'r';
        if (::write(pipe_fds[1], &byte, 1) != 1)
            ::_exit(4);
        // Publish 2 opens (stamping the heartbeat with its own tiny
        // stamp) and SIGKILLs this process mid-publish; nothing below
        // the write() call runs (no destructor, no shm_unlink).
        publishSession(region, /*slot=*/1, /*session=*/2, /*window=*/0,
                       /*publish_nanos=*/6);
        ::_exit(5); // unreachable unless the fault hook failed
    }

    ::close(pipe_fds[1]);
    char byte = 0;
    ASSERT_EQ(::read(pipe_fds[0], &byte, 1), 1); // publish 1 landed
    ::close(pipe_fds[0]);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    // The segment outlives its writer; attaching it is fine.
    AttachResult attached = SnapshotReader::attach(name);
    ASSERT_TRUE(attached) << attachStatusName(attached.status);
    auto &reader = attached.reader;

    // The completed slot still serves consistent data.
    PosteriorSnapshot snap;
    EXPECT_EQ(reader->read(1, snap), ReadStatus::Ok);
    EXPECT_EQ(snap.sessionId, 1u);
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(doubleBits(snap.counters[0].posterior.mean),
              doubleBits(10.0));

    // The interrupted slot reports WriterDead — by slot and by the
    // session scan — after a bounded retry budget, never a hang.
    EXPECT_EQ(reader->readSlot(1, snap), ReadStatus::WriterDead);
    EXPECT_EQ(reader->read(2, snap), ReadStatus::WriterDead);
    const ReaderStats stats = reader->stats();
    EXPECT_EQ(stats.deadReads, 2u);
    EXPECT_EQ(stats.quarantinedSlots, 1u);

    // Region-level liveness: the last heartbeat is the tiny stamp of
    // publish 2, which opened before the kill, so the writer looks
    // idle for (essentially) the machine's whole uptime — exactly
    // what a liveness watchdog, and the WriterDead verdict, key on.
    EXPECT_EQ(reader->writerHeartbeatNanos(), 6u);
    EXPECT_GT(reader->writerIdleNanos(), 1000000000ull);

    // The dead child never unlinked; do it for the machine's sake.
    ::shm_unlink(name.c_str());
}

#endif // !BPERF_TSAN

/**
 * The in-process stand-in for the SIGKILL test (runs under TSan):
 * publish 2 abandons the slot odd; the *same* writer's next publish
 * must recover the parity protocol (open odd, close even) rather than
 * inverting it, and the recovery must lift the reader's quarantine.
 */
TEST(ShimChaos, AbandonedPublishLeavesSlotDeadUntilNextPublish)
{
    SnapshotRegion region(SnapshotRegionConfig{2, 4});
    WriterFaultInjection faults;
    faults.skipFinalEvenStoreAtPublish = 2;
    region.setFaultInjection(faults);
    SnapshotReader reader(region);
    PosteriorSnapshot snap;

    publishSession(region, 0, /*session=*/1, /*window=*/0, 100);
    ASSERT_EQ(reader.readSlot(0, snap), ReadStatus::Ok);
    EXPECT_EQ(snap.windowIndex, 0u);

    // Publish 2 is abandoned mid-flight: the slot freezes odd and the
    // publish is not counted (readers must not wait on it).
    publishSession(region, 0, /*session=*/1, /*window=*/1, 101);
    EXPECT_EQ(region.publishes(), 1u);
    EXPECT_EQ(reader.readSlot(0, snap), ReadStatus::WriterDead);
    EXPECT_EQ(reader.read(1, snap), ReadStatus::WriterDead);
    EXPECT_EQ(reader.stats().quarantinedSlots, 1u);

    // Publish 3 resumes the abandoned slot.  Without parity recovery
    // the writer would close this publish on an *odd* sequence and
    // every subsequent read of the slot would be wrong-parity garbage;
    // with it the slot reads Ok with the new payload and the moved
    // sequence lifts the quarantine.
    publishSession(region, 0, /*session=*/1, /*window=*/2, 102);
    ASSERT_EQ(reader.readSlot(0, snap), ReadStatus::Ok);
    EXPECT_EQ(snap.windowIndex, 2u);
    EXPECT_EQ(doubleBits(snap.counters[0].posterior.mean),
              doubleBits(12.0));
    EXPECT_EQ(reader.stats().quarantinedSlots, 0u);
    EXPECT_EQ(region.publishes(), 2u);
}

/**
 * Single deterministic SEU via the writer-side hook: one bit of one
 * posterior word flips right after publish 3 completes.  The slot
 * must read Corrupt (sequence is a stable even — only the checksum
 * can catch it), and the next publish must heal it.
 */
TEST(ShimChaos, InjectedBitFlipReadsCorruptThenHeals)
{
    SnapshotRegion region(SnapshotRegionConfig{1, 4});
    WriterFaultInjection faults;
    faults.flipAtPublish = 3;
    // Word 0 is seq, 1 checksum, 2..12 fixed payload; 13 is the first
    // SlotEvent's event id word.
    faults.flipWordIndex = 13;
    faults.flipMask = 1ull << 42;
    region.setFaultInjection(faults);
    SnapshotReader reader(region);
    PosteriorSnapshot snap;

    publishSession(region, 0, 1, 0, 100);
    publishSession(region, 0, 1, 1, 101);
    ASSERT_EQ(reader.readSlot(0, snap), ReadStatus::Ok);

    publishSession(region, 0, 1, 2, 102); // flips after completing
    EXPECT_EQ(reader.readSlot(0, snap), ReadStatus::Corrupt);
    EXPECT_EQ(reader.read(1, snap), ReadStatus::Corrupt);
    EXPECT_TRUE(reader.sessions().empty());
    EXPECT_EQ(reader.stats().corruptReads, 2u);
    EXPECT_EQ(reader.stats().quarantinedSlots, 1u);

    publishSession(region, 0, 1, 3, 103); // rewrite heals the flip
    ASSERT_EQ(reader.readSlot(0, snap), ReadStatus::Ok);
    EXPECT_EQ(snap.windowIndex, 3u);
    EXPECT_EQ(reader.stats().quarantinedSlots, 0u);
}

/**
 * Stochastic SEU storm: a flipper thread XORs random bits into random
 * slot words (sequence, checksum, payload — anything) while a writer
 * hammers the slot and a reader polls it.  The invariant under test
 * is absolute: every Ok read carries a payload that is exactly one of
 * the writer's published patterns — flips surface as Corrupt, Torn or
 * WriterDead, never as silently wrong data.
 */
TEST(ShimChaos, BitFlipsUnderHammeringReaderNeverServeOk)
{
    constexpr std::size_t kEvents = 5;
    SnapshotRegion region(SnapshotRegionConfig{1, kEvents});
    // All slot words, seq and checksum included.
    const std::size_t slot_words =
        sizeof(SlotHeader) / sizeof(Word) + 3 * kEvents;
    auto *slot_mem = reinterpret_cast<Word *>(
        slotAt(const_cast<std::byte *>(region.base()), region.layout(),
               0));

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
            // Leave quiescent windows between publishes: on a single
            // hardware thread a spinning writer starves the reader
            // into permanent Torn verdicts, which tests the scheduler,
            // not the seqlock.
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
    });

    std::thread flipper([&] {
        // Deterministic LCG: reproducible flip sequence, no libc rand
        // state shared across threads.
        std::uint64_t rng = 0x243f6a8885a308d3ull;
        while (!stop.load(std::memory_order_relaxed)) {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            const std::size_t word = (rng >> 33) % slot_words;
            const std::uint64_t mask = 1ull << ((rng >> 17) & 63);
            slot_mem[word].fetch_xor(mask, std::memory_order_relaxed);
            // Let the writer repair between strikes — the point is
            // detection, not denial of service.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });

    SnapshotReader reader(region);
    std::uint64_t ok_reads = 0;
    std::uint64_t degraded_reads = 0;
    PosteriorSnapshot snap;
    // Run until the reader has demonstrated progress; the hard cap
    // only bounds a pathological schedule (CI shares one core).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (ok_reads <= 50u &&
           std::chrono::steady_clock::now() < deadline) {
        const ReadStatus status = reader.readSlot(0, snap);
        if (status == ReadStatus::Corrupt ||
            status == ReadStatus::Torn ||
            status == ReadStatus::WriterDead) {
            ++degraded_reads;
            continue;
        }
        if (status != ReadStatus::Ok)
            continue; // writer has not published yet
        ++ok_reads;
        // Consistency against the writer's self-describing pattern:
        // any flip that leaked into this snapshot fails one of these.
        const std::uint64_t w = snap.windowIndex;
        ASSERT_EQ(snap.sessionId, 1u);
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
    flipper.join();
    // The reader must make progress despite the storm; the degraded
    // count is scheduling-dependent and informational only.
    EXPECT_GT(ok_reads, 50u);
    (void)degraded_reads;
}

/**
 * Geometry redundancy end-to-end: a flipped primary geometry word is
 * repaired from the duplicate copy; flipping both copies refuses the
 * segment with GeometryCorrupt (readers never compute slot addresses
 * from a flipped word).
 */
TEST(ShimChaos, FlippedGeometryRepairedFromDuplicateThenRefused)
{
    const std::string name = uniqueShmName("geom");
    SnapshotRegion region(SnapshotRegionConfig{3, 4}, name);
    publishSession(region, 0, /*session=*/7, /*window=*/0, 100);

    RwSegmentMap rw(name);
    ASSERT_NE(rw.mem, nullptr);

    // Strike the primary slotCount: its checksum no longer validates,
    // the duplicate does — attach succeeds on the surviving copy.
    rw.header()->slotCount.fetch_xor(1ull << 3,
                                     std::memory_order_relaxed);
    {
        AttachResult attached = SnapshotReader::attach(name);
        ASSERT_TRUE(attached) << attachStatusName(attached.status);
        EXPECT_EQ(attached.reader->slots(), 3u);
        PosteriorSnapshot snap;
        EXPECT_EQ(attached.reader->read(7, snap), ReadStatus::Ok);
    }

    // Strike the duplicate too: neither copy validates.
    rw.header()->slotCountDup.fetch_xor(1ull << 7,
                                        std::memory_order_relaxed);
    {
        const AttachResult refused = SnapshotReader::attach(name);
        EXPECT_FALSE(refused);
        EXPECT_EQ(refused.status, AttachStatus::GeometryCorrupt);
        EXPECT_FALSE(refused.retryable());
        EXPECT_STREQ(attachStatusName(refused.status),
                     "geometry-corrupt");
    }
}

/**
 * Magic and version faults are distinguished, not conflated: zeroed
 * magic means "not initialised yet" (retryable — creation stores the
 * magic last), a *wrong* magic or a future layout version means
 * "never attach this" (fatal).
 */
TEST(ShimChaos, BadMagicAndVersionMismatchAreTypedAndFatal)
{
    const std::string name = uniqueShmName("magic");
    SnapshotRegion region(SnapshotRegionConfig{2, 4}, name);

    RwSegmentMap rw(name);
    ASSERT_NE(rw.mem, nullptr);
    RegionHeader *header = rw.header();

    // One flipped magic bit: fatal, not retryable.
    header->magic.fetch_xor(1ull << 11, std::memory_order_relaxed);
    {
        const AttachResult r = SnapshotReader::attach(name);
        EXPECT_EQ(r.status, AttachStatus::BadMagic);
        EXPECT_FALSE(r.retryable());
    }

    // Zero magic: the segment merely looks uninitialised — retryable,
    // so attach loops keep polling instead of giving up.
    header->magic.store(0, std::memory_order_relaxed);
    {
        const AttachResult r = SnapshotReader::attach(name);
        EXPECT_EQ(r.status, AttachStatus::NotReady);
        EXPECT_TRUE(r.retryable());
    }
    header->magic.store(kSnapshotMagic, std::memory_order_relaxed);

    // A future layout version with *internally valid* geometry (both
    // copies and checksums rewritten consistently) is refused as
    // VersionMismatch — not misread as corruption.
    const std::uint64_t slots =
        header->slotCount.load(std::memory_order_relaxed);
    const std::uint64_t max_events =
        header->maxEvents.load(std::memory_order_relaxed);
    const std::uint64_t stride =
        header->slotStride.load(std::memory_order_relaxed);
    const std::uint64_t future_sum =
        geometryChecksum(3, slots, max_events, stride);
    header->layoutVersion.store(3, std::memory_order_relaxed);
    header->geometryChecksum.store(future_sum,
                                   std::memory_order_relaxed);
    header->layoutVersionDup.store(3, std::memory_order_relaxed);
    header->geometryChecksumDup.store(future_sum,
                                      std::memory_order_relaxed);
    {
        const AttachResult r = SnapshotReader::attach(name);
        EXPECT_EQ(r.status, AttachStatus::VersionMismatch);
        EXPECT_FALSE(r.retryable());
        EXPECT_STREQ(attachStatusName(r.status), "version-mismatch");
    }
}

/**
 * A segment whose file shrank under the reader's feet (operator
 * `truncate`, a buggy writer, tmpfs pressure) is refused with a typed
 * status instead of mapped short and SIGBUSed on first slot access.
 */
TEST(ShimChaos, TruncatedSegmentRefusedNotMapped)
{
    const std::string name = uniqueShmName("trunc");
    SnapshotRegion region(SnapshotRegionConfig{4, 4}, name);
    publishSession(region, 0, 1, 0, 100);
    const std::size_t full = region.sizeBytes();

    const int fd = ::shm_open(name.c_str(), O_RDWR, 0);
    ASSERT_GE(fd, 0);

    // Half the slots gone: header intact and self-consistent, but the
    // geometry promises more bytes than the file holds -> TooSmall.
    ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(full / 2)), 0);
    {
        const AttachResult r = SnapshotReader::attach(name);
        EXPECT_EQ(r.status, AttachStatus::TooSmall);
        EXPECT_FALSE(r.retryable());
        EXPECT_STREQ(attachStatusName(r.status), "too-small");
    }

    // Shrunk below even the header: indistinguishable from a segment
    // still being created -> NotReady, retryable.
    ASSERT_EQ(::ftruncate(fd, 8), 0);
    {
        const AttachResult r = SnapshotReader::attach(name);
        EXPECT_EQ(r.status, AttachStatus::NotReady);
        EXPECT_TRUE(r.retryable());
    }
    ::close(fd);
    // NOTE: the owning region must not publish after the truncation
    // (its full-size mapping would SIGBUS past EOF); the test only
    // destroys it, which merely unmaps and unlinks.
}

/**
 * Daemon restart: a successor writer must *replace* a predecessor's
 * segment (never adopt it — two writers on one seqlock table cannot
 * work), old readers keep their frozen table, new readers see the
 * fresh one, and the predecessor's destructor must not unlink the
 * successor's live segment.
 */
TEST(ShimChaos, StaleSegmentReplacedNotAdoptedAcrossRestart)
{
    const std::string name = uniqueShmName("restart");
    auto old_daemon = std::make_unique<SnapshotRegion>(
        SnapshotRegionConfig{2, 4}, name);
    publishSession(*old_daemon, 0, /*session=*/7, /*window=*/0, 100);

    AttachResult old_reader = SnapshotReader::attach(name);
    ASSERT_TRUE(old_reader);
    PosteriorSnapshot snap;
    ASSERT_EQ(old_reader.reader->read(7, snap), ReadStatus::Ok);

    // "Restart": a second daemon claims the same name.  O_EXCL +
    // unlink-and-retry means it replaces the stale segment.
    SnapshotRegion new_daemon(SnapshotRegionConfig{2, 4}, name);
    EXPECT_EQ(new_daemon.publishes(), 0u);

    // New readers resolve the name to the fresh, empty table...
    AttachResult new_reader = SnapshotReader::attach(name);
    ASSERT_TRUE(new_reader);
    EXPECT_EQ(new_reader.reader->publishes(), 0u);
    EXPECT_TRUE(new_reader.reader->sessions().empty());
    EXPECT_EQ(new_reader.reader->read(7, snap), ReadStatus::NotFound);

    // ...while the old reader's mapping pins the old inode: its last
    // consistent table stays readable, frozen, no SIGBUS, no tearing.
    EXPECT_EQ(old_reader.reader->read(7, snap), ReadStatus::Ok);
    EXPECT_EQ(snap.sessionId, 7u);

    // The old daemon exits *after* being replaced: its destructor
    // checks inode identity and must leave the successor's name alone.
    old_daemon.reset();
    AttachResult still_there = SnapshotReader::attach(name);
    ASSERT_TRUE(still_there);
    EXPECT_EQ(still_there.reader->publishes(), 0u);

    // New daemon publishes; new attachments see it.
    publishSession(new_daemon, 0, /*session=*/9, /*window=*/0, 200);
    EXPECT_EQ(still_there.reader->read(9, snap), ReadStatus::Ok);
}

} // namespace
} // namespace shim
} // namespace bperf

#include "shim/snapshot_region.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <new>

#include "common/logging.h"

namespace bperf {
namespace shim {

namespace {

/** Identity of a created shm inode (guards the destructor's unlink
 * against removing a successor daemon's segment of the same name). */
struct SegmentIdentity
{
    dev_t dev = 0;
    ino_t ino = 0;
    bool valid = false;
};

/** mmap a zero-filled segment: anonymous, or named POSIX shm. */
std::byte *
mapSegment(const std::string &shm_name, std::size_t bytes,
           SegmentIdentity *identity)
{
    if (shm_name.empty()) {
        void *mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        bp_assert(mem != MAP_FAILED,
                  "snapshot region: anonymous mmap of " << bytes
                                                        << " bytes failed");
        return static_cast<std::byte *>(mem);
    }
    // O_EXCL: never adopt an existing segment — a leftover from a
    // crashed daemon (aborts skip the destructor's shm_unlink) or a
    // live daemon using the same name.  Adopting one would make two
    // processes concurrent writers of the same slots, which the
    // single-writer seqlock protocol cannot survive, and the init
    // below would non-atomically stomp words an attached reader is
    // loading.  Instead, unlink the stale name and create a fresh
    // segment: the name now resolves to this daemon (last writer
    // wins), while readers still mapped to the old inode keep their
    // old, frozen table.  (If the old writer died *mid-publish*, the
    // interrupted slot's sequence stays odd forever and reads of it
    // report WriterDead once its heartbeat has gone silent — detected,
    // never served as data; the other slots stay readable.)
    // Bounded unlink-and-retry: a concurrent creator can slip its
    // own segment in between our unlink and create, so one retry is
    // not enough for the advertised last-writer-wins semantics.
    int fd = -1;
    for (int attempt = 0; attempt < 16 && fd < 0; ++attempt) {
        fd = ::shm_open(shm_name.c_str(), O_CREAT | O_EXCL | O_RDWR,
                        0600);
        if (fd < 0 && errno == EEXIST)
            ::shm_unlink(shm_name.c_str());
        else if (fd < 0)
            break; // not a name collision; report it
    }
    bp_assert(fd >= 0, "snapshot region: shm_open(\"" << shm_name
                                                      << "\") failed");
    const int trunc = ::ftruncate(fd, static_cast<off_t>(bytes));
    bp_assert(trunc == 0, "snapshot region: ftruncate(\""
                              << shm_name << "\", " << bytes
                              << ") failed");
    struct stat st;
    if (::fstat(fd, &st) == 0) {
        identity->dev = st.st_dev;
        identity->ino = st.st_ino;
        identity->valid = true;
    }
    void *mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                       fd, 0);
    ::close(fd);
    bp_assert(mem != MAP_FAILED, "snapshot region: mmap of \""
                                     << shm_name << "\" failed");
    return static_cast<std::byte *>(mem);
}

} // namespace

SnapshotRegion::SnapshotRegion(SnapshotRegionConfig config,
                               const std::string &shm_name)
    : config_(config), shmName_(shm_name),
      layout_(RegionLayout::compute(config.slots, config.maxEvents))
{
    bp_assert(config_.slots > 0, "snapshot region needs >= 1 slot");
    bp_assert(config_.maxEvents > 0,
              "snapshot region needs >= 1 event per slot");
    SegmentIdentity identity;
    base_ = mapSegment(shmName_, layout_.totalBytes, &identity);
    shmDev_ = static_cast<std::uint64_t>(identity.dev);
    shmIno_ = static_cast<std::uint64_t>(identity.ino);
    shmIdentityValid_ = identity.valid;

    // The segment is all 64-bit words; formally begin each one's
    // lifetime as an atomic (zero-initialised — mmap pages are
    // zero-filled, and Word{0} stores nothing readers could tear on).
    const std::size_t words = layout_.totalBytes / sizeof(Word);
    for (std::size_t i = 0; i < words; ++i)
        new (base_ + i * sizeof(Word)) Word{0};

    auto *header = reinterpret_cast<RegionHeader *>(base_);
    header->layoutVersion.store(kSnapshotLayoutVersion,
                                std::memory_order_relaxed);
    header->slotCount.store(config_.slots, std::memory_order_relaxed);
    header->maxEvents.store(config_.maxEvents, std::memory_order_relaxed);
    header->slotStride.store(layout_.slotStride,
                             std::memory_order_relaxed);
    header->publishes.store(0, std::memory_order_relaxed);
    header->heartbeatNanos.store(steadyNowNanos(),
                                 std::memory_order_relaxed);
    // Geometry redundancy: both copies carry the same checksum, so an
    // attacher can validate each independently and use whichever
    // survived (a flipped word invalidates exactly one copy).
    const std::uint64_t geom_sum = geometryChecksum(
        kSnapshotLayoutVersion, config_.slots, config_.maxEvents,
        layout_.slotStride);
    header->geometryChecksum.store(geom_sum, std::memory_order_relaxed);
    header->layoutVersionDup.store(kSnapshotLayoutVersion,
                                   std::memory_order_relaxed);
    header->slotCountDup.store(config_.slots, std::memory_order_relaxed);
    header->maxEventsDup.store(config_.maxEvents,
                               std::memory_order_relaxed);
    header->slotStrideDup.store(layout_.slotStride,
                                std::memory_order_relaxed);
    header->geometryChecksumDup.store(geom_sum,
                                      std::memory_order_relaxed);
    // Magic last, with release: an attacher that sees it sees the
    // whole geometry.
    header->magic.store(kSnapshotMagic, std::memory_order_release);
}

SnapshotRegion::~SnapshotRegion()
{
    if (base_ != nullptr)
        ::munmap(base_, layout_.totalBytes);
    if (shmName_.empty())
        return;
    // Only unlink the name if it still resolves to the inode we
    // created: a successor daemon may have replaced the segment
    // (last writer wins), and its live table must survive our exit.
    bool ours = true;
    if (shmIdentityValid_) {
        const int fd = ::shm_open(shmName_.c_str(), O_RDONLY, 0);
        if (fd < 0)
            return; // already gone
        struct stat st;
        ours = ::fstat(fd, &st) == 0 &&
               static_cast<std::uint64_t>(st.st_dev) == shmDev_ &&
               static_cast<std::uint64_t>(st.st_ino) == shmIno_;
        ::close(fd);
    }
    if (ours)
        ::shm_unlink(shmName_.c_str());
}

std::uint64_t
SnapshotRegion::publishes() const
{
    return reinterpret_cast<const RegionHeader *>(base_)->publishes.load(
        std::memory_order_relaxed);
}

void
SnapshotRegion::heartbeat(std::uint64_t now_nanos)
{
    reinterpret_cast<RegionHeader *>(base_)->heartbeatNanos.store(
        now_nanos, std::memory_order_relaxed);
}

void
SnapshotRegion::setFaultInjection(const WriterFaultInjection &faults)
{
    faults_ = faults;
    faults_.armed = faults.dieAtPublish != 0 ||
                    faults.skipFinalEvenStoreAtPublish != 0 ||
                    faults.flipAtPublish != 0;
}

void
SnapshotRegion::write(std::size_t slot, std::uint64_t session_id,
                      std::uint64_t window_index, std::size_t end_slice,
                      const core::WindowExecution &execution,
                      const std::vector<sim::EventId> &events,
                      const std::vector<core::PosteriorPoint> &posterior,
                      std::uint64_t publish_nanos)
{
    bp_assert(slot < config_.slots, "snapshot write to slot "
                                        << slot << " of "
                                        << config_.slots);
    bp_assert(events.size() == posterior.size(),
              "snapshot write: " << events.size() << " events vs "
                                 << posterior.size() << " posteriors");
    SlotHeader *s = slotAt(base_, layout_, slot);
    const std::size_t n = std::min(events.size(), config_.maxEvents);
    const std::uint64_t publish_no =
        writeCalls_.fetch_add(1, std::memory_order_relaxed) + 1;

    // Seqlock write: heartbeat -> odd sequence -> payload + checksum
    // -> even sequence.  The heartbeat is stamped when the publish
    // opens, and the odd store releases it, so a reader that sees the
    // slot odd sees a heartbeat no older than this publish: an odd
    // slot under a silent heartbeat is a dead writer, never a live
    // one that was idle before it opened.  The release fence keeps
    // the payload stores after the odd store; the final release store
    // keeps them before the even store.  The checksum is folded over
    // the exact word values stored, inside the critical section, so
    // any bit that flips after the even store no longer matches it.
    //
    // The in-flight marker must be odd even when the previous publish
    // was abandoned mid-flight and left the sequence odd (a fault-
    // injected writer, or a future writer resuming a slot): blindly
    // storing s0 + 1 there would invert the parity protocol and
    // publish this window under an odd "closing" sequence.
    heartbeat(publish_nanos);
    const std::uint64_t s0 = s->seq.load(std::memory_order_relaxed);
    const std::uint64_t s_open = s0 + 1 + (s0 & 1);
    s->seq.store(s_open, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);

    const std::uint64_t fixed[kSlotFixedPayloadWords] = {
        1, // active
        session_id,
        window_index,
        static_cast<std::uint64_t>(end_slice),
        static_cast<std::uint64_t>(n),
        publish_nanos,
        static_cast<std::uint64_t>(execution.engineId),
        doubleBits(execution.queueWaitSeconds),
        doubleBits(execution.serviceSeconds),
        doubleBits(execution.transferSeconds),
        doubleBits(execution.modeledSeconds),
    };
    s->active.store(fixed[0], std::memory_order_relaxed);
    s->sessionId.store(fixed[1], std::memory_order_relaxed);
    s->windowIndex.store(fixed[2], std::memory_order_relaxed);
    s->endSlice.store(fixed[3], std::memory_order_relaxed);
    s->eventCount.store(fixed[4], std::memory_order_relaxed);
    s->publishNanos.store(fixed[5], std::memory_order_relaxed);
    s->engineId.store(fixed[6], std::memory_order_relaxed);
    s->queueWaitBits.store(fixed[7], std::memory_order_relaxed);
    s->serviceBits.store(fixed[8], std::memory_order_relaxed);
    s->transferBits.store(fixed[9], std::memory_order_relaxed);
    s->modeledBits.store(fixed[10], std::memory_order_relaxed);

    std::uint64_t acc = chainChecksum(kChecksumSeed, s_open + 1);
    for (std::size_t i = 0; i < kSlotFixedPayloadWords; ++i)
        acc = chainChecksum(acc, fixed[i]);
    SlotEvent *entries = s->events();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t ev = events[i];
        const std::uint64_t mean = doubleBits(posterior[i].mean);
        const std::uint64_t stddev = doubleBits(posterior[i].stddev);
        entries[i].event.store(ev, std::memory_order_relaxed);
        entries[i].meanBits.store(mean, std::memory_order_relaxed);
        entries[i].stddevBits.store(stddev, std::memory_order_relaxed);
        acc = chainChecksum(acc, ev);
        acc = chainChecksum(acc, mean);
        acc = chainChecksum(acc, stddev);
    }
    s->checksum.store(acc, std::memory_order_relaxed);

    if (faults_.armed) {
        if (faults_.dieAtPublish == publish_no) {
            // The crash window the chaos suite targets: payload and
            // checksum stored, closing even store never issued.
            ::kill(::getpid(), SIGKILL);
        }
        if (faults_.skipFinalEvenStoreAtPublish == publish_no)
            return; // slot left odd, publish uncounted
    }

    s->seq.store(s_open + 1, std::memory_order_release);
    reinterpret_cast<RegionHeader *>(base_)->publishes.fetch_add(
        1, std::memory_order_relaxed);

    if (faults_.armed && faults_.flipAtPublish == publish_no) {
        // An SEU between two publishes: flip bit(s) of one slot word
        // after the publish completed.  fetch_xor keeps the injection
        // itself race-free against concurrent readers.
        Word *words = reinterpret_cast<Word *>(s);
        words[faults_.flipWordIndex].fetch_xor(
            faults_.flipMask, std::memory_order_relaxed);
    }
}

void
SnapshotRegion::invalidate(std::size_t slot)
{
    bp_assert(slot < config_.slots, "snapshot invalidate of slot "
                                        << slot << " of "
                                        << config_.slots);
    SlotHeader *s = slotAt(base_, layout_, slot);
    heartbeat(steadyNowNanos()); // stamped at open, see write()
    const std::uint64_t s0 = s->seq.load(std::memory_order_relaxed);
    const std::uint64_t s_open = s0 + 1 + (s0 & 1); // odd, see write()
    s->seq.store(s_open, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
    // Zero the whole fixed payload (not just active/sessionId) so the
    // checksum covers one well-defined state: an invalidated slot is
    // all-zeros with event count 0.
    s->active.store(0, std::memory_order_relaxed);
    s->sessionId.store(0, std::memory_order_relaxed);
    s->windowIndex.store(0, std::memory_order_relaxed);
    s->endSlice.store(0, std::memory_order_relaxed);
    s->eventCount.store(0, std::memory_order_relaxed);
    s->publishNanos.store(0, std::memory_order_relaxed);
    s->engineId.store(0, std::memory_order_relaxed);
    s->queueWaitBits.store(0, std::memory_order_relaxed);
    s->serviceBits.store(0, std::memory_order_relaxed);
    s->transferBits.store(0, std::memory_order_relaxed);
    s->modeledBits.store(0, std::memory_order_relaxed);
    std::uint64_t acc = chainChecksum(kChecksumSeed, s_open + 1);
    for (std::size_t i = 0; i < kSlotFixedPayloadWords; ++i)
        acc = chainChecksum(acc, 0);
    s->checksum.store(acc, std::memory_order_relaxed);
    s->seq.store(s_open + 1, std::memory_order_release);
}

} // namespace shim
} // namespace bperf

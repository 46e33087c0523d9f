#include "shim/snapshot_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "common/logging.h"

namespace bperf {
namespace shim {

const char *
readStatusName(ReadStatus status)
{
    switch (status) {
      case ReadStatus::Ok: return "ok";
      case ReadStatus::NotFound: return "not-found";
      case ReadStatus::Torn: return "torn";
      case ReadStatus::WriterDead: return "writer-dead";
      case ReadStatus::Corrupt: return "corrupt";
    }
    return "unknown";
}

const char *
attachStatusName(AttachStatus status)
{
    switch (status) {
      case AttachStatus::Ok: return "ok";
      case AttachStatus::NoSegment: return "no-segment";
      case AttachStatus::NotReady: return "not-ready";
      case AttachStatus::BadMagic: return "bad-magic";
      case AttachStatus::VersionMismatch: return "version-mismatch";
      case AttachStatus::GeometryCorrupt: return "geometry-corrupt";
      case AttachStatus::TooSmall: return "too-small";
    }
    return "unknown";
}

SnapshotReader::SnapshotReader(const SnapshotRegion &region)
    : base_(region.base()), layout_(region.layout()),
      slots_(region.slots()), maxEvents_(region.maxEvents()),
      mappedBytes_(0)
{
    initState();
}

void
SnapshotReader::initState()
{
    state_ = std::make_unique<State>();
    state_->quarantineSeq =
        std::make_unique<std::atomic<std::uint64_t>[]>(slots_);
    state_->slotHint =
        std::make_unique<std::atomic<std::size_t>[]>(slots_);
    for (std::size_t i = 0; i < slots_; ++i) {
        state_->quarantineSeq[i].store(kNotQuarantined,
                                       std::memory_order_relaxed);
        state_->slotHint[i].store(slots_, std::memory_order_relaxed);
    }
}

namespace {

/** A geometry-word bound far beyond any real deployment: rejects
 * absurd values before RegionLayout::compute can overflow, even in
 * the (astronomically unlikely) case a flipped copy still checksums. */
constexpr std::uint64_t kMaxGeometryWord = 1ull << 20;

struct Geometry
{
    std::uint64_t version = 0;
    std::uint64_t slots = 0;
    std::uint64_t maxEvents = 0;
    std::uint64_t stride = 0;

    bool plausible() const
    {
        return slots > 0 && slots <= kMaxGeometryWord &&
               maxEvents > 0 && maxEvents <= kMaxGeometryWord &&
               stride <= kMaxGeometryWord * 64;
    }
};

bool
geometryValidates(const Geometry &g, std::uint64_t stored_sum)
{
    return geometryChecksum(g.version, g.slots, g.maxEvents, g.stride) ==
               stored_sum &&
           g.plausible();
}

AttachResult
attachFail(AttachStatus status, const void *mem, std::size_t mapped)
{
    if (mem != nullptr)
        ::munmap(const_cast<void *>(mem), mapped);
    AttachResult result;
    result.status = status;
    return result;
}

} // namespace

AttachResult
SnapshotReader::attach(const std::string &shm_name)
{
    const int fd = ::shm_open(shm_name.c_str(), O_RDONLY, 0);
    if (fd < 0)
        return attachFail(AttachStatus::NoSegment, nullptr, 0);
    struct stat st;
    if (::fstat(fd, &st) != 0 ||
        static_cast<std::size_t>(st.st_size) < sizeof(RegionHeader)) {
        ::close(fd);
        // Creator mid-ftruncate (or the segment was truncated under
        // the header itself); either way there is no header to read.
        return attachFail(AttachStatus::NotReady, nullptr, 0);
    }
    const std::size_t mapped = static_cast<std::size_t>(st.st_size);
    void *mem = ::mmap(nullptr, mapped, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (mem == MAP_FAILED)
        return attachFail(AttachStatus::NotReady, nullptr, 0);

    const auto *base = static_cast<const std::byte *>(mem);
    const auto *header = reinterpret_cast<const RegionHeader *>(base);
    const std::uint64_t magic =
        header->magic.load(std::memory_order_acquire);
    if (magic == 0) {
        // Exists but not initialised yet; caller retries.
        return attachFail(AttachStatus::NotReady, mem, mapped);
    }
    if (magic != kSnapshotMagic)
        return attachFail(AttachStatus::BadMagic, mem, mapped);

    // Geometry: use whichever checksummed copy validates (primary
    // preferred); a slot address is never computed from a word no
    // checksum vouches for.
    const Geometry primary{
        header->layoutVersion.load(std::memory_order_relaxed),
        header->slotCount.load(std::memory_order_relaxed),
        header->maxEvents.load(std::memory_order_relaxed),
        header->slotStride.load(std::memory_order_relaxed)};
    const Geometry dup{
        header->layoutVersionDup.load(std::memory_order_relaxed),
        header->slotCountDup.load(std::memory_order_relaxed),
        header->maxEventsDup.load(std::memory_order_relaxed),
        header->slotStrideDup.load(std::memory_order_relaxed)};
    Geometry geom;
    if (geometryValidates(
            primary,
            header->geometryChecksum.load(std::memory_order_relaxed)))
        geom = primary;
    else if (geometryValidates(dup, header->geometryChecksumDup.load(
                                        std::memory_order_relaxed)))
        geom = dup;
    else
        return attachFail(AttachStatus::GeometryCorrupt, mem, mapped);

    if (geom.version != kSnapshotLayoutVersion)
        return attachFail(AttachStatus::VersionMismatch, mem, mapped);

    const RegionLayout layout = RegionLayout::compute(
        static_cast<std::size_t>(geom.slots),
        static_cast<std::size_t>(geom.maxEvents));
    if (geom.stride != layout.slotStride) {
        // The writer's stride disagrees with the layout this reader
        // computes from the same slot/event counts: a corrupted (yet
        // checksum-surviving) word or an ABI drift no version bump
        // recorded.  Either way, slot addresses cannot be trusted.
        return attachFail(AttachStatus::GeometryCorrupt, mem, mapped);
    }
    if (layout.totalBytes > mapped) {
        // The file is smaller than its own geometry claims (truncated
        // after creation, or ftruncate raced): touching the missing
        // tail would SIGBUS, so the segment is refused up front.
        return attachFail(AttachStatus::TooSmall, mem, mapped);
    }

    SnapshotReader reader;
    reader.base_ = base;
    reader.layout_ = layout;
    reader.slots_ = static_cast<std::size_t>(geom.slots);
    reader.maxEvents_ = static_cast<std::size_t>(geom.maxEvents);
    reader.mappedBytes_ = mapped;
    reader.initState();
    AttachResult result;
    result.status = AttachStatus::Ok;
    result.reader.emplace(std::move(reader));
    return result;
}

SnapshotReader::~SnapshotReader()
{
    if (mappedBytes_ != 0)
        ::munmap(const_cast<std::byte *>(base_), mappedBytes_);
}

SnapshotReader::SnapshotReader(SnapshotReader &&other) noexcept
    : base_(other.base_), layout_(other.layout_), slots_(other.slots_),
      maxEvents_(other.maxEvents_), mappedBytes_(other.mappedBytes_),
      verifyChecksums_(other.verifyChecksums_),
      retryProbe_(std::move(other.retryProbe_)),
      state_(std::move(other.state_))
{
    other.base_ = nullptr;
    other.mappedBytes_ = 0;
}

SnapshotReader &
SnapshotReader::operator=(SnapshotReader &&other) noexcept
{
    if (this != &other) {
        if (mappedBytes_ != 0)
            ::munmap(const_cast<std::byte *>(base_), mappedBytes_);
        base_ = other.base_;
        layout_ = other.layout_;
        slots_ = other.slots_;
        maxEvents_ = other.maxEvents_;
        mappedBytes_ = other.mappedBytes_;
        verifyChecksums_ = other.verifyChecksums_;
        retryProbe_ = std::move(other.retryProbe_);
        state_ = std::move(other.state_);
        other.base_ = nullptr;
        other.mappedBytes_ = 0;
    }
    return *this;
}

std::uint64_t
SnapshotReader::publishes() const
{
    return reinterpret_cast<const RegionHeader *>(base_)->publishes.load(
        std::memory_order_relaxed);
}

std::uint64_t
SnapshotReader::writerHeartbeatNanos() const
{
    return reinterpret_cast<const RegionHeader *>(base_)
        ->heartbeatNanos.load(std::memory_order_relaxed);
}

std::uint64_t
SnapshotReader::writerIdleNanos() const
{
    const std::uint64_t beat = writerHeartbeatNanos();
    const std::uint64_t now = steadyNowNanos();
    return now > beat ? now - beat : 0;
}

std::optional<ReadStatus>
SnapshotReader::checkQuarantine(std::size_t slot,
                                std::uint64_t seq_now) const
{
    std::atomic<std::uint64_t> &entry = state_->quarantineSeq[slot];
    const std::uint64_t qseq = entry.load(std::memory_order_relaxed);
    if (qseq == kNotQuarantined)
        return std::nullopt;
    if (qseq != seq_now) {
        // The sequence moved since the verdict: the writer (or a
        // successor publish) touched the slot, so it gets a fresh
        // poll.
        entry.store(kNotQuarantined, std::memory_order_relaxed);
        return std::nullopt;
    }
    state_->quarantineSkips.fetch_add(1, std::memory_order_relaxed);
    // The verdict is recoverable from the condemned sequence's
    // parity: a slot is quarantined odd (writer died mid-publish) or
    // stable-even-with-bad-checksum (corrupt).
    return (qseq & 1) ? ReadStatus::WriterDead : ReadStatus::Corrupt;
}

void
SnapshotReader::quarantine(std::size_t slot, std::uint64_t seq) const
{
    state_->quarantineSeq[slot].store(seq, std::memory_order_relaxed);
}

void
SnapshotReader::countRead(ReadStatus status) const
{
    switch (status) {
      case ReadStatus::Ok:
        state_->okReads.fetch_add(1, std::memory_order_relaxed);
        break;
      case ReadStatus::NotFound:
        state_->notFoundReads.fetch_add(1, std::memory_order_relaxed);
        break;
      case ReadStatus::Torn:
        state_->tornReads.fetch_add(1, std::memory_order_relaxed);
        break;
      case ReadStatus::WriterDead:
        state_->deadReads.fetch_add(1, std::memory_order_relaxed);
        break;
      case ReadStatus::Corrupt:
        state_->corruptReads.fetch_add(1, std::memory_order_relaxed);
        break;
    }
}

ReaderStats
SnapshotReader::stats() const
{
    ReaderStats out;
    out.okReads = state_->okReads.load(std::memory_order_relaxed);
    out.notFoundReads =
        state_->notFoundReads.load(std::memory_order_relaxed);
    out.tornReads = state_->tornReads.load(std::memory_order_relaxed);
    out.deadReads = state_->deadReads.load(std::memory_order_relaxed);
    out.corruptReads =
        state_->corruptReads.load(std::memory_order_relaxed);
    out.quarantineSkips =
        state_->quarantineSkips.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < slots_; ++i)
        if (state_->quarantineSeq[i].load(std::memory_order_relaxed) !=
            kNotQuarantined)
            ++out.quarantinedSlots;
    return out;
}

namespace {

/**
 * The calling thread's decode target.  An Ok decode is swapped into
 * the caller's snapshot, so the scratch takes over the caller's old
 * buffers: a caller that reuses its `out` ping-pongs two counters
 * vectors, and once both have grown a read allocates nothing.  A
 * failed decode dirties only the scratch, never `out`.
 */
PosteriorSnapshot &
decodeScratch()
{
    thread_local PosteriorSnapshot scratch;
    return scratch;
}

} // namespace

ReadStatus
SnapshotReader::readSlotImpl(std::size_t slot, PosteriorSnapshot &snap,
                             std::size_t max_retries) const
{
    bp_assert(slot < slots_,
              "snapshot read of slot " << slot << " of " << slots_);
    const SlotHeader *s = slotAt(base_, layout_, slot);
    {
        const std::uint64_t seq_now =
            s->seq.load(std::memory_order_relaxed);
        if (const auto cached = checkQuarantine(slot, seq_now))
            return *cached;
    }

    std::uint64_t s1 = 0;
    for (std::size_t attempt = 0; attempt <= max_retries; ++attempt) {
        if (retryProbe_)
            retryProbe_(attempt);
        s1 = s->seq.load(std::memory_order_acquire);
        if (s1 & 1)
            continue; // write in flight
        if (s1 == 0)
            return ReadStatus::NotFound; // never published

        // Copy the payload under the sequence; relaxed atomic loads
        // cannot tear, and the acquire fence below orders them before
        // the validating re-read of the sequence.  Every raw word is
        // folded into the checksum as it is copied, in the writer's
        // order (closing even sequence, fixed words, event words).
        std::uint64_t acc = chainChecksum(kChecksumSeed, s1);
        const std::uint64_t active =
            s->active.load(std::memory_order_relaxed);
        acc = chainChecksum(acc, active);
        const std::uint64_t session =
            s->sessionId.load(std::memory_order_relaxed);
        acc = chainChecksum(acc, session);
        snap.sessionId = session;
        const std::uint64_t window =
            s->windowIndex.load(std::memory_order_relaxed);
        acc = chainChecksum(acc, window);
        snap.windowIndex = window;
        const std::uint64_t end_slice =
            s->endSlice.load(std::memory_order_relaxed);
        acc = chainChecksum(acc, end_slice);
        snap.endSlice = static_cast<std::size_t>(end_slice);
        const std::uint64_t count =
            s->eventCount.load(std::memory_order_relaxed);
        acc = chainChecksum(acc, count);
        const std::uint64_t publish_nanos =
            s->publishNanos.load(std::memory_order_relaxed);
        acc = chainChecksum(acc, publish_nanos);
        snap.publishNanos = publish_nanos;
        // Reset first: windowOrdinal and span are not in the slot and
        // would otherwise carry over from the scratch's last owner.
        snap.execution = core::WindowExecution{};
        const std::uint64_t engine =
            s->engineId.load(std::memory_order_relaxed);
        acc = chainChecksum(acc, engine);
        snap.execution.engineId = static_cast<std::size_t>(engine);
        snap.execution.endSlice = snap.endSlice;
        const std::uint64_t queue_bits =
            s->queueWaitBits.load(std::memory_order_relaxed);
        acc = chainChecksum(acc, queue_bits);
        snap.execution.queueWaitSeconds = bitsDouble(queue_bits);
        const std::uint64_t service_bits =
            s->serviceBits.load(std::memory_order_relaxed);
        acc = chainChecksum(acc, service_bits);
        snap.execution.serviceSeconds = bitsDouble(service_bits);
        const std::uint64_t transfer_bits =
            s->transferBits.load(std::memory_order_relaxed);
        acc = chainChecksum(acc, transfer_bits);
        snap.execution.transferSeconds = bitsDouble(transfer_bits);
        const std::uint64_t modeled_bits =
            s->modeledBits.load(std::memory_order_relaxed);
        acc = chainChecksum(acc, modeled_bits);
        snap.execution.modeledSeconds = bitsDouble(modeled_bits);

        if (count > maxEvents_) {
            // Copying `count` entries would run off the end of the
            // segment.  Stable sequence -> the count word itself is
            // corrupt; moved sequence -> an ordinary torn attempt.
            std::atomic_thread_fence(std::memory_order_acquire);
            if (s->seq.load(std::memory_order_relaxed) != s1)
                continue;
            quarantine(slot, s1);
            return ReadStatus::Corrupt;
        }
        const SlotEvent *entries = s->events();
        snap.counters.resize(static_cast<std::size_t>(count));
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t ev =
                entries[i].event.load(std::memory_order_relaxed);
            const std::uint64_t mean =
                entries[i].meanBits.load(std::memory_order_relaxed);
            const std::uint64_t stddev =
                entries[i].stddevBits.load(std::memory_order_relaxed);
            acc = chainChecksum(acc, ev);
            acc = chainChecksum(acc, mean);
            acc = chainChecksum(acc, stddev);
            snap.counters[i].event = static_cast<sim::EventId>(ev);
            snap.counters[i].posterior.mean = bitsDouble(mean);
            snap.counters[i].posterior.stddev = bitsDouble(stddev);
        }
        const std::uint64_t stored =
            s->checksum.load(std::memory_order_relaxed);

        std::atomic_thread_fence(std::memory_order_acquire);
        if (s->seq.load(std::memory_order_relaxed) != s1)
            continue; // torn: the writer moved under us

        if (verifyChecksums_ && acc != stored) {
            // Stable even sequence, bad checksum: a payload word was
            // corrupted in place.  Detected and withheld — this is
            // the one path that must never fall through to Ok.
            quarantine(slot, s1);
            return ReadStatus::Corrupt;
        }
        if (active == 0)
            return ReadStatus::NotFound; // slot invalidated
        snap.retries = attempt;
        const std::uint64_t now = steadyNowNanos();
        snap.ageNanos =
            now > snap.publishNanos ? now - snap.publishNanos : 0;
        return ReadStatus::Ok;
    }
    // Out of retries.  A slot still odd holds a publish in flight,
    // and the acquire load that saw it odd also sees the heartbeat
    // that publish stamped when it opened: only a writer silent since
    // then is dead.  Anything else is a live writer, however long it
    // was descheduled mid-publish.
    if ((s1 & 1) && writerIdleNanos() > kWriterSilentNanos) {
        quarantine(slot, s1);
        return ReadStatus::WriterDead;
    }
    return ReadStatus::Torn;
}

ReadStatus
SnapshotReader::readSlot(std::size_t slot, PosteriorSnapshot &out,
                         std::size_t max_retries) const
{
    PosteriorSnapshot &snap = decodeScratch();
    const ReadStatus status = readSlotImpl(slot, snap, max_retries);
    if (status == ReadStatus::Ok)
        std::swap(out, snap);
    countRead(status);
    return status;
}

ReadStatus
SnapshotReader::read(std::uint64_t session_id, PosteriorSnapshot &out,
                     std::size_t max_retries) const
{
    // `out` only ever receives an Ok decode of this very session: a
    // consumer may keep its last-known snapshot across a failed poll,
    // and a slot may have been handed to another session.
    PosteriorSnapshot &snap = decodeScratch();
    std::atomic<std::size_t> &hint = state_->slotHint[session_id % slots_];
    const std::size_t hinted = hint.load(std::memory_order_relaxed);
    bool torn = false;
    bool writer_dead = false;
    bool corrupt = false;
    // Decodes one slot and folds its verdict in; true on an Ok read
    // of this session.
    const auto probe = [&](std::size_t slot) {
        switch (readSlotImpl(slot, snap, max_retries)) {
          case ReadStatus::Ok: return snap.sessionId == session_id;
          case ReadStatus::NotFound: break;
          case ReadStatus::Torn: torn = true; break;
          case ReadStatus::WriterDead: writer_dead = true; break;
          case ReadStatus::Corrupt: corrupt = true; break;
        }
        return false;
    };
    const auto found = [&] {
        std::swap(out, snap);
        countRead(ReadStatus::Ok);
        return ReadStatus::Ok;
    };
    if (hinted < slots_ && probe(hinted))
        return found();
    // No hint, or it went stale (the session moved or closed, or
    // another id with the same residue was read since), or its slot
    // is degraded: scan the rest of the table and refresh the hint.
    // The hinted slot keeps the verdict it just gave, so a slot held
    // odd spins the retry budget once per read, not twice.
    for (std::size_t slot = 0; slot < slots_; ++slot) {
        if (slot != hinted && probe(slot)) {
            hint.store(slot, std::memory_order_relaxed);
            return found();
        }
    }
    // A degraded slot could have been the session's; report the
    // strongest signal so the consumer reacts correctly — WriterDead
    // over Corrupt (a dead writer publishes nothing more; corruption
    // can be overwritten by the next publish), Corrupt over Torn (the
    // payload is provably bad, not merely contended), Torn over
    // NotFound (the consumer should retry instead of concluding the
    // session is gone).
    ReadStatus result = ReadStatus::NotFound;
    if (writer_dead)
        result = ReadStatus::WriterDead;
    else if (corrupt)
        result = ReadStatus::Corrupt;
    else if (torn)
        result = ReadStatus::Torn;
    countRead(result);
    return result;
}

std::vector<std::uint64_t>
SnapshotReader::sessions(ScanHealth *health) const
{
    std::vector<std::uint64_t> ids;
    ScanHealth tally;
    PosteriorSnapshot &snap = decodeScratch();
    for (std::size_t slot = 0; slot < slots_; ++slot) {
        switch (readSlotImpl(slot, snap, kDefaultMaxRetries)) {
          case ReadStatus::Ok:
            ++tally.active;
            ids.push_back(snap.sessionId);
            break;
          case ReadStatus::NotFound:
            ++tally.empty;
            break;
          case ReadStatus::Torn:
            ++tally.torn;
            break;
          case ReadStatus::WriterDead:
            ++tally.writerDead;
            break;
          case ReadStatus::Corrupt:
            ++tally.corrupt;
            break;
        }
    }
    if (health != nullptr)
        *health = tally;
    return ids;
}

} // namespace shim
} // namespace bperf

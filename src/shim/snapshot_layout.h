/**
 * @file
 * Wire layout of the posterior snapshot table — the paper's consumer
 * shim.  One writer (the monitoring daemon) keeps a fixed table of
 * per-session slots fresh inside a shared-memory segment; any number
 * of consumer processes map the segment read-only and poll the latest
 * corrected-counter posteriors without ever taking a lock or making
 * an RPC.
 *
 * Concurrency design: every slot is a seqlock.  The writer bumps the
 * slot's sequence word to odd, stores the payload, and bumps it back
 * to even; a reader snapshots the sequence, copies the payload, and
 * retries if the sequence moved or was odd (a torn read).  All
 * payload cells are lock-free relaxed atomics, so the protocol is
 * simultaneously
 *   - wait-free for the writer (a publish is a bounded store burst),
 *   - obstruction-free for readers (bounded retries, no writer
 *     blocking), and
 *   - data-race-free in the C++ memory model (TSan-clean for the
 *     in-process variant; the cross-process variant is the same code
 *     over an mmap'd segment).
 *
 * Everything in the segment is a 64-bit word: integers directly,
 * doubles as their IEEE-754 bit pattern (bit-preserving, so a reader
 * observes posteriors bit-identical to the in-process subscription
 * stream).  The layout is versioned; readers refuse segments whose
 * magic/version/geometry do not match what they were compiled with.
 *
 * Layout v2 builds integrity into the protocol, in the spirit of
 * SEU-hardening via redundancy (ASPIS): a slot carries a 64-bit
 * checksum over its payload words (written inside the seqlock
 * critical section, verified on every read — a flipped payload word
 * under a stable even sequence is reported, never served), the
 * header's geometry words are duplicated and checksummed (a flipped
 * `slotStride`/`slotCount` is detected — or repaired from the copy —
 * instead of trusted), and the header carries a writer heartbeat
 * stamp so readers can tell a dead daemon from an idle one at region
 * granularity.
 */

#ifndef BPERF_SHIM_SNAPSHOT_LAYOUT_H
#define BPERF_SHIM_SNAPSHOT_LAYOUT_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace bperf {
namespace shim {

/** Every cell of the segment: a lock-free 64-bit atomic word. */
using Word = std::atomic<std::uint64_t>;

static_assert(sizeof(Word) == sizeof(std::uint64_t),
              "snapshot layout requires plain 8-byte atomic words");
static_assert(Word::is_always_lock_free,
              "snapshot layout requires lock-free 64-bit atomics");

/** "BPSNPSHM" — identifies an initialised snapshot segment. */
inline constexpr std::uint64_t kSnapshotMagic = 0x4250534e5053484dull;

/** Bumped on any incompatible layout change.  v2: per-slot payload
 * checksums, duplicated-and-checksummed header geometry, writer
 * heartbeat word. */
inline constexpr std::uint64_t kSnapshotLayoutVersion = 2;

/**
 * The shim's 64-bit word mixer (splitmix64 finalizer): full-avalanche,
 * so a single flipped payload bit flips ~half the checksum bits.
 */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/** Seed of every chained checksum (an empty chain is never 0). */
inline constexpr std::uint64_t kChecksumSeed = 0x8f3a91c2d5e70b64ull;

/**
 * Chain one word into a running checksum.  Order-sensitive (the odd
 * constant breaks xor symmetry), so swapped words are detected too.
 * Writer and reader must fold the exact same word sequence.
 */
inline std::uint64_t
chainChecksum(std::uint64_t acc, std::uint64_t word)
{
    return mix64(acc ^ word) + 0x9e3779b97f4a7c15ull;
}

/** Store a double's bit pattern in a word (bit-preserving). */
inline std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Recover a double from its stored bit pattern. */
inline double
bitsDouble(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/**
 * The shim's time base: steady_clock (CLOCK_MONOTONIC) nanoseconds.
 * Writers stamp publishes with it and readers subtract their own
 * reading to bound staleness, so BOTH sides must use this one helper
 * — a clock mismatch would silently skew every age computation
 * across the process boundary.
 */
inline std::uint64_t
steadyNowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Segment header (offset 0).  geometry fields are written once at
 * creation and read-only afterwards; `magic` is stored *last* with
 * release ordering, so an attaching reader that observes the magic
 * also observes a fully initialised geometry.
 *
 * The geometry words {layoutVersion, slotCount, maxEvents, slotStride}
 * exist twice, each copy guarded by a chained checksum, so a reader
 * never computes slot addresses from a flipped word: it uses whichever
 * copy validates (primary preferred) and refuses the segment when
 * neither does (AttachStatus::GeometryCorrupt).
 */
struct RegionHeader
{
    Word magic;         ///< kSnapshotMagic once the segment is ready.
    Word layoutVersion; ///< kSnapshotLayoutVersion of the writer.
    Word slotCount;     ///< Session slots in the table.
    Word maxEvents;     ///< Posterior entries per slot.
    Word slotStride;    ///< Bytes between consecutive slots.
    Word publishes;     ///< Total publishes across all slots (live).

    /** Writer liveness: steady-clock stamp of the writer's latest
     * publish open or explicit heartbeat() — readers subtract their
     * own clock to tell a dead daemon from an idle one, and a slot
     * left odd is WriterDead only once this word has gone silent. */
    Word heartbeatNanos;

    /** chainChecksum over {layoutVersion, slotCount, maxEvents,
     * slotStride}, in that order. */
    Word geometryChecksum;

    /** Redundant copy of the geometry words + its own checksum. */
    Word layoutVersionDup;
    Word slotCountDup;
    Word maxEventsDup;
    Word slotStrideDup;
    Word geometryChecksumDup;
};

/** Fold the four geometry words into their guard checksum. */
inline std::uint64_t
geometryChecksum(std::uint64_t version, std::uint64_t slots,
                 std::uint64_t max_events, std::uint64_t stride)
{
    std::uint64_t acc = kChecksumSeed;
    acc = chainChecksum(acc, version);
    acc = chainChecksum(acc, slots);
    acc = chainChecksum(acc, max_events);
    return chainChecksum(acc, stride);
}

/** One posterior entry of one slot: event id + mean/stddev bits. */
struct SlotEvent
{
    Word event;      ///< sim::EventId, widened to 64 bits.
    Word meanBits;   ///< Posterior mean (double bits).
    Word stddevBits; ///< Posterior stddev (double bits).
};

/**
 * Fixed head of one session slot; `maxEvents` SlotEvent entries
 * follow immediately after.  Everything below `seq` is seqlock
 * payload: only valid when read under a stable even sequence.
 */
struct SlotHeader
{
    /** Seqlock sequence: odd while a write is in flight; 0 means the
     * slot has never been published. */
    Word seq;

    /** chainChecksum over the closing (even) sequence value followed
     * by every payload word below, in declaration order, then the
     * `eventCount` trailing SlotEvent words in order.  Written inside
     * the seqlock critical section; a reader that copies a stable
     * even-sequence payload whose checksum does not match reports
     * ReadStatus::Corrupt — a flipped bit is detected, never served. */
    Word checksum;

    Word active;       ///< 1 while a live session owns the slot.
    Word sessionId;    ///< Owning session.
    Word windowIndex;  ///< Per-session window counter (completion order).
    Word endSlice;     ///< Slice whose arrival completed the window.
    Word eventCount;   ///< Valid SlotEvent entries (<= maxEvents).
    Word publishNanos; ///< steady_clock stamp of the publish (staleness).
    Word engineId;     ///< Backend engine that served the window.
    Word queueWaitBits; ///< WindowExecution.queueWaitSeconds (double bits).
    Word serviceBits;   ///< WindowExecution.serviceSeconds (double bits).
    Word transferBits;  ///< WindowExecution.transferSeconds (double bits).
    Word modeledBits;   ///< WindowExecution.modeledSeconds (double bits).

    /** Trailing posterior entries (writer-side view). */
    SlotEvent *events() noexcept
    {
        return reinterpret_cast<SlotEvent *>(this + 1);
    }
    const SlotEvent *events() const noexcept
    {
        return reinterpret_cast<const SlotEvent *>(this + 1);
    }
};

static_assert(sizeof(RegionHeader) % sizeof(Word) == 0, "word layout");
static_assert(sizeof(SlotHeader) % sizeof(Word) == 0, "word layout");
static_assert(sizeof(SlotEvent) % sizeof(Word) == 0, "word layout");

/** Fixed payload words a slot checksum covers (every SlotHeader word
 * below `checksum`, in declaration order). */
inline constexpr std::size_t kSlotFixedPayloadWords = 11;

/**
 * The slot checksum both sides must compute: the closing (even)
 * sequence value, the kSlotFixedPayloadWords fixed payload words,
 * then 3 * event_count trailing SlotEvent words.  Binding the
 * sequence value in means even a flipped sequence word (even -> other
 * even) cannot revalidate a stale payload.
 */
inline std::uint64_t
slotChecksum(std::uint64_t even_seq, const std::uint64_t *fixed_words,
             const std::uint64_t *event_words, std::size_t event_count)
{
    std::uint64_t acc = chainChecksum(kChecksumSeed, even_seq);
    for (std::size_t i = 0; i < kSlotFixedPayloadWords; ++i)
        acc = chainChecksum(acc, fixed_words[i]);
    for (std::size_t i = 0; i < 3 * event_count; ++i)
        acc = chainChecksum(acc, event_words[i]);
    return acc;
}

/** Byte geometry of a segment; identical for writer and readers. */
struct RegionLayout
{
    std::size_t headerBytes = 0; ///< Header, rounded to a cache line.
    std::size_t slotStride = 0;  ///< Per-slot bytes, cache-line rounded.
    std::size_t totalBytes = 0;  ///< Whole segment.

    static RegionLayout compute(std::size_t slots, std::size_t max_events)
    {
        constexpr std::size_t kLine = 64;
        auto round = [](std::size_t n) {
            return (n + kLine - 1) / kLine * kLine;
        };
        RegionLayout layout;
        layout.headerBytes = round(sizeof(RegionHeader));
        layout.slotStride =
            round(sizeof(SlotHeader) + max_events * sizeof(SlotEvent));
        layout.totalBytes =
            layout.headerBytes + slots * layout.slotStride;
        return layout;
    }
};

/** Slot `index` of a mapped segment (writer-side, mutable view). */
inline SlotHeader *
slotAt(std::byte *base, const RegionLayout &layout, std::size_t index)
{
    return reinterpret_cast<SlotHeader *>(
        base + layout.headerBytes + index * layout.slotStride);
}

/** Slot `index` of a mapped segment (reader-side view). */
inline const SlotHeader *
slotAt(const std::byte *base, const RegionLayout &layout,
       std::size_t index)
{
    return reinterpret_cast<const SlotHeader *>(
        base + layout.headerBytes + index * layout.slotStride);
}

} // namespace shim
} // namespace bperf

#endif // BPERF_SHIM_SNAPSHOT_LAYOUT_H

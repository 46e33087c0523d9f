/**
 * @file
 * Consumer side of the posterior snapshot shim: a lock-free,
 * poll-style reader over a snapshot segment, usable in-process (over
 * a live SnapshotRegion) or from another process entirely (attach to
 * the daemon's named segment read-only).
 *
 * Reads are versioned seqlock copies: a reader snapshots the slot's
 * sequence, copies the payload, and retries when the sequence moved —
 * torn reads are detected, never returned.  Layout v2 adds integrity
 * on top of consistency: every copied payload is verified against the
 * slot's checksum (a flipped bit under a stable even sequence is
 * ReadStatus::Corrupt, never Ok), attach failures are typed instead
 * of fatal (AttachResult), the segment's fstat size is re-validated
 * against its checksummed geometry so truncated segments are refused
 * rather than faulted on, and slots that prove corrupt or
 * writer-dead are quarantined — skipped-and-counted on scans until
 * their sequence moves again (ReaderStats).  Writer death is judged
 * from the region's heartbeat word, never from how long a read
 * spun.
 *
 * Thread contract: all read methods are safe from any thread,
 * concurrently with the writer; the quarantine and hint tables and
 * the stats counters are atomics, and each thread decodes into its
 * own scratch snapshot.  setVerifyChecksums()/setRetryProbe()
 * configure the reader and must not race reads.
 */

#ifndef BPERF_SHIM_SNAPSHOT_READER_H
#define BPERF_SHIM_SNAPSHOT_READER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/inference.h"
#include "shim/snapshot_layout.h"
#include "shim/snapshot_region.h"
#include "sim/microarch.h"

namespace bperf {
namespace shim {

/** Outcome of one snapshot read. */
enum class ReadStatus
{
    /** A consistent snapshot was copied out. */
    Ok,
    /** No active slot holds the session (never published, or the
     * session closed and its slot was invalidated). */
    NotFound,
    /** Retries exhausted without a stable sequence while the writer
     * heartbeat is fresh: a live writer is publishing under us, or
     * was descheduled mid-publish, however long that took.
     * Transient; try again. */
    Torn,
    /** Retries exhausted with the slot still odd — a publish in
     * flight — and the writer heartbeat silent for longer than
     * SnapshotReader::kWriterSilentNanos.  Every publish stamps the
     * heartbeat when it opens, so the writer died (or was killed)
     * mid-publish.  The verdict lifts when the slot's sequence moves
     * (a successor writer publishes into it); until then consumers
     * should treat the session as lost, not poll it as contended. */
    WriterDead,
    /** The payload was copied under a stable even sequence but does
     * not match the slot's checksum: a payload or checksum word was
     * corrupted in place (bit flip, stray write).  Never returned as
     * Ok — the snapshot is detected bad and withheld. */
    Corrupt,
};

/** Stable identifier of a ReadStatus (logs, tables, tests). */
const char *readStatusName(ReadStatus status);

/** Why an attach failed (or did not, with AttachStatus::Ok). */
enum class AttachStatus
{
    /** Attached; AttachResult::reader holds the view. */
    Ok,
    /** shm_open found no segment of that name.  Retryable — the
     * daemon may not have created it yet. */
    NoSegment,
    /** The segment exists but its magic is still zero: the creator
     * is between ftruncate and publication.  Retryable. */
    NotReady,
    /** The magic word is non-zero but wrong: not a snapshot segment
     * (or its header was overwritten).  A deployment error — do not
     * retry. */
    BadMagic,
    /** The writer speaks a different layout version.  A deployment
     * error — rebuild one side. */
    VersionMismatch,
    /** Neither copy of the header's geometry words validates against
     * its checksum, or the copies disagree with the computed layout:
     * the header is corrupt and no slot address can be trusted. */
    GeometryCorrupt,
    /** The segment's fstat size is smaller than its own geometry
     * claims (truncated, or ftruncate raced): mapping it would trade
     * reads for SIGBUS, so it is refused. */
    TooSmall,
};

/** Stable identifier of an AttachStatus (logs, error tables). */
const char *attachStatusName(AttachStatus status);

/** Outcome of SnapshotReader::attach (defined after the class — it
 * carries the reader by value). */
struct AttachResult;

/** One event's posterior as stored in a slot (bit-identical to the
 * writer's WindowUpdate entry). */
struct SnapshotCounter
{
    sim::EventId event = 0;
    core::PosteriorPoint posterior;
};

/** One consistent per-session snapshot, plus read-side metadata. */
struct PosteriorSnapshot
{
    std::uint64_t sessionId = 0;
    /** Per-session window counter (completion order). */
    std::uint64_t windowIndex = 0;
    /** Slice whose arrival completed the window. */
    std::size_t endSlice = 0;
    /** Modeled backend execution of the window. */
    core::WindowExecution execution;
    /** Latest posterior of each monitored event. */
    std::vector<SnapshotCounter> counters;

    /** Writer's steady-clock publish stamp (nanoseconds). */
    std::uint64_t publishNanos = 0;
    /** Staleness bound of this read: reader clock minus publish
     * stamp, clamped at 0 (nanoseconds). */
    std::uint64_t ageNanos = 0;
    /** Torn-read retries this read needed (0 = first try). */
    std::uint64_t retries = 0;
};

/**
 * Per-reader health accounting: every read()/readSlot() outcome is
 * counted, plus quarantine activity.  Snapshot via stats(); counters
 * are cumulative since construction.
 */
struct ReaderStats
{
    std::uint64_t okReads = 0;       ///< Consistent snapshots served.
    std::uint64_t notFoundReads = 0; ///< Empty/invalidated slots seen.
    std::uint64_t tornReads = 0;     ///< Retry budgets exhausted live.
    std::uint64_t deadReads = 0;     ///< Odd under a silent heartbeat.
    std::uint64_t corruptReads = 0;  ///< Checksum-mismatch snapshots.
    /** Scan probes answered from the quarantine table instead of a
     * fresh retry loop (the skipped-and-counted slots). */
    std::uint64_t quarantineSkips = 0;
    /** Slots currently quarantined (Corrupt/WriterDead, sequence has
     * not moved since). */
    std::size_t quarantinedSlots = 0;
};

/** Health of one sessions() scan: how every slot answered. */
struct ScanHealth
{
    std::size_t active = 0;     ///< Slots with a live session id.
    std::size_t empty = 0;      ///< Never-published / invalidated.
    std::size_t torn = 0;       ///< Unstable under the retry budget.
    std::size_t writerDead = 0; ///< Writer dead (incl. quarantined).
    std::size_t corrupt = 0;    ///< Checksum failures (incl. quarantined).

    /** Slots whose state could not be trusted this scan. */
    std::size_t degraded() const { return torn + writerDead + corrupt; }
};

/**
 * Read-only view over a snapshot segment.  Move-only; unmaps an
 * attached segment on destruction (an in-process view borrows the
 * region's mapping and must not outlive it).
 */
class SnapshotReader
{
  public:
    /** Default torn-read retry bound per read. */
    static constexpr std::size_t kDefaultMaxRetries = 64;

    /** How long the writer heartbeat must have been silent before a
     * slot still odd after the retry budget reads WriterDead instead
     * of Torn: 1 s, ~90x the longest mid-publish stall measured
     * (11.4 ms, on a 4-vCPU VM under 22% host steal).  The retry
     * budget only bounds how long one read spins. */
    static constexpr std::uint64_t kWriterSilentNanos = 1000000000;

    /** In-process view over a live region (no copy, no syscalls). */
    explicit SnapshotReader(const SnapshotRegion &region);

    /**
     * Attach to a named segment read-only.  Never dies: every failure
     * is a typed AttachStatus — NoSegment/NotReady are the normal
     * boot race (poll again), the rest are deployment errors or
     * header corruption the caller must surface.
     */
    static AttachResult attach(const std::string &shm_name);

    ~SnapshotReader();
    SnapshotReader(SnapshotReader &&other) noexcept;
    SnapshotReader &operator=(SnapshotReader &&other) noexcept;
    SnapshotReader(const SnapshotReader &) = delete;
    SnapshotReader &operator=(const SnapshotReader &) = delete;

    std::size_t slots() const { return slots_; }
    std::size_t maxEvents() const { return maxEvents_; }

    /** Writer's total publish count (monotone; freshness signal). */
    std::uint64_t publishes() const;

    /** The writer's latest heartbeat stamp (steady-clock nanos). */
    std::uint64_t writerHeartbeatNanos() const;

    /** Nanoseconds since the writer's last heartbeat, by this
     * reader's steady clock (0 if the stamp is in the future).  A
     * bound that keeps growing marks a dead daemon; one that resets
     * marks an idle-but-alive one. */
    std::uint64_t writerIdleNanos() const;

    /** Session ids of every active slot (one consistent read each).
     * With `health`, also reports how every slot answered — so an
     * enumerating consumer can tell "those sessions are gone" from
     * "those slots could not be trusted this scan". */
    std::vector<std::uint64_t> sessions(ScanHealth *health = nullptr) const;

    /**
     * Copy the latest snapshot of `session_id` into `out`.  Decodes
     * the slot where this reader last found the session first; only a
     * missing, stale or degraded hint falls back to a scan of the
     * other slots, which refreshes the hint (each slot is decoded at
     * most once per read).  Wait-free except for
     * seqlock retries, which are bounded by `max_retries`.  `out` is
     * written only on Ok; a caller that reuses it allocates nothing
     * per read in the steady state.
     */
    ReadStatus read(std::uint64_t session_id, PosteriorSnapshot &out,
                    std::size_t max_retries = kDefaultMaxRetries) const;

    /** Copy slot `slot` directly (consumers that cached a slot);
     * `out` is written only on Ok, as for read(). */
    ReadStatus readSlot(std::size_t slot, PosteriorSnapshot &out,
                        std::size_t max_retries = kDefaultMaxRetries) const;

    /** Cumulative read/quarantine accounting for this reader. */
    ReaderStats stats() const;

    /**
     * Disable (or re-enable) payload checksum verification.  Only for
     * measurement — bench_shim_read uses it to price the verify step;
     * consumers must leave it on.
     */
    void setVerifyChecksums(bool verify) { verifyChecksums_ = verify; }

    /**
     * Chaos/test instrumentation: invoked at the top of every retry
     * attempt of a slot decode with the attempt index.  Lets
     * a test mutate the slot at a deterministic point mid-scan.  Keep
     * unset in production (one branch per attempt when unset).
     */
    void setRetryProbe(std::function<void(std::size_t)> probe)
    {
        retryProbe_ = std::move(probe);
    }

  private:
    SnapshotReader() = default;

    /** Allocate the quarantine and hint tables + stats block for
     * slots_. */
    void initState();

    /** The one slot decode behind readSlot(), read() and sessions(),
     * without stats counting (read() aggregates its own outcomes into
     * one counted result).  Decodes into `snap`, which holds a full
     * snapshot on Ok and is left partly written otherwise. */
    ReadStatus readSlotImpl(std::size_t slot, PosteriorSnapshot &snap,
                            std::size_t max_retries) const;

    /** Quarantine fast path: if `slot` is quarantined and its
     * sequence has not moved, return the quarantined status without
     * a retry loop.  Clears the entry when the sequence moved. */
    std::optional<ReadStatus> checkQuarantine(std::size_t slot,
                                              std::uint64_t seq_now) const;

    /** Record a Corrupt/WriterDead verdict for the slot's current
     * sequence; scans skip it until the sequence moves. */
    void quarantine(std::size_t slot, std::uint64_t seq) const;

    /** Bump the ReaderStats counter matching `status`. */
    void countRead(ReadStatus status) const;

    const std::byte *base_ = nullptr;
    RegionLayout layout_;
    std::size_t slots_ = 0;
    std::size_t maxEvents_ = 0;
    /** Bytes to munmap at destruction; 0 for borrowed mappings. */
    std::size_t mappedBytes_ = 0;
    bool verifyChecksums_ = true;
    std::function<void(std::size_t)> retryProbe_;

    /** Mutable read-side state (atomics; moved by pointer). */
    struct State
    {
        /** Per-slot quarantine: the sequence value the slot was
         * condemned at (parity encodes the verdict: odd = WriterDead,
         * even = Corrupt), or kNotQuarantined. */
        std::unique_ptr<std::atomic<std::uint64_t>[]> quarantineSeq;
        /** Per session id modulo slots_: the slot where read() last
         * found a session with that residue (slots_ = no hint yet). */
        std::unique_ptr<std::atomic<std::size_t>[]> slotHint;
        std::atomic<std::uint64_t> okReads{0};
        std::atomic<std::uint64_t> notFoundReads{0};
        std::atomic<std::uint64_t> tornReads{0};
        std::atomic<std::uint64_t> deadReads{0};
        std::atomic<std::uint64_t> corruptReads{0};
        std::atomic<std::uint64_t> quarantineSkips{0};
    };
    static constexpr std::uint64_t kNotQuarantined = ~0ull;
    std::unique_ptr<State> state_;
};

/**
 * Outcome of SnapshotReader::attach: a typed status plus, on Ok, the
 * attached reader.  `retryable()` distinguishes "segment not there
 * yet, poll again" from deployment errors a retry loop must surface.
 */
struct AttachResult
{
    AttachStatus status = AttachStatus::NoSegment;
    std::optional<SnapshotReader> reader;

    explicit operator bool() const { return reader.has_value(); }
    bool retryable() const
    {
        return status == AttachStatus::NoSegment ||
               status == AttachStatus::NotReady;
    }
};

} // namespace shim
} // namespace bperf

#endif // BPERF_SHIM_SNAPSHOT_READER_H

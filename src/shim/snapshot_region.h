/**
 * @file
 * Writer side of the posterior snapshot shim: a fixed table of
 * per-session seqlock slots inside an anonymous (in-process) or
 * named POSIX shared-memory (cross-process) mapping.
 *
 * The region is the *mechanism*; policy (which session owns which
 * slot, drop accounting) lives in service::SnapshotPublisher.  Slot
 * writes are wait-free bounded store bursts and never observe or
 * block readers.
 *
 * Thread contract: write()/invalidate() on one slot must come from
 * one thread at a time (the service guarantees this — a session's
 * windows are harvested by a single worker at a time); different
 * slots may be written concurrently.  Geometry accessors are safe
 * from any thread.
 */

#ifndef BPERF_SHIM_SNAPSHOT_REGION_H
#define BPERF_SHIM_SNAPSHOT_REGION_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/inference.h"
#include "shim/snapshot_layout.h"
#include "sim/microarch.h"

namespace bperf {
namespace shim {

/** Geometry of a snapshot table, fixed at creation. */
struct SnapshotRegionConfig
{
    /** Session slots: the most sessions simultaneously exported. */
    std::size_t slots = 64;
    /** Posterior entries per slot: the most events per session. */
    std::size_t maxEvents = 32;
};

/**
 * Deterministic fault-injection hooks for the chaos suite
 * (tests/test_shim_chaos.cpp).  All fields default to "off"; the hot
 * path pays one branch on `armed` when nothing is injected.  Publish
 * numbers are 1-based counts of write() calls on this region.
 */
struct WriterFaultInjection
{
    /** Any hook armed?  (Kept explicit so write() checks one flag.) */
    bool armed = false;

    /** SIGKILL the calling process mid-publish N: after the payload
     * stores, before the closing even sequence store — exactly the
     * window a crashing daemon leaves a slot odd forever.  Use from a
     * forked child. */
    std::uint64_t dieAtPublish = 0;

    /** Return from publish N without the closing even sequence store
     * (the in-process stand-in for dieAtPublish: the slot stays odd,
     * the writer survives to be inspected). */
    std::uint64_t skipFinalEvenStoreAtPublish = 0;

    /** After publish N completes normally, XOR `flipMask` into the
     * slot word at index `flipWordIndex` (0 = the slot's seq word;
     * fixed payload words and SlotEvent words follow in layout
     * order).  Models an SEU landing between two publishes. */
    std::uint64_t flipAtPublish = 0;
    std::size_t flipWordIndex = 0;
    std::uint64_t flipMask = 1;
};

/**
 * An owned, initialised snapshot segment.
 *
 * With an empty name the table lives in an anonymous private mapping
 * (tests, CI, single-process consumers reading through
 * SnapshotReader's in-process attach).  With a name it is created
 * via shm_open()/ftruncate()/mmap() under /dev/shm, visible to any
 * process that knows the name, and unlinked when the region dies
 * (existing reader mappings stay valid until they unmap).  Creation
 * is exclusive: a pre-existing segment of the same name (stale from
 * a crashed daemon, or a concurrently running one) is never adopted
 * — it is unlinked and replaced by a fresh one, so a segment's
 * slots only ever have this process as their writer.
 */
class SnapshotRegion
{
  public:
    /** Create and initialise a segment; dies on shm/mmap failure. */
    explicit SnapshotRegion(SnapshotRegionConfig config = {},
                            const std::string &shm_name = {});

    /** Unmaps; additionally shm_unlink()s a named segment. */
    ~SnapshotRegion();

    SnapshotRegion(const SnapshotRegion &) = delete;
    SnapshotRegion &operator=(const SnapshotRegion &) = delete;

    /** The shm_open() name; empty for in-process regions. */
    const std::string &shmName() const { return shmName_; }

    std::size_t slots() const { return config_.slots; }
    std::size_t maxEvents() const { return config_.maxEvents; }
    std::size_t sizeBytes() const { return layout_.totalBytes; }

    /** Total publishes across all slots since creation. */
    std::uint64_t publishes() const;

    /**
     * Stamp the header's writer-liveness word (readers compare it
     * against their own steady clock to tell a dead daemon from an
     * idle one).  write() stamps it with the publish stamp when a
     * publish opens, and invalidate() with the clock, so a slot left
     * odd never carries an older stamp than its own write; call this
     * directly from an idle writer's keepalive loop.
     */
    void heartbeat(std::uint64_t now_nanos);

    /** Arm (or clear, with a default-constructed value) the chaos
     * suite's deterministic fault hooks.  Not thread-safe against
     * concurrent write() — arm before handing the region to writers. */
    void setFaultInjection(const WriterFaultInjection &faults);

    /**
     * Publish one window's posterior snapshot into `slot` (seqlock
     * write: readers mid-copy retry).  Events beyond maxEvents() are
     * truncated — the publisher refuses such sessions a slot, so this
     * is a belt-and-braces clamp.  Single writer per slot.
     */
    void write(std::size_t slot, std::uint64_t session_id,
               std::uint64_t window_index, std::size_t end_slice,
               const core::WindowExecution &execution,
               const std::vector<sim::EventId> &events,
               const std::vector<core::PosteriorPoint> &posterior,
               std::uint64_t publish_nanos);

    /** Mark `slot` inactive (session closed); readers see NotFound. */
    void invalidate(std::size_t slot);

    /** Base of the mapping — SnapshotReader's in-process attach. */
    const std::byte *base() const { return base_; }

    /** Byte geometry (shared with readers via the header). */
    const RegionLayout &layout() const { return layout_; }

  private:
    SnapshotRegionConfig config_;
    std::string shmName_;
    RegionLayout layout_;
    std::byte *base_ = nullptr;
    /** Inode identity of the created named segment: the destructor
     * only shm_unlink()s the name if it still resolves to this inode
     * (a successor daemon may have replaced it, last-writer-wins). */
    std::uint64_t shmDev_ = 0;
    std::uint64_t shmIno_ = 0;
    bool shmIdentityValid_ = false;

    /** Chaos-suite fault hooks (all off by default). */
    WriterFaultInjection faults_;
    /** write() calls so far (1-based publish numbering for faults_);
     * atomic because different slots may be written concurrently. */
    std::atomic<std::uint64_t> writeCalls_{0};
};

} // namespace shim
} // namespace bperf

#endif // BPERF_SHIM_SNAPSHOT_REGION_H

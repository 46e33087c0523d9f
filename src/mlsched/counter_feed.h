/**
 * @file
 * Counter feeds: where the section 6.3 schedulers get their HPC
 * observations from.
 *
 * The paper's claim is not that posteriors are cheap to read but that
 * ML optimizers *decide better* when fed corrected counters.  To test
 * that end to end, the observation side of the shuffle environment is
 * a pluggable CounterFeed:
 *
 *  - SyntheticCounterFeed reproduces the historical EnvConfig.noise
 *    path: a fixed relative error and staleness, drawn from the
 *    feed's own deterministic stream.
 *  - ShimCounterFeed is a live consumer of the snapshot shim: it
 *    attaches a shim::SnapshotReader to a running daemon's segment,
 *    polls posterior means/variances for its watched sessions every
 *    observation, and derives the observation quality (relative
 *    error from posterior uncertainty, staleness from snapshot age)
 *    from what the estimator actually achieves right now.
 *
 * Degrade policy (shim feed): every poll verdict is typed.  Ok reads
 * refresh the last-good quality; Torn / NotFound / WriterDead /
 * Corrupt polls — and Ok reads older than the staleness ceiling —
 * serve the last-good quality for a bounded number of observations,
 * after which the feed falls back to a configured raw-counter-grade
 * noise profile.  The scheduler keeps running through daemon crashes;
 * its inputs just degrade the way a real deployment's would.
 *
 * Both feeds corrupt the true signals with the same arithmetic (one
 * shared helper), so a raw-vs-corrected experiment compares counter
 * *quality*, never noise-model implementation details.
 */

#ifndef BPERF_MLSCHED_COUNTER_FEED_H
#define BPERF_MLSCHED_COUNTER_FEED_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "shim/snapshot_reader.h"

namespace bperf {
namespace ml {

/** Noise profile of the HPC estimator feeding the scheduler. */
struct FeatureNoise
{
    /** Relative error (stddev, %) on HPC-derived features. */
    double errorPct = 40.0;

    /**
     * Staleness in [0, 1): fraction of the feature signal that still
     * reflects the previous system state because the estimator's
     * inference latency delays fresh values (BayesPerf-CPU vs
     * accelerator).
     */
    double staleness = 0.0;
};

/** Where the quality of one observation came from. */
enum class FeedServed
{
    /** A fresh poll succeeded; quality reflects the live estimator. */
    Live,
    /** The poll failed (torn/writer-dead/corrupt/stale); the feed
     * served the quality of the last successful poll. */
    LastGood,
    /** Failures outlasted the last-good hold budget; the feed served
     * the configured fallback (raw-counter-grade) profile. */
    Fallback,
};

/** Stable identifier of a FeedServed (logs, tables, tests). */
const char *feedServedName(FeedServed served);

/** Quality stamp of one observation. */
struct FeedQuality
{
    /** Relative error applied to HPC-derived signals (stddev, %). */
    double errorPct = 0.0;
    /** Previous-state fraction mixed into the observation, [0, 1). */
    double staleness = 0.0;
    /** Live, degraded-to-last-good, or fallback. */
    FeedServed served = FeedServed::Live;
};

/** Cumulative feed accounting (typed degrade bookkeeping). */
struct FeedStats
{
    std::uint64_t observations = 0; ///< observe() calls served.

    // Poll verdicts (shim feed; all zero for the synthetic feed).
    std::uint64_t okPolls = 0;         ///< Fresh consistent snapshots.
    std::uint64_t notFoundPolls = 0;   ///< Watched session had no slot.
    std::uint64_t tornPolls = 0;       ///< Retry budget exhausted live.
    std::uint64_t writerDeadPolls = 0; ///< Odd slots, silent writer.
    std::uint64_t corruptPolls = 0;    ///< Checksum-failed snapshots.
    std::uint64_t stalePolls = 0;      ///< Ok but older than the ceiling.

    // How each observation's quality was served.
    std::uint64_t liveObservations = 0;
    std::uint64_t lastGoodObservations = 0;
    std::uint64_t fallbackObservations = 0;

    /** Polls that did not refresh the last-good quality. */
    std::uint64_t degradedPolls() const
    {
        return notFoundPolls + tornPolls + writerDeadPolls +
               corruptPolls + stalePolls;
    }
};

/**
 * Source of per-step counter observations for a scheduler.
 *
 * observe() corrupts the true signal vector in place the way this
 * estimator would report it; only the first `hpc_count` entries are
 * HPC-derived (the rest — shuffle size, message size, NUMA node —
 * come from the request itself and pass through untouched).
 */
class CounterFeed
{
  public:
    virtual ~CounterFeed() = default;

    /** Turn true signals into this estimator's observation of them. */
    virtual FeedQuality observe(std::vector<double> &signals,
                                std::size_t hpc_count) = 0;

    virtual FeedStats stats() const = 0;

    /** Stable feed kind for logs and bench artifacts. */
    virtual const char *name() const = 0;

  protected:
    /**
     * The one corruption rule both feeds share: mix `staleness` of
     * the previous true signals into the HPC-derived entries, then
     * apply multiplicative Gaussian error of `error_pct` (clamped at
     * zero — counters never go negative).  `last_truth` is updated to
     * the incoming true signals.
     */
    static void corrupt(std::vector<double> &signals,
                        std::size_t hpc_count,
                        std::vector<double> &last_truth,
                        double error_pct, double staleness, Rng &rng);
};

/**
 * The historical EnvConfig.noise path as a feed: fixed error and
 * staleness from a deterministic stream.  Bit-reproducible for a
 * given (noise, seed) pair.
 */
class SyntheticCounterFeed final : public CounterFeed
{
  public:
    explicit SyntheticCounterFeed(FeatureNoise noise,
                                  std::uint64_t seed = 21);

    FeedQuality observe(std::vector<double> &signals,
                        std::size_t hpc_count) override;
    FeedStats stats() const override { return stats_; }
    const char *name() const override { return "synthetic"; }

  private:
    FeatureNoise noise_;
    Rng rng_;
    std::vector<double> lastTruth_;
    FeedStats stats_;
};

/** Degrade policy and quality mapping of a ShimCounterFeed. */
struct ShimFeedConfig
{
    /**
     * Session ids to poll each observation.  Empty watches every
     * active slot except pseudo-session 0 (the daemon's self-metrics
     * slot, whose "posteriors" are telemetry values, not counters).
     */
    std::vector<std::uint64_t> watchedSessions;

    /**
     * Observations a failed poll keeps serving the last-good quality
     * before the feed falls back to `fallback`.  This is the typed
     * degrade-to-last-good budget.
     */
    std::size_t holdLastGoodObservations = 256;

    /** Raw-counter-grade profile served once last-good expires (or
     * before the first successful poll). */
    FeatureNoise fallback{38.0, 0.5};

    /** Ok snapshots older than this degrade instead of refreshing
     * last-good (the staleness verdict). */
    static constexpr double maxSnapshotAgeSeconds = 5.0;

    /** Snapshot age mapped to observation staleness:
     * min(age / horizon, maxStaleness). */
    static constexpr double stalenessHorizonSeconds = 0.25;
    static constexpr double maxStaleness = 0.9;

    /** Clamp on the posterior-derived relative error (%): the floor
     * keeps a perfectly confident posterior from claiming noise-free
     * counters; the ceiling bounds pathological uncertainty. */
    static constexpr double minErrorPct = 2.0;
    static constexpr double maxErrorPct = 60.0;

    /** Seed of the feed's corruption stream (the noise draws are the
     * feed's, not the daemon's — only the *quality* is live). */
    std::uint64_t seed = 2021;
};

struct ShimFeedAttach;

/**
 * Live consumer of the posterior snapshot shim.  Move-only (owns a
 * SnapshotReader).  Not thread-safe: one scheduler per feed.
 */
class ShimCounterFeed final : public CounterFeed
{
  public:
    /** Wrap an attached (or in-process) reader. */
    explicit ShimCounterFeed(shim::SnapshotReader reader,
                             ShimFeedConfig config = {});

    /** Attach to a named segment; typed failure, never dies. */
    static ShimFeedAttach attach(const std::string &shm_name,
                                 ShimFeedConfig config = {});

    FeedQuality observe(std::vector<double> &signals,
                        std::size_t hpc_count) override;
    FeedStats stats() const override { return stats_; }
    const char *name() const override { return "shim"; }

    /** The freshest consistent snapshot a poll has served (tests
     * compare it bit for bit against the subscription stream). */
    const std::optional<shim::PosteriorSnapshot> &lastSnapshot() const
    {
        return lastSnapshot_;
    }

    /** Quality the next observation would be stamped with. */
    const std::optional<FeedQuality> &lastGoodQuality() const
    {
        return lastGood_;
    }

    const shim::SnapshotReader &reader() const { return reader_; }

  private:
    /** One poll sweep over the watched sessions; the typed verdict
     * counting and last-good/fallback arbitration live here. */
    FeedQuality pollQuality();

    shim::SnapshotReader reader_;
    ShimFeedConfig config_;
    Rng rng_;
    std::vector<double> lastTruth_;
    std::optional<FeedQuality> lastGood_;
    /** Observations served since the last successful poll. */
    std::size_t sinceLastGood_ = 0;
    std::optional<shim::PosteriorSnapshot> lastSnapshot_;
    FeedStats stats_;
};

/**
 * Outcome of ShimCounterFeed::attach: shim::AttachStatus plus, on Ok,
 * the live feed.  retryable() mirrors shim::AttachResult.
 */
struct ShimFeedAttach
{
    shim::AttachStatus status = shim::AttachStatus::NoSegment;
    std::optional<ShimCounterFeed> feed;

    explicit operator bool() const { return feed.has_value(); }
    bool retryable() const
    {
        return status == shim::AttachStatus::NoSegment ||
               status == shim::AttachStatus::NotReady;
    }
};

} // namespace ml
} // namespace bperf

#endif // BPERF_MLSCHED_COUNTER_FEED_H

#include "mlsched/counter_feed.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace bperf {
namespace ml {

const char *
feedServedName(FeedServed served)
{
    switch (served) {
      case FeedServed::Live: return "live";
      case FeedServed::LastGood: return "last-good";
      case FeedServed::Fallback: return "fallback";
    }
    return "?";
}

void
CounterFeed::corrupt(std::vector<double> &signals, std::size_t hpc_count,
                     std::vector<double> &last_truth, double error_pct,
                     double staleness, Rng &rng)
{
    bp_assert(hpc_count <= signals.size(),
              "hpc_count exceeds the signal vector");
    bp_assert(staleness >= 0.0 && staleness < 1.0,
              "staleness must be in [0, 1)");

    // Remember the incoming truth before corrupting: the *previous*
    // system state is what a slow estimator still reports.
    std::vector<double> truth(signals.begin(),
                              signals.begin() +
                                  static_cast<std::ptrdiff_t>(hpc_count));

    if (!last_truth.empty() && staleness > 0.0) {
        const std::size_t n = std::min(hpc_count, last_truth.size());
        for (std::size_t i = 0; i < n; ++i)
            signals[i] = (1.0 - staleness) * signals[i] +
                         staleness * last_truth[i];
    }

    // Multiplexing error is correlated within one estimation window:
    // every counter extrapolates over the same un-scheduled gaps, so
    // most of the error is a common-mode factor a downstream model
    // cannot average away across counters, plus a smaller per-counter
    // component.  The split keeps the total per-signal stddev at
    // error_pct (0.8^2 + 0.6^2 = 1).
    const double rel = error_pct / 100.0;
    const double common = rng.normal(0.0, 0.8 * rel);
    for (std::size_t i = 0; i < hpc_count; ++i)
        signals[i] *=
            std::max(1.0 + common + rng.normal(0.0, 0.6 * rel), 0.0);

    last_truth = std::move(truth);
}

SyntheticCounterFeed::SyntheticCounterFeed(FeatureNoise noise,
                                           std::uint64_t seed)
    : noise_(noise), rng_(seed)
{
    bp_assert(noise_.staleness >= 0.0 && noise_.staleness < 1.0,
              "staleness must be in [0, 1)");
    bp_assert(noise_.errorPct >= 0.0, "negative noise");
}

FeedQuality
SyntheticCounterFeed::observe(std::vector<double> &signals,
                              std::size_t hpc_count)
{
    ++stats_.observations;
    ++stats_.liveObservations;
    const FeedQuality quality{noise_.errorPct, noise_.staleness,
                              FeedServed::Live};
    corrupt(signals, hpc_count, lastTruth_, quality.errorPct,
            quality.staleness, rng_);
    return quality;
}

ShimCounterFeed::ShimCounterFeed(shim::SnapshotReader reader,
                                 ShimFeedConfig config)
    : reader_(std::move(reader)), config_(std::move(config)),
      rng_(config_.seed)
{
}

ShimFeedAttach
ShimCounterFeed::attach(const std::string &shm_name, ShimFeedConfig config)
{
    shim::AttachResult attached = shim::SnapshotReader::attach(shm_name);
    ShimFeedAttach result;
    result.status = attached.status;
    if (attached)
        result.feed.emplace(std::move(*attached.reader),
                            std::move(config));
    return result;
}

FeedQuality
ShimCounterFeed::pollQuality()
{
    // Poll every watched session; one verdict per session per sweep.
    std::vector<std::uint64_t> watched = config_.watchedSessions;
    if (watched.empty()) {
        for (std::uint64_t session : reader_.sessions()) {
            // Session 0 is the daemon's self-metrics pseudo-session
            // (service::SnapshotPublisher::kSelfMetricsSessionId);
            // its "posteriors" are telemetry values, not counters.
            if (session != 0)
                watched.push_back(session);
        }
    }

    double rel_sum = 0.0;
    std::size_t rel_count = 0;
    std::uint64_t freshest_age = ~0ull;
    std::optional<shim::PosteriorSnapshot> freshest;

    for (std::uint64_t session : watched) {
        shim::PosteriorSnapshot snap;
        const shim::ReadStatus status = reader_.read(session, snap);
        switch (status) {
          case shim::ReadStatus::Ok: break;
          case shim::ReadStatus::NotFound: ++stats_.notFoundPolls; continue;
          case shim::ReadStatus::Torn: ++stats_.tornPolls; continue;
          case shim::ReadStatus::WriterDead:
            ++stats_.writerDeadPolls;
            continue;
          case shim::ReadStatus::Corrupt: ++stats_.corruptPolls; continue;
        }
        // The staleness verdict: a consistent snapshot can still be
        // too old to trust (daemon wedged between publishes).
        if (static_cast<double>(snap.ageNanos) >
            config_.maxSnapshotAgeSeconds * 1e9) {
            ++stats_.stalePolls;
            continue;
        }
        ++stats_.okPolls;
        for (const shim::SnapshotCounter &counter : snap.counters) {
            const double mean = std::abs(counter.posterior.mean);
            rel_sum += counter.posterior.stddev / std::max(mean, 1e-9);
            ++rel_count;
        }
        if (snap.ageNanos < freshest_age) {
            freshest_age = snap.ageNanos;
            freshest = std::move(snap);
        }
    }

    if (rel_count > 0) {
        FeedQuality quality;
        quality.errorPct =
            std::clamp(100.0 * rel_sum / static_cast<double>(rel_count),
                       config_.minErrorPct, config_.maxErrorPct);
        quality.staleness =
            std::min(static_cast<double>(freshest_age) * 1e-9 /
                         config_.stalenessHorizonSeconds,
                     config_.maxStaleness);
        quality.served = FeedServed::Live;
        lastGood_ = quality;
        sinceLastGood_ = 0;
        lastSnapshot_ = std::move(freshest);
        ++stats_.liveObservations;
        return quality;
    }

    // Degrade: bounded last-good, then the fallback profile.
    ++sinceLastGood_;
    if (lastGood_.has_value() &&
        sinceLastGood_ <= config_.holdLastGoodObservations) {
        FeedQuality quality = *lastGood_;
        quality.served = FeedServed::LastGood;
        ++stats_.lastGoodObservations;
        return quality;
    }
    ++stats_.fallbackObservations;
    return {config_.fallback.errorPct, config_.fallback.staleness,
            FeedServed::Fallback};
}

FeedQuality
ShimCounterFeed::observe(std::vector<double> &signals,
                         std::size_t hpc_count)
{
    ++stats_.observations;
    const FeedQuality quality = pollQuality();
    corrupt(signals, hpc_count, lastTruth_, quality.errorPct,
            quality.staleness, rng_);
    return quality;
}

} // namespace ml
} // namespace bperf

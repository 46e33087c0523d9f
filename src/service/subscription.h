/**
 * @file
 * Window-completion subscriptions: the push half of the service's
 * consumer surface (the paper's shim interface — consumers get
 * corrected posteriors as they are produced; the snapshot shim is the
 * poll half).
 *
 * Workers publish one WindowUpdate per completed window into the
 * hub; a single dispatcher thread delivers them to the registered
 * callbacks.  Each subscriber owns a bounded queue: a consumer that
 * cannot keep up loses the oldest queued updates (drop-and-count,
 * the same backpressure stance as the ingest ring) and never blocks
 * the workers or other subscribers' queues.
 *
 * Teardown ordering (TSan-clean): the service destroys its worker
 * pool first (no more publishes), then the hub joins the dispatcher
 * (no more callbacks), then sessions die.  Callbacks run on the
 * dispatcher thread and must not call back into blocking service
 * teardown paths.
 */

#ifndef BPERF_SERVICE_SUBSCRIPTION_H
#define BPERF_SERVICE_SUBSCRIPTION_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/backend.h"
#include "core/inference.h"
#include "sim/microarch.h"

namespace bperf {
namespace service {

/** Hub-wide identifier of one subscription (never reused). */
using SubscriptionId = std::uint64_t;

/** One completed window, as delivered to subscribers. */
struct WindowUpdate
{
    std::uint64_t sessionId = 0;
    /** Per-session window counter (0-based, in completion order). */
    std::uint64_t windowIndex = 0;
    /** Stable monotone per-session window id (1-based, gap-free):
     * the engine's window ordinal, assigned when the window ran.
     * Always windowIndex + 1 today, but stamped at the source so
     * consumers can rely on it without knowing harvest internals. */
    std::uint64_t windowId = 0;
    /** Slice whose arrival completed the window. */
    std::size_t endSlice = 0;
    /** Monitored events, aligned with `posterior`. */
    std::vector<sim::EventId> events;
    /** Latest posterior of each event after this window. */
    std::vector<core::PosteriorPoint> posterior;
    /** Modeled backend execution of the window. */
    core::WindowExecution execution;
};

/** Subscriber callback: runs serially on the hub's dispatcher
 * thread, one call per delivered WindowUpdate.  Must not re-enter
 * blocking service teardown paths (close(), the service dtor). */
using WindowCallback = std::function<void(const WindowUpdate &)>;

/** Delivery accounting of one subscriber. */
struct SubscriptionStats
{
    /** Updates published for the subscribed session. */
    std::uint64_t published = 0;
    /** Updates the callback actually received. */
    std::uint64_t delivered = 0;
    /** Updates dropped because the subscriber queue was full. */
    std::uint64_t dropped = 0;
};

/**
 * Fan-out of WindowUpdates to per-session subscribers.
 *
 * Thread contract: publish() may be called concurrently from many
 * workers; subscribe/unsubscribe/stats from any thread.  Callbacks
 * are invoked serially on the hub's dispatcher thread.
 */
class SubscriptionHub
{
  public:
    /** `queue_capacity` bounds each subscriber's update queue. */
    explicit SubscriptionHub(std::size_t queue_capacity = 256);

    /** Stops the dispatcher; queued undelivered updates are dropped
     * (and counted) at destruction. */
    ~SubscriptionHub();

    SubscriptionHub(const SubscriptionHub &) = delete;
    SubscriptionHub &operator=(const SubscriptionHub &) = delete;

    /** Register a callback for one session's window completions. */
    SubscriptionId subscribe(std::uint64_t session_id,
                             WindowCallback callback);

    /** Remove a subscriber; returns false for unknown ids.  Queued
     * updates not yet delivered are dropped (and counted). */
    bool unsubscribe(SubscriptionId id);

    /**
     * Queue one update for every subscriber of its session.  Never
     * blocks: a full subscriber queue evicts its oldest update
     * (slow consumers see the freshest windows, like a poller would).
     */
    void publish(const WindowUpdate &update);

    /** Block until every queued update has been delivered. */
    void flush();

    /** Delivery accounting; nullopt for unknown ids (stats stay
     * readable after unsubscribe until the hub dies). */
    std::optional<SubscriptionStats> stats(SubscriptionId id) const;

    /** Subscribers currently registered for a session. */
    std::size_t subscriberCount(std::uint64_t session_id) const;

  private:
    struct Subscriber
    {
        std::uint64_t sessionId = 0;
        WindowCallback callback;
        std::deque<WindowUpdate> queue;
        SubscriptionStats stats;
        bool active = true;
    };

    void dispatchLoop();

    const std::size_t queueCapacity_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_; // queued work / stop
    std::condition_variable idleCv_; // a queue drained
    std::map<SubscriptionId, std::shared_ptr<Subscriber>> subscribers_;
    SubscriptionId nextId_ = 1;
    std::size_t queuedTotal_ = 0;
    bool dispatching_ = false; // a callback is in flight
    bool stopping_ = false;

    std::thread dispatcher_;
};

} // namespace service
} // namespace bperf

#endif // BPERF_SERVICE_SUBSCRIPTION_H

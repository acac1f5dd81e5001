#ifndef RISGRAPH_SUBSCRIBE_REGISTRY_H_
#define RISGRAPH_SUBSCRIBE_REGISTRY_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "subscribe/delivery_queue.h"
#include "subscribe/subscription.h"
#include "subscribe/subscription_index.h"

namespace risgraph {

/// The subscription table of the continuous-query subsystem: subscription
/// IDs -> filters, grouped under per-session Subscriber handles that own the
/// bounded delivery queues — plus the subscription INDEX that lets matching
/// scale to 10^4-10^5 standing queries (the feed-service design point of
/// ROADMAP item 4).
///
/// Roles and threading:
///  * Consumers (one SessionClient in-process, one RPC connection's pusher
///    thread remotely) hold a Subscriber handle and call Subscribe /
///    Unsubscribe / Poll / WaitNotification on it.
///  * The ChangePublisher's matcher thread calls Match then Deliver with
///    each sealed epoch's committed changes; matching hits are pushed into
///    the subscribers' DeliveryQueues (bounded, latest-value coalescing
///    under overload — a slow consumer can never grow server memory without
///    bound and never back-pressures the ingest pipeline, which by then has
///    long moved on).
///
/// ## The index (subscription_index.h)
///
/// A naive matcher is O(changes x live subscriptions) per batch — fine for
/// tens of standing queries, a new critical-path ceiling at the thousands a
/// feed deployment implies. Instead the registry maintains one
///
///   vertex id -> posting list of subscriptions watching that vertex
///
/// (an open-addressing FlatMap), so a batch of C changes examines only the
/// subscriptions actually watching the changed vertices. Watch-all
/// subscriptions, which have no vertex key, live on per-algorithm watch-all
/// lanes matched in the same pass — the irreducible O(C x watch-alls) rump.
///
/// ## Locks (strictly non-nested — no path holds both)
///
///   table_mu_   subscribers_, their subs_ maps + delivery queues +
///               pending counts, the id -> handle map, next_id_. Taken by
///               Subscribe/Unsubscribe/Poll/Wait/Deliver/PublishScan.
///   index_mu_   the vertex posting index and the watch-all lanes. Taken by
///               the index half of Subscribe/Unsubscribe and by Match.
///
/// Because matching runs under index_mu_ only, posting entries carry a copy
/// of the predicate fields (never a pointer into the table), and a
/// subscription unsubscribed between Match and Deliver simply fails the id
/// lookup in Deliver and is dropped — the same outcome an atomic
/// scan-under-one-mutex would have produced a microsecond earlier.
///
/// Unsubscribe is O(watched vertices) — it walks the filter's (sorted)
/// watched-vertex set removing one posting per vertex — never O(live
/// subscriptions).
///
/// ## Determinism
///
/// Per-subscription notification streams are bit-identical to the scan
/// matcher (PublishScan, kept as the reference the tests compare against;
/// no production path uses it): the scan delivers each subscription its
/// matching changes in staged (version) order, and Deliver sorts all hits
/// by (subscription id, change index), which restores exactly that
/// per-queue order. DeliveryQueue drains deterministically and Poll visits
/// subscriptions in id order, so same committed versions => same
/// notification streams, at any ingest/store shard count and either
/// transport (tests/test_subscribe_index.cc pins this).
class SubscriptionRegistry {
 public:
  struct Options {
    /// Per-subscription in-order buffer depth before latest-value
    /// coalescing engages (see DeliveryQueue).
    size_t queue_capacity = 4096;
  };

  /// One consuming session's handle: its subscriptions, their delivery
  /// queues, and the wakeup channel. Obtain via OpenSubscriber; all access
  /// goes through the registry. A handle must not be Closed while another
  /// thread still Polls/Waits on it (the owners — SessionClient and the RPC
  /// connection teardown — serialize this by construction).
  class Subscriber {
   private:
    friend class SubscriptionRegistry;
    struct Entry {
      SubscriptionFilter filter;
      DeliveryQueue queue;
      Entry(SubscriptionFilter f, size_t capacity)
          : filter(std::move(f)), queue(capacity) {}
    };
    /// std::map: Poll drains subscriptions in id order — deterministic —
    /// and nodes are stable, so the id -> handle map can point at entries.
    std::map<uint64_t, Entry> subs_;
    std::condition_variable cv_;
    uint64_t pending_ = 0;  // total undelivered notifications, for Wait
    uint64_t wake_stamp_ = 0;  // dedup of per-Deliver wakeups
  };

  SubscriptionRegistry() = default;
  explicit SubscriptionRegistry(Options options) : options_(options) {}

  SubscriptionRegistry(const SubscriptionRegistry&) = delete;
  SubscriptionRegistry& operator=(const SubscriptionRegistry&) = delete;

  Subscriber* OpenSubscriber() {
    std::lock_guard<std::mutex> lk(table_mu_);
    subscribers_.push_back(std::make_unique<Subscriber>());
    return subscribers_.back().get();
  }

  /// Drops the handle and every subscription under it. Undelivered
  /// notifications are discarded. O(sum of its subscriptions' watched
  /// vertices), like unsubscribing each.
  void CloseSubscriber(Subscriber* s) {
    std::vector<std::pair<uint64_t, SubscriptionFilter>> dropped;
    {
      std::lock_guard<std::mutex> lk(table_mu_);
      for (auto& [id, entry] : s->subs_) {
        by_id_.erase(id);
        dropped.emplace_back(id, std::move(entry.filter));
      }
      for (size_t i = 0; i < subscribers_.size(); ++i) {
        if (subscribers_[i].get() == s) {
          subscribers_[i] = std::move(subscribers_.back());
          subscribers_.pop_back();
          break;
        }
      }
    }
    for (auto& [id, filter] : dropped) Deindex(id, filter);
  }

  /// Registers a standing query under `s`; returns the fresh subscription
  /// id (never 0 — 0 is the error value across the client surface).
  /// Semantic validation (algo exists, vertices in range) belongs to the
  /// client tier (SessionClient), which both transports dispatch through.
  uint64_t Subscribe(Subscriber* s, SubscriptionFilter filter) {
    filter.Normalize();
    uint64_t id = 0;
    const SubscriptionFilter* stored = nullptr;
    {
      std::lock_guard<std::mutex> lk(table_mu_);
      id = next_id_++;
      auto [it, inserted] = s->subs_.emplace(
          id, Subscriber::Entry(std::move(filter), options_.queue_capacity));
      by_id_.emplace(id, Handle{s, &it->second});
      stored = &it->second.filter;
    }
    // Index outside the table lock (lock discipline: never nested). A
    // Publish racing this gap may miss the brand-new subscription for the
    // in-flight batch — indistinguishable from the subscribe arriving one
    // batch later, which concurrent subscribers cannot rule out anyway.
    SubscriptionPosting p = SubscriptionPosting::Of(id, *stored);
    std::lock_guard<std::mutex> lk(index_mu_);
    if (stored->watch_all) {
      watch_all_.Add(p);
    } else {
      for (VertexId v : stored->WatchedVertices()) index_.Add(v, p);
    }
    return id;
  }

  /// Unregisters; false when the id is not live under this subscriber (a
  /// double-unsubscribe or a stale id — harmless either way). O(watched
  /// vertices), not O(live subscriptions): the entry's own vertex set names
  /// exactly the posting lists to clean.
  bool Unsubscribe(Subscriber* s, uint64_t id) {
    SubscriptionFilter filter;
    {
      std::lock_guard<std::mutex> lk(table_mu_);
      auto it = s->subs_.find(id);
      if (it == s->subs_.end()) return false;
      s->pending_ -= it->second.queue.Size();
      filter = std::move(it->second.filter);
      by_id_.erase(id);
      s->subs_.erase(it);
    }
    Deindex(id, filter);
    return true;
  }

  //===--- Matching ------------------------------------------------------===//
  //
  // Split in two so that matching holds only index_mu_ and delivery only
  // table_mu_: the publisher's matcher calls Match, then Deliver, once per
  // sealed batch. PublishScan is the reference matcher — same streams,
  // O(changes x subscriptions).

  /// Appends to `hits` every (change, subscription) match of `changes`
  /// against the vertex posting lists and the watch-all lanes. Thread-safe
  /// against every other registry operation.
  void Match(std::span<const CommittedChange> changes,
             std::vector<MatchHit>* hits) {
    uint64_t candidates = 0;
    {
      std::lock_guard<std::mutex> lk(index_mu_);
      candidates = index_.MatchInto(changes, hits) +
                   watch_all_.MatchInto(changes, hits);
    }
    candidate_pairs_.fetch_add(candidates, std::memory_order_relaxed);
  }

  /// Sorts `hits` into the deterministic delivery order — (subscription id,
  /// change index), which groups each subscription's hits contiguously with
  /// its changes in staged order — and enqueues them. Hits whose id no
  /// longer resolves (unsubscribed mid-flight) are dropped. Called by the
  /// publisher's matcher thread only, once per sealed batch, after Match.
  void Deliver(std::span<const CommittedChange> changes,
               std::vector<MatchHit>* hits) {
    std::sort(hits->begin(), hits->end());
    std::lock_guard<std::mutex> lk(table_mu_);
    scan_equivalent_pairs_.fetch_add(changes.size() * by_id_.size(),
                                     std::memory_order_relaxed);
    wake_stamp_++;
    size_t i = 0;
    while (i < hits->size()) {
      uint64_t id = (*hits)[i].id;
      auto handle = by_id_.find(id);
      if (handle == by_id_.end()) {
        // Unsubscribed between match and delivery; skip the whole run.
        while (i < hits->size() && (*hits)[i].id == id) ++i;
        continue;
      }
      Subscriber* sub = handle->second.subscriber;
      Subscriber::Entry& entry = *handle->second.entry;
      // Materialize the run, then one bulk enqueue: PushRun returns the
      // net growth (coalesced pushes contribute 0), which is exactly the
      // pending delta — no per-push size re-reads under the table lock.
      run_scratch_.clear();
      for (; i < hits->size() && (*hits)[i].id == id; ++i) {
        const CommittedChange& c = changes[(*hits)[i].change];
        run_scratch_.push_back(Notification{id, c.algo, c.version, c.vertex,
                                            c.old_value, c.new_value});
      }
      matched_.fetch_add(run_scratch_.size(), std::memory_order_relaxed);
      sub->pending_ +=
          entry.queue.PushRun(run_scratch_.begin(), run_scratch_.end());
      if (sub->wake_stamp_ != wake_stamp_) {
        sub->wake_stamp_ = wake_stamp_;
        sub->cv_.notify_all();
      }
    }
  }

  /// The reference matcher: matches one sealed batch against every live
  /// subscription under the table mutex — O(changes x subscriptions). The
  /// tests compare Match + Deliver against it; no production path uses it.
  void PublishScan(std::span<const CommittedChange> changes) {
    std::lock_guard<std::mutex> lk(table_mu_);
    scan_equivalent_pairs_.fetch_add(changes.size() * by_id_.size(),
                                     std::memory_order_relaxed);
    candidate_pairs_.fetch_add(changes.size() * by_id_.size(),
                               std::memory_order_relaxed);
    for (auto& sub : subscribers_) {
      uint64_t before = sub->pending_;
      for (auto& [id, entry] : sub->subs_) {
        for (const CommittedChange& c : changes) {
          if (entry.filter.algo != c.algo ||
              !entry.filter.Matches(c.vertex, c.old_value, c.new_value)) {
            continue;
          }
          size_t size_before = entry.queue.Size();
          entry.queue.Push(Notification{id, c.algo, c.version, c.vertex,
                                        c.old_value, c.new_value});
          sub->pending_ += entry.queue.Size() - size_before;  // 0 if coalesced
          matched_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (sub->pending_ != before) sub->cv_.notify_all();
    }
  }

  //===--- Consumption ---------------------------------------------------===//

  /// Moves up to `max` pending notifications into `out` (appending),
  /// draining subscriptions in id order. Returns how many moved.
  size_t Poll(Subscriber* s, std::vector<Notification>* out, size_t max) {
    std::lock_guard<std::mutex> lk(table_mu_);
    size_t moved = 0;
    for (auto& [id, entry] : s->subs_) {
      if (moved >= max) break;
      moved += entry.queue.PopInto(out, max - moved);
    }
    s->pending_ -= moved;
    delivered_.fetch_add(moved, std::memory_order_relaxed);
    return moved;
  }

  /// Blocks until `s` has at least one pending notification; false on
  /// timeout. The RPC pusher's wait loop and latency-sensitive in-process
  /// consumers sit here instead of spinning on Poll.
  bool WaitNotification(Subscriber* s, int64_t timeout_micros) {
    std::unique_lock<std::mutex> lk(table_mu_);
    return s->cv_.wait_for(lk, std::chrono::microseconds(timeout_micros),
                           [&] { return s->pending_ > 0; });
  }

  /// Wakes every WaitNotification waiter on `s` without delivering anything
  /// (they observe their own shutdown condition and leave). Lets consumers
  /// park on long waits instead of polling short timeouts for teardown.
  void Wake(Subscriber* s) {
    std::lock_guard<std::mutex> lk(table_mu_);
    s->cv_.notify_all();
  }

  //===--- Observers ------------------------------------------------------===//

  size_t NumSubscriptions() const {
    std::lock_guard<std::mutex> lk(table_mu_);
    return by_id_.size();
  }
  /// Notifications that matched a filter (before coalescing).
  uint64_t matched() const { return matched_.load(std::memory_order_relaxed); }
  /// Notifications handed to consumers via Poll.
  uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  /// (change, subscription) pairs the matcher actually examined — posting
  /// list entries for the indexed path, changes x subscriptions for the
  /// scan. The index earns its keep when this stays far below
  /// scan_equivalent_pairs().
  uint64_t candidate_pairs() const {
    return candidate_pairs_.load(std::memory_order_relaxed);
  }
  /// What a scan matcher would have examined for the same batches:
  /// sum over batches of (changes x live subscriptions at delivery).
  uint64_t scan_equivalent_pairs() const {
    return scan_equivalent_pairs_.load(std::memory_order_relaxed);
  }
  /// Matched-but-superseded notifications (latest-value coalescing).
  uint64_t coalesced() const {
    std::lock_guard<std::mutex> lk(table_mu_);
    uint64_t n = 0;
    for (const auto& sub : subscribers_) {
      for (const auto& [id, entry] : sub->subs_) n += entry.queue.overwritten();
    }
    return n;
  }
  /// Live index entries: vertex postings + watch-all postings. Consistency
  /// invariant (pinned by test): equals the sum over live subscriptions of
  /// |watched vertices| (or 1 for watch-all) — no stale entries survive
  /// churn.
  uint64_t IndexEntriesForTest() const {
    std::lock_guard<std::mutex> lk(index_mu_);
    return index_.entries() + watch_all_.entries();
  }
  const Options& options() const { return options_; }

 private:
  struct Handle {
    Subscriber* subscriber = nullptr;
    Subscriber::Entry* entry = nullptr;  // stable: std::map node
  };
  /// Removes every index posting `filter` created for subscription `id`.
  void Deindex(uint64_t id, const SubscriptionFilter& filter) {
    std::lock_guard<std::mutex> lk(index_mu_);
    if (filter.watch_all) {
      watch_all_.Remove(filter.algo, id);
      return;
    }
    for (VertexId v : filter.WatchedVertices()) index_.Remove(v, id);
  }

  Options options_{};

  mutable std::mutex table_mu_;
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
  /// id -> (subscriber, entry); the delivery-time source of truth for
  /// liveness. unordered_map: delivery does one lookup per subscription
  /// RUN (hits are sorted), not per notification.
  std::unordered_map<uint64_t, Handle> by_id_;
  uint64_t next_id_ = 1;
  uint64_t wake_stamp_ = 0;
  /// Deliver's run-materialization scratch (guarded by table_mu_).
  std::vector<Notification> run_scratch_;

  mutable std::mutex index_mu_;
  VertexPostingIndex index_;
  WatchAllLane watch_all_;

  std::atomic<uint64_t> matched_{0};
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> candidate_pairs_{0};
  std::atomic<uint64_t> scan_equivalent_pairs_{0};
};

}  // namespace risgraph

#endif  // RISGRAPH_SUBSCRIBE_REGISTRY_H_

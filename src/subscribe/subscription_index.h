#ifndef RISGRAPH_SUBSCRIBE_SUBSCRIPTION_INDEX_H_
#define RISGRAPH_SUBSCRIBE_SUBSCRIPTION_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "subscribe/subscription.h"

namespace risgraph {

/// The subscription index: the data structures that turn matching from
/// O(changes x live subscriptions) into O(changes x interested
/// subscriptions), per the continuous-query literature's standing advice —
/// index the standing queries, don't scan them (Choudhury et al.; Pacaci
/// et al.).
///
/// Two structures, both append/remove-by-key, no iteration on the hot path:
///
///  * VertexPostingIndex — vertex id -> posting list of the subscriptions
///    watching that vertex (an open-addressing FlatMap from common/hash.h;
///    posting entries carry a COPY of the filter's predicate fields, so
///    matching never dereferences registry-owned state — the registry's
///    Entry may be concurrently unsubscribed, and a stale hit is dropped at
///    delivery when its id no longer resolves).
///  * WatchAllLane — per-algorithm posting vectors for watch-all
///    subscriptions, which by definition have no vertex key to index on.
///    These are matched in the same pass as the vertex index (cost
///    O(changes x watch-alls), the irreducible part of the scan).
///
/// Removal is O(posting-list length for that vertex) via swap-remove —
/// posting-list order is NOT meaningful, because delivery sorts hits into a
/// deterministic order anyway (see SubscriptionRegistry::Deliver).
///
/// Not thread-safe: the owning SubscriptionRegistry guards both under its
/// index mutex.

/// One posting: enough of a subscription to evaluate a candidate change
/// without touching the registry table. 32 bytes, trivially copyable.
struct SubscriptionPosting {
  uint64_t id = 0;       // registry-unique subscription id
  uint64_t algo = 0;     // algorithm the subscription watches
  uint64_t threshold = 0;
  NotifyPredicate predicate = NotifyPredicate::kAnyChange;

  bool Passes(const CommittedChange& c) const {
    return algo == c.algo &&
           PassesNotifyPredicate(predicate, threshold, c.old_value,
                                 c.new_value);
  }

  static SubscriptionPosting Of(uint64_t id, const SubscriptionFilter& f) {
    return SubscriptionPosting{id, f.algo, f.threshold, f.predicate};
  }
};

/// A match hit: change `change` (index into the sealed batch) matched
/// subscription `id`. (id, change) is a total order — a subscription matches
/// a change at most once — and sorting by it groups each subscription's
/// hits contiguously, in staged order, whatever order they were found in.
struct MatchHit {
  uint32_t change = 0;
  uint64_t id = 0;

  friend bool operator<(const MatchHit& a, const MatchHit& b) {
    return a.id != b.id ? a.id < b.id : a.change < b.change;
  }
};

struct VertexIdHash {
  uint64_t operator()(VertexId v) const { return Murmur3Fmix64(v); }
};

/// Vertex-id -> interested-subscription posting lists. FlatMap has no
/// erase, so a fully-unsubscribed vertex leaves an empty vector slot behind;
/// memory is bounded by the distinct vertices ever watched, and the
/// capacity is reused when a vertex is watched again.
class VertexPostingIndex {
 public:
  void Add(VertexId v, const SubscriptionPosting& p) {
    postings_[v].push_back(p);
    entries_++;
  }

  /// Removes subscription `id`'s posting for `v` (swap-remove; order is
  /// re-established at delivery). No-op when absent.
  void Remove(VertexId v, uint64_t id) {
    std::vector<SubscriptionPosting>* list = postings_.Find(v);
    if (list == nullptr) return;
    for (size_t i = 0; i < list->size(); ++i) {
      if ((*list)[i].id == id) {
        (*list)[i] = list->back();
        list->pop_back();
        entries_--;
        return;
      }
    }
  }

  /// Matches every change whose vertex has a posting list, appending hits in
  /// (change, posting) scan order. Returns the number of candidate (change,
  /// subscription) pairs examined — the index's selectivity metric.
  uint64_t MatchInto(std::span<const CommittedChange> changes,
                     std::vector<MatchHit>* out) const {
    uint64_t candidates = 0;
    for (uint32_t i = 0; i < changes.size(); ++i) {
      const CommittedChange& c = changes[i];
      const std::vector<SubscriptionPosting>* list = postings_.Find(c.vertex);
      if (list == nullptr) continue;
      candidates += list->size();
      for (const SubscriptionPosting& p : *list) {
        if (p.Passes(c)) out->push_back(MatchHit{i, p.id});
      }
    }
    return candidates;
  }

  /// Live posting entries (consistency checks: must equal the sum of live
  /// subscriptions' watched-vertex counts).
  uint64_t entries() const { return entries_; }

 private:
  FlatMap<VertexId, std::vector<SubscriptionPosting>, VertexIdHash> postings_;
  uint64_t entries_ = 0;
};

/// Watch-all subscriptions, grouped per algorithm: the lane for
/// subscriptions the vertex index cannot help with.
class WatchAllLane {
 public:
  void Add(const SubscriptionPosting& p) {
    if (lanes_.size() <= p.algo) lanes_.resize(p.algo + 1);
    lanes_[p.algo].push_back(p);
    entries_++;
  }

  /// O(watch-all subscriptions of that algorithm), not O(live
  /// subscriptions).
  void Remove(uint64_t algo, uint64_t id) {
    if (algo >= lanes_.size()) return;
    std::vector<SubscriptionPosting>& lane = lanes_[algo];
    for (size_t i = 0; i < lane.size(); ++i) {
      if (lane[i].id == id) {
        lane[i] = lane.back();
        lane.pop_back();
        entries_--;
        return;
      }
    }
  }

  uint64_t MatchInto(std::span<const CommittedChange> changes,
                     std::vector<MatchHit>* out) const {
    uint64_t candidates = 0;
    for (uint32_t i = 0; i < changes.size(); ++i) {
      const CommittedChange& c = changes[i];
      if (c.algo >= lanes_.size()) continue;
      candidates += lanes_[c.algo].size();
      for (const SubscriptionPosting& p : lanes_[c.algo]) {
        if (p.Passes(c)) out->push_back(MatchHit{i, p.id});
      }
    }
    return candidates;
  }

  uint64_t entries() const { return entries_; }

 private:
  std::vector<std::vector<SubscriptionPosting>> lanes_;  // [algo] -> postings
  uint64_t entries_ = 0;
};

}  // namespace risgraph

#endif  // RISGRAPH_SUBSCRIBE_SUBSCRIPTION_INDEX_H_

#ifndef RISGRAPH_SUBSCRIBE_SUBSCRIPTION_H_
#define RISGRAPH_SUBSCRIBE_SUBSCRIPTION_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace risgraph {

/// The continuous-query subsystem's vocabulary (src/subscribe/).
///
/// RisGraph maintains per-update incremental results, but until this layer
/// every front end was pull-based: clients had to poll Query* to notice that
/// a result changed. A *subscription* is a standing query over one
/// maintained algorithm's results: "tell me whenever the value of these
/// vertices (or any vertex) changes, optionally filtered by a predicate".
/// Each committed result version's modification set is matched against the
/// live subscriptions and the hits are pushed to the subscriber as
/// Notifications — over the in-process client and the RPC tier alike
/// (protocol v2.1 kNotify frames).
///
/// The subsystem's layers, commit to consumer:
///
///   RisGraph commit hook (ResultChangeSink, change_sink.h)
///     -> ChangePublisher (publisher.h): coordinator-side staging, sealed
///        per-epoch batch handoff, one off-path matcher thread
///     -> SubscriptionRegistry (registry.h): the subscription table plus
///        one VertexPostingIndex (subscription_index.h — vertex id ->
///        posting list of interested subscriptions); watch-all
///        subscriptions match on per-algorithm lanes; matching is
///        O(changes x interested), not O(changes x live), and unsubscribe
///        is O(watched vertices)
///     -> DeliveryQueue (delivery_queue.h): bounded per-subscription FIFO
///        with latest-value coalescing under overload
///     -> SessionClient poll/wait in-process, or the RPC pusher thread
///        (kNotify) remotely.
///
/// The contract every layer preserves: per-subscription notification
/// streams are DETERMINISTIC — bit-identical at any ingest/store shard
/// count, equal to the scan reference matcher, over either transport,
/// including under subscribe/unsubscribe churn at batch boundaries (pinned
/// by tests/test_subscribe.cc and tests/test_subscribe_index.cc).

/// Value predicate applied to a candidate change before it is delivered.
/// Predicates see the committed (new) value and the pre-update (old) value.
enum class NotifyPredicate : uint8_t {
  /// Every change of the watched vertices is delivered.
  kAnyChange = 0,
  /// Deliver only when the committed value is <= threshold (e.g. "a vertex
  /// came within distance T of the root").
  kValueAtMost = 1,
  /// Deliver only when the committed value is >= threshold (e.g. "a vertex
  /// fell out of reach": BFS/SSSP report kInfWeight-based values).
  kValueAtLeast = 2,
  /// Deliver only when |new - old| >= threshold (value-delta trigger).
  kMinDelta = 3,
};

inline constexpr uint8_t kMaxNotifyPredicate =
    static_cast<uint8_t>(NotifyPredicate::kMinDelta);

/// THE definition of predicate semantics — shared by the filter's scan-path
/// Matches and the index's posting-list entries (subscription_index.h), so
/// the indexed and scan matchers can never disagree on what a predicate
/// admits.
inline bool PassesNotifyPredicate(NotifyPredicate predicate,
                                  uint64_t threshold, uint64_t old_value,
                                  uint64_t new_value) {
  switch (predicate) {
    case NotifyPredicate::kAnyChange:
      return true;
    case NotifyPredicate::kValueAtMost:
      return new_value <= threshold;
    case NotifyPredicate::kValueAtLeast:
      return new_value >= threshold;
    case NotifyPredicate::kMinDelta: {
      uint64_t delta = new_value >= old_value ? new_value - old_value
                                              : old_value - new_value;
      return delta >= threshold;
    }
  }
  return false;
}

/// A standing query: which algorithm, which vertices, which changes.
struct SubscriptionFilter {
  /// Index of the maintained algorithm (RisGraph::AddAlgorithm order).
  uint64_t algo = 0;
  /// Watch every vertex of the algorithm (the "watch-all" form).
  bool watch_all = false;
  /// Watched vertex set when !watch_all. Normalize() sorts + dedups so
  /// matching can binary-search; callers may pass any order.
  std::vector<VertexId> vertices;
  NotifyPredicate predicate = NotifyPredicate::kAnyChange;
  /// Threshold for kValueAtMost / kValueAtLeast / kMinDelta (ignored by
  /// kAnyChange).
  uint64_t threshold = 0;

  static SubscriptionFilter WatchAll(
      uint64_t algo, NotifyPredicate pred = NotifyPredicate::kAnyChange,
      uint64_t threshold = 0) {
    SubscriptionFilter f;
    f.algo = algo;
    f.watch_all = true;
    f.predicate = pred;
    f.threshold = threshold;
    return f;
  }
  static SubscriptionFilter WatchVertices(
      uint64_t algo, std::vector<VertexId> vertices,
      NotifyPredicate pred = NotifyPredicate::kAnyChange,
      uint64_t threshold = 0) {
    SubscriptionFilter f;
    f.algo = algo;
    f.vertices = std::move(vertices);
    f.predicate = pred;
    f.threshold = threshold;
    return f;
  }

  void Normalize() {
    std::sort(vertices.begin(), vertices.end());
    vertices.erase(std::unique(vertices.begin(), vertices.end()),
                   vertices.end());
  }

  /// The watched-vertex set for indexing (sorted + deduped once Normalize
  /// has run; empty for watch-all filters). The registry's posting-list
  /// index registers the subscription under each of these vertices, so
  /// matching a change touches only the subscriptions watching that vertex
  /// — never this set itself.
  std::span<const VertexId> WatchedVertices() const { return vertices; }

  /// Vertex-membership half of the filter. Requires Normalize() to have run
  /// (the registry does it at Subscribe). The indexed match path never calls
  /// this — a posting-list hit already proves membership.
  bool WatchesVertex(VertexId vertex) const {
    return watch_all ||
           std::binary_search(vertices.begin(), vertices.end(), vertex);
  }

  /// Value-predicate half of the filter, split out so the indexed match
  /// path can evaluate it without re-proving vertex membership.
  bool PassesPredicate(uint64_t old_value, uint64_t new_value) const {
    return PassesNotifyPredicate(predicate, threshold, old_value, new_value);
  }

  /// True when a committed change of (vertex, old -> new) passes this filter.
  bool Matches(VertexId vertex, uint64_t old_value, uint64_t new_value) const {
    return WatchesVertex(vertex) && PassesPredicate(old_value, new_value);
  }
};

/// One pushed change: vertex `vertex` of algorithm `algo` moved from
/// `old_value` to `new_value` at result version `version`. Notification
/// streams are deterministic: same committed versions => same notifications
/// in the same order, at any ingest shard count and over either transport
/// (the invariance contract of tests/test_subscribe.cc).
struct Notification {
  uint64_t subscription_id = 0;
  uint64_t algo = 0;
  VersionId version = 0;
  VertexId vertex = kInvalidVertex;
  uint64_t old_value = 0;
  uint64_t new_value = 0;

  friend bool operator==(const Notification&, const Notification&) = default;
};

/// One committed per-vertex result change, staged by the ChangePublisher on
/// the coordinator thread and matched against the registry off the critical
/// path. `new_value` is captured at commit time (not at match time) so the
/// notification content cannot depend on how far the engine has advanced by
/// the time the matcher runs — the determinism contract hinges on this.
struct CommittedChange {
  uint64_t algo = 0;
  VersionId version = 0;
  VertexId vertex = kInvalidVertex;
  uint64_t old_value = 0;
  uint64_t new_value = 0;
};

}  // namespace risgraph

#endif  // RISGRAPH_SUBSCRIBE_SUBSCRIPTION_H_

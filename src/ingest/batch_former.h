#ifndef RISGRAPH_INGEST_BATCH_FORMER_H_
#define RISGRAPH_INGEST_BATCH_FORMER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/timer.h"
#include "common/types.h"
#include "ingest/ingest_queue.h"
#include "ingest/session.h"
#include "runtime/risgraph.h"

namespace risgraph {

/// Forms one epoch's batches from the sharded ingest queue (paper Section
/// 4's classification, Figure 9's epoch schema). Each packing pass:
///
///   1. *Bulk drain*: deferred items plus the shard rings are staged into one
///      flat buffer (IngestShard::TryPopBulk — no fence and no head CAS per
///      item).
///   2. *Classify in claim order*: one pass over the stage calls the
///      read-only RisGraph::IsUpdateSafe for each update against current
///      results plus the in-epoch duplicate-count delta of its own
///      (src, dst, weight) key, then folds a safe run's deltas so later
///      same-key deletions see them.
///
/// Classification depends on (a) current results, which are frozen for the
/// whole packing phase (no mutation runs until the epoch executes), and (b)
/// that dup-delta. Insertions ignore the delta entirely; deletions consult it
/// only to decide whether they remove the key's last duplicate.
///
/// Single-consumer: only the coordinator thread (epoch pipeline) drives this
/// class. Sessions never see it — they only push ring items.
///
/// FIFO across epochs: when a session's pipelined stream hits an unsafe
/// update, the rest of its stream is *next-epoch* (Figure 9's N class — an
/// unsafe update can change the classification of everything behind it).
/// Staged items of such a session are parked, still in order, and re-staged
/// ahead of the rings once the epoch turns over.
///
/// All per-epoch scratch (staging buffer, batches, delta tables, deferred
/// queues) is pre-sized at construction and reused; after warm-up a packing
/// pass performs zero heap allocations (asserted by test_ingest_pack).
template <typename Store>
class BatchFormer {
 public:
  /// One claimed blocking request, or one unsafe pipelined update.
  struct Claimed {
    Session* session = nullptr;
    int64_t claim_ns = 0;
    int64_t latency_ns = 0;   // filled at response time
    uint32_t n_updates = 1;   // captured at claim time: after the response,
    bool is_txn = false;      // the session belongs to the client again
    bool is_async = false;    // pipelined update (carried by value below)
    Update async_update{};
  };

  /// One session's safe prefix claimed from its pipelined stream this epoch;
  /// applied strictly in submission order (sequentially) so the parallel
  /// safe phase preserves per-session FIFO semantics.
  struct AsyncGroup {
    Session* session = nullptr;
    std::vector<Update> updates;
    int64_t claim_ns = 0;
    int64_t latency_ns = 0;
  };

  /// Allocation-free FIFO of claimed unsafe work: a vector plus a head
  /// cursor; storage (and its capacity) is recycled whenever the queue
  /// drains. Persists across epochs until the pipeline executes it.
  class ClaimedFifo {
   public:
    bool empty() const { return head_ == items_.size(); }
    size_t size() const { return items_.size() - head_; }
    Claimed& front() { return items_[head_]; }
    const Claimed& front() const { return items_[head_]; }
    void push_back(const Claimed& c) { items_.push_back(c); }
    void pop_front() {
      if (++head_ == items_.size()) {
        items_.clear();
        head_ = 0;
      }
    }

   private:
    std::vector<Claimed> items_;
    size_t head_ = 0;
  };

  BatchFormer(RisGraph<Store>& system, ShardedIngestQueue& queue)
      : system_(system), queue_(queue) {
    size_t ring_total = 0;
    for (size_t i = 0; i < queue_.num_shards(); ++i) {
      ring_total += queue_.shard(i).capacity();
    }
    // A pass stages at most one ring's worth per shard plus whatever was
    // parked; park volume is itself bounded by earlier ring drains, so 2x is
    // a comfortable steady-state ceiling (growth beyond it is amortized).
    staging_.reserve(2 * ring_total);
    deferred_.reserve(ring_total);
    deferred_keep_.reserve(ring_total);
    safe_batch_.reserve(ring_total);
    dup_deltas_.Reserve(2 * ring_total);
    async_group_of_.Reserve(256);
    frozen_.Reserve(256);
  }

  /// Resets per-epoch state. Deferred (next-epoch) items survive — they are
  /// staged first by the next PackOnce, preserving per-session order.
  void BeginEpoch() {
    safe_batch_.clear();
    async_used_ = 0;
    async_group_of_.Clear();
    frozen_.Clear();
    dup_deltas_.Clear();
  }

  /// One packing pass: stages deferred items first, then bulk-drains the
  /// ingest shards (bounded to one ring's worth per shard so the caller can
  /// consult the scheduler between passes), and classifies the stage in
  /// claim order. Classified WAL payloads are appended to `wal_batch` in
  /// claim order for the epoch group commit. Returns the number of items
  /// *claimed* this pass (0 = no claimable work arrived). Items parked for
  /// the next epoch do not count:
  /// a pass that only parks must not keep the packing loop spinning — ending
  /// the epoch sooner executes the unsafe update that froze the session, and
  /// ring backpressure re-engages while the coordinator is off executing.
  ///
  /// `unsafe_claim_limit` (0 = unlimited) is the packer-side backpressure
  /// valve: once the unsafe queue holds that many claims, the rest of the
  /// stage is parked wholesale — in claim order, so per-session FIFO holds —
  /// instead of claimed. Without it an all-unsafe pipelined writer can stuff
  /// a whole ring drain into the sequential lane in one pass, and the epoch
  /// that executes it runs tens of thousands of updates while every other
  /// session waits (the mega-epoch anomaly). Parked items carry no epoch
  /// state yet (no verdict, no dup-delta fold, no WAL copy), so parking is
  /// side-effect-free.
  uint64_t PackOnce(std::vector<Update>& wal_batch,
                    uint64_t unsafe_claim_limit = 0) {
    staging_.clear();

    // --- Stage 1a: deferred lane. Sessions frozen in an *earlier* epoch are
    // claimable again (BeginEpoch cleared frozen_); sessions frozen earlier
    // in *this* epoch keep their parked items. Park order is claim order, so
    // a straight partition preserves per-session FIFO.
    if (!deferred_.empty()) {
      deferred_keep_.clear();
      for (const IngestItem& item : deferred_) {
        (frozen_.Contains(item.session) ? deferred_keep_ : staging_)
            .push_back(item);
      }
      deferred_.swap(deferred_keep_);
    }

    // --- Stage 1b: ring lane, bulk-drained.
    queue_.DrainInto(staging_);
    if (staging_.empty()) return 0;

    // One timestamp per pass: claim_ns feeds latency stats and the
    // scheduler's earliest-wait heuristic, both of which operate at epoch
    // granularity — a per-item clock read is pure hot-path overhead.
    int64_t now = WallTimer::NowNanos();

    // --- Stage 2: classification in claim order.
    return Classify(now, wal_batch, unsafe_claim_limit);
  }

  std::vector<Claimed>& safe_batch() { return safe_batch_; }
  std::span<AsyncGroup> async_safe() {
    return {async_pool_.data(), async_used_};
  }
  ClaimedFifo& unsafe_queue() { return unsafe_queue_; }

  uint64_t safe_size() const {
    uint64_t n = safe_batch_.size();
    for (size_t i = 0; i < async_used_; ++i) {
      n += async_pool_[i].updates.size();
    }
    return n;
  }

  bool HasClaimedWork() const {
    return !safe_batch_.empty() || async_used_ != 0 || !unsafe_queue_.empty();
  }

  /// Items parked for the next epoch (the stop path must not exit while any
  /// remain).
  bool HasDeferred() const { return !deferred_.empty(); }

 private:
  // Zero-copy view of a session's current blocking request.
  static std::pair<const Update*, size_t> UpdatesView(const Session& s) {
    if (s.is_txn_) return {s.txn_.data(), s.txn_.size()};
    return {&s.update_, size_t{1}};
  }

  static bool IsVertexOp(const Update& u) {
    return u.kind == UpdateKind::kInsertVertex ||
           u.kind == UpdateKind::kDeleteVertex;
  }

  /// Delta-aware verdict over a run of updates, classified one at a time
  /// against the current dup-delta table. Intra-run deltas are *not* folded
  /// (a transaction's updates all classify against the table as of its
  /// claim; folding happens only after an all-safe verdict). Vertex
  /// operations are result-safe (category 1) but grow per-vertex engine
  /// state, so they route through the sequential lane.
  bool SequentialVerdict(const Update* ups, size_t n) {
    ScopedTimer tc(system_.cc_timer());
    for (size_t i = 0; i < n; ++i) {
      const Update& u = ups[i];
      if (IsVertexOp(u)) return false;
      int64_t delta = 0;
      if (u.kind == UpdateKind::kDeleteEdge) {
        if (const int64_t* d = dup_deltas_.Find(u.edge)) delta = *d;
      }
      if (!system_.IsUpdateSafe(u, delta)) return false;
    }
    return true;
  }

  /// A safe verdict folds the run's duplicate-count deltas into the epoch
  /// state (the run will execute this epoch, so later same-key deletions
  /// must see its effect — Section 4's classification is against the state
  /// the update will execute in).
  void FoldDeltas(const Update* ups, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (ups[i].kind == UpdateKind::kInsertEdge) dup_deltas_[ups[i].edge]++;
      if (ups[i].kind == UpdateKind::kDeleteEdge) dup_deltas_[ups[i].edge]--;
    }
  }

  uint64_t Classify(int64_t now, std::vector<Update>& wal_batch,
                    uint64_t unsafe_claim_limit) {
    uint64_t found = 0;
    for (size_t i = 0; i < staging_.size(); ++i) {
      // Backpressure valve: with the unsafe queue at its limit, park the
      // rest of the stage wholesale. The cut must be positional, not
      // per-item — claiming later safe items past parked earlier ones would
      // break claim order (WAL order, dup-delta order, per-session FIFO).
      // Parked items re-stage ahead of the rings next pass; the caller's
      // drain check fires first (limit >= scheduler threshold), so the
      // epoch turns over and the sequential lane catches up.
      if (unsafe_claim_limit != 0 &&
          unsafe_queue_.size() >= unsafe_claim_limit) {
        deferred_.insert(deferred_.end(), staging_.begin() + i,
                         staging_.end());
        break;
      }
      const IngestItem& item = staging_[i];
      Session* s = item.session;

      if (item.kind == IngestKind::kAsync && frozen_.Contains(s)) {
        // Behind an unsafe update: park it so per-session order survives
        // into the next epoch. Not counted as claimed work — a frozen
        // session implies the unsafe queue is non-empty, so the caller
        // already holds work. (A backpressure park above may also leave
        // non-frozen sessions with parked items; both kinds re-stage in
        // park order, which is claim order.)
        deferred_.push_back(item);
        continue;
      }
      ++found;

      if (item.kind == IngestKind::kRequest) {
        // Claim: the session stays ours until the pipeline responds.
        s->state_.store(Session::kClaimed, std::memory_order_relaxed);
        Claimed c{s, now, 0,
                  static_cast<uint32_t>(s->is_rw_ ? 1 : UpdatesView(*s).second),
                  s->is_txn_};
        // Read-write transactions bypass classification (unsafe by
        // definition); their writes reach the WAL as they execute, not at
        // claim time.
        bool safe = false;
        if (!s->is_rw_) {
          auto [ups, n] = UpdatesView(*s);
          safe = SequentialVerdict(ups, n);
          if (safe) FoldDeltas(ups, n);
          wal_batch.insert(wal_batch.end(), ups, ups + n);
        }
        if (safe) {
          safe_batch_.push_back(c);
        } else {
          unsafe_queue_.push_back(c);
        }
        continue;
      }

      // Pipelined update.
      const Update& u = item.update;
      bool safe = SequentialVerdict(&u, 1);
      if (safe) FoldDeltas(&u, 1);
      wal_batch.push_back(u);
      if (safe) {
        size_t& slot = async_group_of_[s];
        if (slot == 0) {  // first update from this session this epoch
          AsyncGroup& g = NewAsyncGroup();
          g.session = s;
          g.claim_ns = now;
          g.latency_ns = 0;
          slot = async_used_;  // 1-based so the default 0 means "fresh"
        }
        async_pool_[slot - 1].updates.push_back(u);
      } else {
        unsafe_queue_.push_back(Claimed{s, now, 0, 1, false, true, u});
        frozen_.Insert(s);  // the rest of this session's stream is next-epoch
      }
    }
    return found;
  }

  AsyncGroup& NewAsyncGroup() {
    if (async_used_ == async_pool_.size()) async_pool_.emplace_back();
    AsyncGroup& g = async_pool_[async_used_++];
    g.updates.clear();  // keeps the previous epoch's capacity
    return g;
  }

  RisGraph<Store>& system_;
  ShardedIngestQueue& queue_;

  // Per-pass staging: every item drained this pass, in claim order.
  std::vector<IngestItem> staging_;

  std::vector<Claimed> safe_batch_;
  // Pipelined safe groups, pooled: BeginEpoch resets the count, the group
  // objects (and their update vectors' capacity) are reused.
  std::vector<AsyncGroup> async_pool_;
  size_t async_used_ = 0;
  // Session -> 1-based index into async_pool_ (0 = no group yet this epoch).
  FlatMap<Session*, size_t, PointerHash> async_group_of_;
  ClaimedFifo unsafe_queue_;  // persists across epochs until drained
  // Sessions whose pipelined stream hit an unsafe update this epoch.
  FlatSet<Session*, PointerHash> frozen_;
  // Next-epoch items in park (= claim) order; re-staged by the next pass.
  // Two buffers swapped so the frozen-session partition never allocates.
  std::vector<IngestItem> deferred_;
  std::vector<IngestItem> deferred_keep_;
  // In-epoch duplicate-count deltas, keyed on the full (src, dst, weight)
  // tuple — a hashed 64-bit key with no collision handling can let two
  // distinct edges share a delta and misclassify a deletion.
  FlatMap<Edge, int64_t, EdgeTupleHash> dup_deltas_;
};

}  // namespace risgraph

#endif  // RISGRAPH_INGEST_BATCH_FORMER_H_

#ifndef RISGRAPH_INGEST_EPOCH_PIPELINE_H_
#define RISGRAPH_INGEST_EPOCH_PIPELINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/latency.h"
#include "common/timer.h"
#include "common/types.h"
#include "ingest/batch_former.h"
#include "ingest/ingest_queue.h"
#include "ingest/scheduler.h"
#include "ingest/session.h"
#include "parallel/thread_pool.h"
#include "runtime/risgraph.h"
#include "shard/shard_router.h"
#include "subscribe/publisher.h"

namespace risgraph {

/// Per-epoch statistics (drives Figure 12's trace).
struct EpochStat {
  int64_t end_ns = 0;
  uint64_t safe_ops = 0;
  uint64_t unsafe_ops = 0;
  uint64_t threshold = 0;
  uint64_t timeouts = 0;
};

/// What the client-facing tiers do when a session's ingest ring is full.
/// Producers inside the process default to blocking (backpressure propagates
/// to the caller naturally); an RPC tier usually prefers shedding, because a
/// parked handler thread stalls every other request multiplexed behind it on
/// the same connection.
enum class OverloadPolicy : uint8_t {
  /// Park the producer until the ring drains (Session::SubmitAsync).
  kBlock,
  /// Fail fast: pipelined submissions answer kBusy and drop the update
  /// (Session::TrySubmitAsync); the client decides whether to resubmit.
  kShed,
};

/// Options for the ingest pipeline. (Known as ServiceOptions to the service
/// façade — the names predate the ingest subsystem and are all over the
/// benches.)
struct ServiceOptions {
  Scheduler::Options scheduler;
  /// Cap on safe updates packed per epoch (bounds response delay when no
  /// unsafe update ever arrives).
  uint64_t max_safe_batch = 65536;
  /// Versions of history retained behind the current version; the pipeline
  /// releases older snapshots on the sessions' behalf each epoch (emulated
  /// clients acknowledge every response immediately).
  uint64_t history_window = 128;
  bool record_epoch_stats = false;
  /// Ingest-plane sharding: number of MPSC ring shards (0 = default: the
  /// store's shard count under a partitioned store, else 4; shards are
  /// fixed at construction, sessions are pinned round-robin) and per-shard
  /// ring capacity (rounded up to a power of two). A full shard blocks its
  /// producers — backpressure. This is also the N of the shard layer: build
  /// the sharded store with StoreOptions::partition.num_shards equal to it
  /// (shard/shard_router.h).
  size_t ingest_shards = 0;
  size_t ingest_shard_capacity = 4096;
  /// Shed-vs-block when a session's ingest ring is full (see OverloadPolicy).
  /// Consulted by the pipelined client lane (SessionClient, RPC server);
  /// the blocking lane always blocks.
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  /// Packer backpressure: stop claiming once the unsafe queue exceeds this
  /// multiple of the scheduler's current drain threshold (the rest of the
  /// staged pass parks for the next epoch, in claim order). Bounds how far
  /// an all-unsafe pipelined writer can run the sequential lane ahead —
  /// without it one ring drain can stuff tens of thousands of updates into
  /// a single mega-epoch while every blocking session waits behind it.
  /// 0 disables the valve.
  uint64_t unsafe_backlog_multiple = 8;

  // --- Decoupled durability (async group commit; ROADMAP item 3) ---
  /// When true (and the system has a WAL), Start() spins up the WAL's
  /// background flusher: the coordinator acks *execution* at epoch seal
  /// with an O(1) buffer handoff, and the flusher writes + fsyncs on its
  /// own adaptive cadence, advancing the durability watermarks
  /// (DurableThrough / WaitDurable; kDurable frames over RPC). When false,
  /// the legacy coupled mode: one synchronous write (+ optional fsync) per
  /// epoch on the coordinator thread.
  bool async_durability = false;
  /// Adaptive flush cadence, time trigger: the flusher lands pending bytes
  /// at least this often (microseconds) — bounds durability-ack latency
  /// under light load.
  uint64_t wal_flush_interval_micros = 2000;
  /// Adaptive flush cadence, byte trigger: once this many sealed bytes are
  /// pending the flusher goes immediately — bounds replay loss and memory
  /// under heavy load, and batches fsyncs across epochs in between.
  uint64_t wal_flush_bytes = 256 * 1024;
};

/// The epoch pipeline: RisGraph's multi-session concurrency-control core
/// (paper Sections 4 and 5, Figure 9), extracted from the old monolithic
/// service.
///
/// The coordinator thread repeatedly: (1) lets the batch former claim and
/// classify requests from the sharded ingest queue until the scheduler says
/// drain; (2) appends the epoch's WAL records in one group-commit batch;
/// (3) executes the safe batch on per-owner apply lanes across the thread
/// pool (inter-update parallelism — safe updates cannot change any result,
/// and each vertex's halves apply on one lane in claim order; SafePhase);
/// (4) drains unsafe updates one by one, each with intra-update parallel
/// incremental computing; (5) flushes the WAL, releases old history, and
/// lets the scheduler adapt its backlog threshold to the tail-latency target.
///
/// Both the in-process service façade (runtime/service.h) and the RPC server
/// (net/rpc_server.cc) drive this same pipeline through Session handles.
template <typename Store = DefaultGraphStore>
class EpochPipeline {
 public:
  /// True when Store is the shard layer's partitioned store (the shared
  /// detection trait in shard/shard_router.h); the safe phase's apply lanes
  /// are then its partitions.
  static constexpr bool kShardedStore = kIsShardedStore<Store>;
  /// Epochs with at most this many safe updates apply inline on the
  /// coordinator (same reasoning as the engine's sequential_edge_threshold).
  static constexpr uint64_t kInlineSafeUpdates = 16;
  /// Apply lanes per pool worker over an unpartitioned store. More lanes
  /// than workers let the pool's cursor balance them: with one lane per
  /// worker, one slow lane (a hub's list growing, a preempted worker) held
  /// the whole epoch, and safe_stream's open-loop p999 rose from ~1 ms to
  /// 3-12 ms on some seeds (4-vCPU VM).
  static constexpr uint32_t kLanesPerWorker = 4;

  EpochPipeline(RisGraph<Store>& system, ServiceOptions options = {},
                ThreadPool* pool = nullptr)
      : system_(system),
        options_(options),
        scheduler_(options.scheduler),
        pool_(pool != nullptr ? pool : &ThreadPool::Global()),
        queue_(RingShards(system, options), options.ingest_shard_capacity),
        former_(system, queue_),
        lane_router_(MakeLaneRouter(system, *pool_)) {
    ring_capacity_ = queue_.shard(0).capacity();
    lanes_.resize(lane_router_.num_shards());
    size_t per_lane = options_.max_safe_batch / lanes_.size() + 64;
    for (auto& lane : lanes_) lane.reserve(per_lane);
  }

  ~EpochPipeline() { Stop(); }

  EpochPipeline(const EpochPipeline&) = delete;
  EpochPipeline& operator=(const EpochPipeline&) = delete;

  /// Creates a session pinned to an ingest shard. Not thread-safe against a
  /// running coordinator; open all sessions before Start().
  Session* OpenSession() {
    sessions_.push_back(std::make_unique<Session>());
    Session* s = sessions_.back().get();
    s->shard_ = queue_.shard_for(sessions_.size() - 1);
    return s;
  }

  /// Appends the continuous-query stage to the commit path: installs the
  /// publisher as the system's change sink (every committed version's
  /// modification set is staged on the coordinator) and seals one batch per
  /// epoch, after the epoch's WAL step, for the publisher's off-path
  /// matcher. Like OpenSession, wire this before Start(); nullptr detaches.
  void AttachPublisher(ChangePublisher* publisher) {
    publisher_ = publisher;
    system_.SetChangeSink(publisher);
  }
  ChangePublisher* publisher() const { return publisher_; }

  void Start() {
    if (running_.exchange(true)) return;
    stop_.store(false);
    if (options_.async_durability && system_.wal().IsOpen()) {
      system_.wal().StartFlusher({options_.wal_flush_interval_micros,
                                  options_.wal_flush_bytes});
    }
    coordinator_ = std::thread([this] { CoordinatorMain(); });
  }

  /// Stops after draining every in-flight request (join client threads
  /// first; a stopped pipeline never answers new submissions).
  void Stop() {
    if (!running_.load()) return;
    stop_.store(true);
    coordinator_.join();
    system_.wal().StopFlusher();  // drains; no-op in coupled mode
    running_.store(false);
  }

  uint64_t completed_ops() const {
    return completed_ops_.load(std::memory_order_relaxed);
  }
  /// Safe updates whose mutation spanned two store partitions (each applied
  /// as two per-shard halves); the shard layer's scaling lever — see
  /// shard/shard_router.h. Always 0 on an unpartitioned store.
  uint64_t cross_shard_ops() const {
    return cross_shard_ops_.load(std::memory_order_relaxed);
  }
  /// Server-suggested back-off carried in kBusy acks (rpc_protocol.h): the
  /// estimated time to drain one full ingest ring at the recently observed
  /// per-update processing cost. A shed update found its ring full, so the
  /// ring's backlog — capacity updates — must drain before a retry can
  /// find space; scaling by capacity (instead of echoing recent epoch
  /// durations) keeps the hint honest when overload begins after a
  /// light-load stretch of tiny epochs. Zero until a claiming epoch
  /// completes (callers fall back to their own default).
  uint32_t SuggestRetryAfterMicros() const {
    int64_t per_op = avg_op_ns_.load(std::memory_order_relaxed);
    if (per_op <= 0) return 0;
    int64_t drain_us =
        per_op * static_cast<int64_t>(ring_capacity_) / 1000;
    return static_cast<uint32_t>(std::clamp<int64_t>(drain_us, 50, 20000));
  }
  // --- Durability watermark plumbing (IClient::DurableThrough/WaitDurable
  //     and the RPC server's kDurable pusher) -------------------------------

  /// Sticky WAL failure (fail-stop): once true, every submission is
  /// rejected (blocking lanes see kInvalidVersion; transports surface
  /// kWalError) and the durability watermark is frozen.
  bool wal_failed() const { return system_.WalStatus() != Status::kOk; }

  /// Monotonic result-version durability watermark: every update whose
  /// epoch sealed at a version <= this is durable. Reporting-grade — safe
  /// updates do not bump the version, so per-request precision needs the
  /// LSN machinery below (which WaitDurable and the RPC kDurable
  /// correlation ranges use). Without a WAL: the last committed version
  /// (execution == durability, degenerately).
  uint64_t DurableThrough() const {
    const WriteAheadLog& wal = system_.wal();
    if (wal.IsOpen()) return wal.DurableVersion();
    return sealed_version_.load(std::memory_order_acquire);
  }

  /// Blocks until everything submitted-and-answered before this call is
  /// durable (timeout in micros, <0 = forever). The LSN marker taken at
  /// call time covers every record of every already-acked update — a
  /// superset of "result version `version` is durable", which is the only
  /// sound per-caller contract when safe updates share versions. False on
  /// timeout or a dead WAL.
  bool WaitDurable(uint64_t version, int64_t timeout_micros = -1) {
    WriteAheadLog& wal = system_.wal();
    if (!wal.IsOpen()) {
      // No WAL: execution is the only commit there is; wait for the
      // version to seal (covers callers handing us a just-acked version).
      int64_t waited = 0;
      while (sealed_version_.load(std::memory_order_acquire) < version) {
        if (!running_.load(std::memory_order_acquire)) return false;
        if (timeout_micros >= 0 && waited >= timeout_micros) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        waited += 50;
      }
      return true;
    }
    return wal.WaitDurableLsn(wal.NextLsn(), timeout_micros);
  }

  /// LSN marker for "everything acked so far" — the RPC server stamps each
  /// response with this and acks its durability once DurableLsn() passes
  /// it. 0 without a WAL (everything trivially durable).
  uint64_t WalMarker() const {
    const WriteAheadLog& wal = system_.wal();
    return wal.IsOpen() ? wal.NextLsn() : 0;
  }
  /// Records with lsn < this are on stable storage. 0 without a WAL.
  uint64_t DurableLsn() const {
    const WriteAheadLog& wal = system_.wal();
    return wal.IsOpen() ? wal.DurableUpto() : 0;
  }
  /// Push-loop park: waits until DurableLsn() advances past `seen`, the
  /// WAL dies, or the timeout expires. True iff it advanced.
  bool WaitDurablePast(uint64_t seen, int64_t timeout_micros) {
    WriteAheadLog& wal = system_.wal();
    if (!wal.IsOpen()) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min<int64_t>(timeout_micros, 1000)));
      return false;
    }
    return wal.WaitDurablePast(seen, timeout_micros);
  }

  uint64_t safe_ops() const { return safe_ops_.load(std::memory_order_relaxed); }
  uint64_t unsafe_ops() const {
    return unsafe_ops_.load(std::memory_order_relaxed);
  }
  /// Blocking transactions (SubmitTxn) completed — one count per
  /// transaction, while completed_ops counts their individual updates.
  uint64_t txn_ops() const { return txn_ops_.load(std::memory_order_relaxed); }
  const LatencyRecorder& latencies() const { return latencies_; }
  const std::vector<EpochStat>& epoch_stats() const { return epoch_stats_; }
  const Scheduler& scheduler() const { return scheduler_; }
  const ShardedIngestQueue& queue() const { return queue_; }
  const ServiceOptions& options() const { return options_; }

  ComponentTimer& sched_timer() { return sched_timer_; }
  ComponentTimer& network_timer() { return network_timer_; }

 private:
  using Claimed = typename BatchFormer<Store>::Claimed;
  using AsyncGroup = typename BatchFormer<Store>::AsyncGroup;

  void CoordinatorMain() {
    std::vector<Update> wal_batch;
    while (true) {
      bool should_stop = stop_.load(std::memory_order_acquire);
      former_.BeginEpoch();
      wal_batch.clear();
      uint64_t claimed_this_epoch = 0;
      // Snapshotted at the first claiming pass, NOT at loop top: an epoch
      // can idle-scan (and nap) for seconds before work arrives, and that
      // wait must not leak into the busy-epoch EWMA the retry hint reads.
      int64_t epoch_start_ns = 0;

      // --- Packing phase: claim + classify until the scheduler says drain.
      bool drain = false;
      int idle_scans = 0;
      while (!drain) {
        uint64_t found;
        {
          ScopedTimer t(network_timer_);
          // The claim limit tracks the adaptive threshold so the valve
          // scales with the scheduler's own notion of a full epoch.
          uint64_t claim_limit =
              options_.unsafe_backlog_multiple == 0
                  ? 0
                  : options_.unsafe_backlog_multiple *
                        scheduler_.unsafe_threshold();
          found = former_.PackOnce(wal_batch, claim_limit);
        }
        claimed_this_epoch += found;
        {
          ScopedTimer t(sched_timer_);
          auto& unsafe_queue = former_.unsafe_queue();
          int64_t earliest_wait =
              unsafe_queue.empty()
                  ? 0
                  : WallTimer::NowNanos() - unsafe_queue.front().claim_ns;
          drain = scheduler_.ShouldDrainUnsafe(unsafe_queue.size(),
                                               earliest_wait) ||
                  former_.safe_size() >= options_.max_safe_batch;
        }
        // Re-read the stop flag: Stop() may arrive while we idle-scan, and
        // the epoch-start snapshot would never see it.
        should_stop = stop_.load(std::memory_order_acquire);
        if (found == 0) {
          // Nothing new: if we hold work, execute it; otherwise nap briefly.
          if (former_.HasClaimedWork() || should_stop) break;
          if (++idle_scans > 64) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
          }
        } else {
          idle_scans = 0;
          if (epoch_start_ns == 0) epoch_start_ns = WallTimer::NowNanos();
        }
        if (should_stop) break;
      }

      // --- Fail-stop gate: a dead WAL (sticky kWalError from a failed
      //     write or fsync) must never ack work it can no longer persist.
      //     Everything claimed this epoch is rejected — blocking sessions
      //     get kInvalidVersion, pipelined completions are error-counted —
      //     without executing, logging, or touching the scheduler.
      if (system_.WalStatus() != Status::kOk) {
        RejectEpoch();
        // Mirror the normal stop exit: leave only after an empty pass with
        // nothing parked, so in-flight submissions drain (rejected, but
        // answered) before the coordinator disappears.
        if (should_stop && claimed_this_epoch == 0 &&
            !former_.HasDeferred()) {
          return;
        }
        continue;
      }

      // --- Group commit (buffered): one WAL append for the whole epoch, in
      //     claim order, before anything executes. The physical flush (and
      //     optional fsync) stays at epoch end, as before.
      system_.WalAppendBatch(wal_batch);

      // --- Safe phase: all safe updates on the apply lanes (inter-update
      //     parallelism); none of them can change any result.
      auto& safe_batch = former_.safe_batch();
      auto async_safe = former_.async_safe();  // span over the epoch's groups
      uint64_t epoch_safe = former_.safe_size();
      if (epoch_safe > 0) SafePhase(safe_batch, async_safe, epoch_safe);

      // --- Unsafe phase: one by one, each with intra-update parallelism.
      auto& unsafe_queue = former_.unsafe_queue();
      uint64_t epoch_unsafe = unsafe_queue.size();
      while (!unsafe_queue.empty()) {
        Claimed c = unsafe_queue.front();
        unsafe_queue.pop_front();
        if (c.is_async) {
          VersionId ver = ApplyUnsafeOne(c.async_update);
          c.latency_ns = WallTimer::NowNanos() - c.claim_ns;
          AsyncComplete(*c.session, ver, 1);
          RecordStats(c, /*safe=*/false);
          continue;
        }
        Session& s = *c.session;
        VersionId ver = s.is_rw_ ? system_.ExecuteReadWrite(s.rw_body_)
                        : s.is_txn_ ? system_.ApplyTxnUnsafe(s.txn_)
                                    : ApplyUnsafeOne(s.update_);
        c.latency_ns = RespondOnly(s, ver);
        RecordStats(c, /*safe=*/false);
      }

      // --- Epoch end: group commit boundary, history GC, scheduler
      //     adaptation. Coupled mode: a synchronous write (+ optional
      //     fsync) lands here, on the coordinator. Decoupled mode
      //     (async_durability): an O(1) Seal handoff tagged with the
      //     committed version; the flusher syncs on its own cadence and
      //     advances the durability watermark. A failure either way
      //     latches kWalError and the next epoch's gate rejects ingest.
      (void)system_.WalFlush();
      // Continuous queries: hand the epoch's committed changes to the
      // publisher's matcher thread. In coupled mode this stays after the
      // physical flush, so a pushed notification never describes a change
      // a crash could un-commit. Under async durability notifications are
      // read-your-*execution* by design — subscribers who need the
      // stronger contract gate on the kDurable watermark (DurableThrough /
      // WaitDurable), which is the whole point of the split.
      if (publisher_ != nullptr) publisher_->SealEpoch();
      VersionId cur = system_.GetCurrentVersion();
      // Client-thread-readable commit watermark (DurableThrough's no-WAL
      // fallback; version_ itself is coordinator-private and non-atomic).
      sealed_version_.store(cur, std::memory_order_release);
      if (cur > options_.history_window) {
        system_.ReleaseHistory(cur - options_.history_window);
      }
      {
        ScopedTimer t(sched_timer_);
        scheduler_.OnEpochEnd(epoch_qualified_, epoch_missed_);
      }
      if (options_.record_epoch_stats && (epoch_safe + epoch_unsafe) > 0) {
        epoch_stats_.push_back(EpochStat{WallTimer::NowNanos(), epoch_safe,
                                         epoch_unsafe,
                                         scheduler_.unsafe_threshold(),
                                         epoch_missed_});
      }
      epoch_qualified_ = 0;
      epoch_missed_ = 0;
      if (claimed_this_epoch > 0 && epoch_start_ns != 0) {
        // EWMA of per-update processing cost (first claim -> epoch end,
        // over the updates the epoch claimed); feeds
        // SuggestRetryAfterMicros. Idle epochs, and the idle prefix of
        // this one, are excluded — they would drag the estimate toward the
        // nap length instead of the drain rate.
        int64_t per_op = (WallTimer::NowNanos() - epoch_start_ns) /
                         static_cast<int64_t>(claimed_this_epoch);
        int64_t avg = avg_op_ns_.load(std::memory_order_relaxed);
        avg_op_ns_.store(avg == 0 ? per_op : avg + (per_op - avg) / 8,
                         std::memory_order_relaxed);
      }

      if (should_stop && claimed_this_epoch == 0 && !former_.HasDeferred()) {
        return;
      }
    }
  }

  /// The safe phase (paper Section 4): per-owner apply lanes, lock-free.
  /// Every safe update's out-half goes to the lane owning src and its
  /// in-half to the lane owning dst, in claim order — the store partitions
  /// under a partitioned store, `v % (kLanesPerWorker * pool width)`
  /// otherwise. Each vertex thus has one writer that sees its updates in
  /// claim order, so no lock is needed and the final state (adjacency
  /// content and order, and with it classification and results) is
  /// bit-identical to a serial replay at any lane count.
  ///
  /// An epoch of at most kInlineSafeUpdates updates applies its halves
  /// inline on the coordinator, in claim order, and answers each claim as
  /// soon as its halves are applied: a fork-join across the pool costs more
  /// than a handful of O(1) store updates. A larger epoch queues the halves
  /// on their lanes, applies the lanes in one ParallelFor, and answers every
  /// claim after the join — a response must imply the update is applied.
  /// Stats are coordinator-side bookkeeping (LatencyRecorder is not atomic)
  /// and come last.
  void SafePhase(std::vector<Claimed>& safe_batch,
                 std::span<AsyncGroup> async_safe, uint64_t n_updates) {
    const VersionId ver = system_.GetCurrentVersion();
    const bool inline_apply = n_updates <= kInlineSafeUpdates;
    uint64_t cross = 0;
    auto place = [&](const Update& u) {
      int halves = 0;
      lane_router_.ForEachOwningShard(u.edge, [&](uint32_t l) {
        if (inline_apply) {
          ApplyHalf(l, u);
        } else {
          lanes_[l].push_back(u);
        }
        ++halves;
      });
      if (halves > 1) ++cross;  // the dst owner applies the in-half
    };
    auto respond = [&](Claimed& c) {
      c.latency_ns = RespondOnly(*c.session, ver);
    };
    auto complete = [&](AsyncGroup& g) {
      g.latency_ns = WallTimer::NowNanos() - g.claim_ns;
      AsyncComplete(*g.session, ver, g.updates.size());
    };

    {
      // Wall time of the phase, not the sum of per-lane apply times.
      ScopedTimer t(system_.upd_eng_timer());
      for (auto& lane : lanes_) lane.clear();
      for (Claimed& c : safe_batch) {
        Session& s = *c.session;
        if (s.is_txn_) {
          for (const Update& u : s.txn_) place(u);
        } else {
          place(s.update_);
        }
        if (inline_apply) respond(c);
      }
      for (AsyncGroup& g : async_safe) {
        for (const Update& u : g.updates) place(u);
        if (inline_apply) complete(g);
      }
      if (!inline_apply) {
        pool_->ParallelFor(lanes_.size(), 1,
                           [this](size_t, uint64_t b, uint64_t e) {
                             for (uint64_t l = b; l < e; ++l) {
                               uint32_t lane = static_cast<uint32_t>(l);
                               for (const Update& u : lanes_[lane]) {
                                 ApplyHalf(lane, u);
                               }
                             }
                           });
        for (Claimed& c : safe_batch) respond(c);
        for (AsyncGroup& g : async_safe) complete(g);
      }
    }

    // Lane halves are the shard layer's cross-shard halves only when the
    // lanes are the store partitions.
    if constexpr (kShardedStore) {
      cross_shard_ops_.fetch_add(cross, std::memory_order_relaxed);
    }
    for (const Claimed& c : safe_batch) RecordStats(c, /*safe=*/true);
    for (const AsyncGroup& g : async_safe) {
      RecordAsyncStats(g.latency_ns, g.updates.size(), /*safe=*/true);
    }
  }

  /// Applies lane `l`'s halves of one update: through the owning partition
  /// of a partitioned store, or the unpartitioned store's half-owning apply.
  void ApplyHalf(uint32_t l, const Update& u) {
    if constexpr (kShardedStore) {
      system_.store().ApplyToShard(l, u);
    } else {
      system_.store().ApplyOwned(lane_router_.OwnershipOf(l), u);
    }
  }

  /// Fail-stop rejection of one epoch's claimed work: every blocking
  /// session is answered kInvalidVersion (the transports map it to
  /// kWalError via wal_failed()), pipelined completions are counted so
  /// DrainAsync never hangs — nothing executes, nothing reaches the WAL,
  /// and the scheduler/stat state is untouched. Claim order is preserved
  /// so per-session FIFO semantics survive the shutdown.
  void RejectEpoch() {
    VersionId cur = system_.GetCurrentVersion();
    for (Claimed& c : former_.safe_batch()) {
      RespondOnly(*c.session, kInvalidVersion);
    }
    for (AsyncGroup& g : former_.async_safe()) {
      AsyncComplete(*g.session, cur, g.updates.size());
    }
    auto& unsafe_queue = former_.unsafe_queue();
    while (!unsafe_queue.empty()) {
      Claimed c = unsafe_queue.front();
      unsafe_queue.pop_front();
      if (c.is_async) {
        AsyncComplete(*c.session, cur, 1);
      } else {
        RespondOnly(*c.session, kInvalidVersion);
      }
    }
  }

  VersionId ApplyUnsafeOne(const Update& u) {
    switch (u.kind) {
      case UpdateKind::kInsertVertex: {
        VersionId ver = system_.InsVertex(nullptr);
        return ver;
      }
      case UpdateKind::kDeleteVertex:
        return system_.DelVertex(u.edge.src);
      default:
        return system_.ApplyUnsafe(u);
    }
  }

  // Unblocks the client; thread-safe. Returns the latency it observed.
  int64_t RespondOnly(Session& s, VersionId version) {
    int64_t submit = s.submit_ns_;
    s.result_ = version;
    s.state_.store(Session::kDone, std::memory_order_release);
    return WallTimer::NowNanos() - submit;
  }

  // Completion for pipelined updates: publish the version before bumping
  // the counter DrainAsync waits on.
  void AsyncComplete(Session& s, VersionId version, uint64_t n) {
    s.async_last_version_.store(version, std::memory_order_release);
    s.async_completed_.fetch_add(n, std::memory_order_release);
  }

  void RecordAsyncStats(int64_t latency_ns, uint64_t n, bool safe) {
    completed_ops_.fetch_add(n, std::memory_order_relaxed);
    (safe ? safe_ops_ : unsafe_ops_).fetch_add(n, std::memory_order_relaxed);
    for (uint64_t i = 0; i < n; ++i) {
      latencies_.RecordNanos(latency_ns);
      if (latency_ns <= scheduler_.latency_target_ns()) {
        epoch_qualified_++;
      } else {
        epoch_missed_++;
      }
    }
  }

  // Coordinator-only bookkeeping. Uses claim-time captures, never the
  // session (the client owns it again once responded).
  void RecordStats(const Claimed& c, bool safe) {
    latencies_.RecordNanos(c.latency_ns);
    completed_ops_.fetch_add(c.n_updates, std::memory_order_relaxed);
    (safe ? safe_ops_ : unsafe_ops_)
        .fetch_add(c.n_updates, std::memory_order_relaxed);
    if (c.is_txn) txn_ops_.fetch_add(1, std::memory_order_relaxed);
    // Transactions get a proportionally larger budget (Section 6.2: "if the
    // latency exceeds the transaction size multiplied by 20 ms, ... timeout").
    if (c.latency_ns <= scheduler_.latency_target_ns() *
                            static_cast<int64_t>(c.n_updates)) {
      epoch_qualified_++;
    } else {
      epoch_missed_++;
    }
  }

  /// The safe phase's lane map: the store partitions under a partitioned
  /// store, else kLanesPerWorker modulo lanes per pool worker. Both place
  /// halves through ShardRouter::ForEachOwningShard.
  static ShardRouter MakeLaneRouter(RisGraph<Store>& system,
                                    const ThreadPool& pool) {
    if constexpr (kShardedStore) {
      return system.store().router();
    } else {
      return ShardRouter(
          kLanesPerWorker * static_cast<uint32_t>(pool.num_threads()),
          system.store().options().keep_transpose);
    }
  }

  /// Ingest-ring shard count: the explicit knob when set; under a
  /// genuinely partitioned store (N > 1) the default aligns rings to store
  /// shards (one ingest shard feeding each engine partition), else the
  /// historical 4 — an N = 1 sharded store must not quarter ring capacity.
  static size_t RingShards(RisGraph<Store>& system,
                           const ServiceOptions& options) {
    if (options.ingest_shards != 0) return options.ingest_shards;
    if constexpr (kShardedStore) {
      if (system.store().router().Partitioned()) {
        return system.store().num_shards();
      }
    }
    return 4;
  }

  RisGraph<Store>& system_;
  ServiceOptions options_;
  Scheduler scheduler_;
  ThreadPool* pool_;
  ShardedIngestQueue queue_;
  BatchFormer<Store> former_;
  /// Continuous-query stage on the commit path (nullptr = no subscribers).
  ChangePublisher* publisher_ = nullptr;
  /// Half placement over the safe phase's apply lanes (MakeLaneRouter).
  ShardRouter lane_router_;
  /// The safe phase's per-lane halves, in claim order (reused scratch).
  std::vector<std::vector<Update>> lanes_;

  std::vector<std::unique_ptr<Session>> sessions_;
  std::thread coordinator_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  std::atomic<uint64_t> completed_ops_{0};
  std::atomic<uint64_t> safe_ops_{0};
  std::atomic<uint64_t> unsafe_ops_{0};
  std::atomic<uint64_t> txn_ops_{0};
  std::atomic<uint64_t> cross_shard_ops_{0};
  /// EWMA of per-update processing cost over claiming epochs; with the
  /// ring capacity it prices a full-ring drain for the kBusy retry hint.
  std::atomic<int64_t> avg_op_ns_{0};
  /// Last version a completed epoch committed (client-thread readable;
  /// DurableThrough's no-WAL fallback).
  std::atomic<VersionId> sealed_version_{0};
  size_t ring_capacity_ = 0;
  uint64_t epoch_qualified_ = 0;
  uint64_t epoch_missed_ = 0;
  LatencyRecorder latencies_;
  std::vector<EpochStat> epoch_stats_;
  ComponentTimer sched_timer_;
  ComponentTimer network_timer_;
};

}  // namespace risgraph

#endif  // RISGRAPH_INGEST_EPOCH_PIPELINE_H_

#ifndef RISGRAPH_INGEST_SESSION_H_
#define RISGRAPH_INGEST_SESSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "common/types.h"
#include "ingest/ingest_queue.h"

namespace risgraph {

class RwTxn;

/// One client session: a FIFO channel into the ingest plane (the
/// evaluation's emulated users "repeatedly send a single update and wait for
/// the response", Section 6.2 — a closed loop, so per-session FIFO order and
/// sequential consistency hold trivially for the blocking lane).
///
/// Sessions are handed out by the epoch pipeline (via the service façade) and
/// pinned to one ingest shard; every submission is pushed into that shard's
/// ring buffer, so the coordinator never scans sessions or takes a lock a
/// producer holds.
class Session {
 public:
  /// Blocking: submits one update and waits for its result version.
  VersionId Submit(const Update& update) {
    update_ = update;
    is_txn_ = false;
    is_rw_ = false;
    return SubmitAndWait();
  }

  /// Blocking: submits an atomic batch (paper: txn_updates).
  VersionId SubmitTxn(std::vector<Update> txn) {
    txn_ = std::move(txn);
    is_txn_ = true;
    is_rw_ = false;
    return SubmitAndWait();
  }

  /// Blocking: submits a read-write transaction (Section 4). The body runs
  /// atomically in the sequential lane, blocking other sessions — "just
  /// long-term unsafe updates in the epoch loops".
  VersionId SubmitReadWrite(std::function<void(RwTxn&)> body) {
    rw_body_ = std::move(body);
    is_txn_ = false;
    is_rw_ = true;
    return SubmitAndWait();
  }

  /// Non-blocking pipelined submission (Figure 9's session streams): the
  /// update rides the ingest ring; the batch former claims session prefixes
  /// in FIFO order, and everything queued behind an unsafe update becomes
  /// *next-epoch* — re-classified only after the unsafe one executed, since
  /// it may change their classification. Same-session updates are applied
  /// in submission order even inside the parallel safe phase: its apply
  /// lanes keep claim order per vertex. A full shard ring exerts
  /// backpressure (the push blocks briefly).
  void SubmitAsync(const Update& update) {
    async_submitted_.fetch_add(1, std::memory_order_release);
    shard_->Push(IngestItem{IngestKind::kAsync, this, update});
  }

  /// Non-blocking pipelined submission (the RPC tier's kBusy path): true if
  /// the update was queued; false if the shard ring is full, in which case
  /// nothing was queued and no thread parked — the caller sheds the update
  /// (OverloadPolicy::kShed) instead of exerting backpressure. The submitted
  /// counter is bumped before the push (mirroring SubmitAsync, so completions
  /// never outrun submissions from any observer) and rolled back on failure;
  /// sessions are single-producer, so the rollback cannot race another
  /// submission on this session.
  bool TrySubmitAsync(const Update& update) {
    async_submitted_.fetch_add(1, std::memory_order_release);
    if (shard_->TryPush(IngestItem{IngestKind::kAsync, this, update})) {
      return true;
    }
    async_submitted_.fetch_sub(1, std::memory_order_release);
    return false;
  }

  /// Blocks until every SubmitAsync update has been executed; returns the
  /// result version of the last one (the service must be running).
  VersionId DrainAsync() {
    int spins = 0;
    while (async_completed_.load(std::memory_order_acquire) <
           async_submitted_.load(std::memory_order_acquire)) {
      if (++spins < 4096) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return async_last_version_.load(std::memory_order_acquire);
  }

  uint64_t async_submitted() const {
    return async_submitted_.load(std::memory_order_relaxed);
  }
  uint64_t async_completed() const {
    return async_completed_.load(std::memory_order_relaxed);
  }

  /// Last request's client-observed latency (submit to response).
  int64_t last_latency_ns() const { return last_latency_ns_; }

 private:
  template <typename>
  friend class BatchFormer;
  template <typename>
  friend class EpochPipeline;

  enum State : uint32_t { kIdle = 0, kPending = 1, kClaimed = 2, kDone = 3 };

  VersionId SubmitAndWait() {
    submit_ns_ = WallTimer::NowNanos();
    state_.store(kPending, std::memory_order_release);
    shard_->Push(IngestItem{IngestKind::kRequest, this, Update{}});
    // Spin briefly (sub-microsecond responses are common), yield a little,
    // then sleep. A long yield phase melts down with hundreds of client
    // threads on one box (the paper's clients live on a second machine), so
    // the ladder drops to timed sleeps quickly.
    int spins = 0;
    while (state_.load(std::memory_order_acquire) != kDone) {
      if (++spins < 256) {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
      } else if (spins < 512) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    last_latency_ns_ = WallTimer::NowNanos() - submit_ns_;
    state_.store(kIdle, std::memory_order_release);
    return result_;
  }

  std::atomic<uint32_t> state_{kIdle};
  Update update_;
  std::vector<Update> txn_;
  std::function<void(RwTxn&)> rw_body_;
  bool is_txn_ = false;
  bool is_rw_ = false;
  VersionId result_ = 0;
  int64_t submit_ns_ = 0;
  int64_t last_latency_ns_ = 0;

  /// The ingest shard this session produces into (set at OpenSession).
  IngestShard* shard_ = nullptr;

  // Pipelined lane (SubmitAsync / DrainAsync) completion accounting.
  std::atomic<uint64_t> async_submitted_{0};
  std::atomic<uint64_t> async_completed_{0};
  std::atomic<VersionId> async_last_version_{0};
};

}  // namespace risgraph

#endif  // RISGRAPH_INGEST_SESSION_H_

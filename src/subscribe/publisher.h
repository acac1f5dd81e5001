#ifndef RISGRAPH_SUBSCRIBE_PUBLISHER_H_
#define RISGRAPH_SUBSCRIBE_PUBLISHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "subscribe/change_sink.h"
#include "subscribe/registry.h"
#include "subscribe/subscription.h"
#include "subscribe/subscription_index.h"

namespace risgraph {

/// The bridge from epoch commit to subscribers: a pipeline stage appended to
/// EpochPipeline's commit path (EpochPipeline::AttachPublisher).
///
/// Two halves, meeting at a sealed-batch handoff:
///
///  * Coordinator side (implements ResultChangeSink). RisGraph invokes
///    OnResultsCommitted on the single-writer lane right after each result
///    version commits; the publisher flattens the modification set into
///    CommittedChange records on a coordinator-owned staging buffer — an
///    append per changed vertex, no locks, no matching. At epoch end the
///    pipeline calls SealEpoch, which moves the epoch's staging buffer into
///    the handoff queue (one lock hop, buffers recycled through a pool) and
///    wakes the matcher.
///
///  * Matcher thread. Drains sealed batches in order and runs each through
///    SubscriptionRegistry::Match (one pass over the posting-list index and
///    the watch-all lanes, under the index mutex) and then Deliver, which
///    sorts the hits into the deterministic (subscription id, change index)
///    order and enqueues them. Both run inline on this thread, off the
///    coordinator's critical path.
///
///    A subscriber storm can slow the matcher, never the epoch loop; the
///    bounded handoff is the only coupling, and it only sheds work to
///    coalescing (per-subscription), not to the pipeline.
///
/// The pipeline seals each epoch after its WAL step. With coupled
/// durability that step is the physical flush, so a subscriber can never
/// observe a change that a crash could un-commit. Under async_durability
/// the step is an O(1) Seal handoff to the flusher, so notifications are
/// read-your-execution; subscribers that need durability gate on the
/// durability watermark (see EpochPipeline's epoch end).
class ChangePublisher final : public ResultChangeSink {
 public:
  explicit ChangePublisher(SubscriptionRegistry& registry)
      : registry_(registry) {
    matcher_ = std::thread([this] { MatcherMain(); });
  }

  ~ChangePublisher() override { Stop(); }

  ChangePublisher(const ChangePublisher&) = delete;
  ChangePublisher& operator=(const ChangePublisher&) = delete;

  SubscriptionRegistry& registry() { return registry_; }

  //===--- Coordinator side ----------------------------------------------===//

  /// ResultChangeSink: stage one algorithm's committed modification set.
  /// Single-writer (RisGraph's sequential lane); must stay cheap.
  void OnResultsCommitted(uint64_t algo, VersionId version,
                          std::span<const ModifiedRecord> records,
                          std::span<const uint64_t> new_values) override {
    for (size_t i = 0; i < records.size(); ++i) {
      staging_.push_back(CommittedChange{algo, version, records[i].vertex,
                                         records[i].old_value, new_values[i]});
    }
    staged_.fetch_add(records.size(), std::memory_order_release);
  }

  /// Hands the epoch's staged changes to the matcher (EpochPipeline calls
  /// this once per epoch, after its WAL step). No-op on an idle epoch.
  void SealEpoch() {
    if (staging_.empty()) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      std::vector<CommittedChange> batch;
      if (!pool_.empty()) {
        batch = std::move(pool_.back());  // recycled, capacity retained
        pool_.pop_back();
      }
      batch.swap(staging_);
      sealed_.push_back(std::move(batch));
    }
    cv_.notify_one();
  }

  //===--- Matcher side / observers --------------------------------------===//

  /// Blocks until every change staged so far has been matched and
  /// delivered to the registry queues. A drain barrier for tests and
  /// benches — note it cannot see changes a still-running epoch has not
  /// staged yet; quiesce the pipeline (Flush/Stop) first for a full drain.
  void WaitIdle() {
    std::unique_lock<std::mutex> lk(mu_);
    // Deliberately never reads staging_ (coordinator-owned, unlocked): a
    // staged-but-unsealed change shows up as staged_ > published_.
    idle_cv_.wait(lk, [&] {
      return sealed_.empty() && !matching_ &&
             published_.load(std::memory_order_acquire) ==
                 staged_.load(std::memory_order_acquire);
    });
  }

  /// Stops the matcher after draining already-sealed batches. Called by the
  /// destructor; idempotent. Detach the pipeline first (it must not seal
  /// into a stopped publisher).
  void Stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stop_) return;
      stop_ = true;
    }
    cv_.notify_all();
    if (matcher_.joinable()) matcher_.join();
  }

  /// Changes staged by the commit hook (pre-matching).
  uint64_t staged_changes() const {
    return staged_.load(std::memory_order_relaxed);
  }
  /// Changes the matcher has run against the registry.
  uint64_t published_changes() const {
    return published_.load(std::memory_order_relaxed);
  }
  /// Sealed batches matched so far.
  uint64_t matched_batches() const {
    return matched_batches_.load(std::memory_order_relaxed);
  }
  /// Wall time the matcher spent matching + delivering (the push plane's
  /// cost meter; pairs with the registry's candidate_pairs /
  /// scan_equivalent_pairs ratio for the "is the index earning its keep"
  /// status line in examples/rpc_service.cpp).
  const ComponentTimer& match_timer() const { return match_timer_; }

 private:
  void MatcherMain() {
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      cv_.wait(lk, [&] { return stop_ || !sealed_.empty(); });
      if (sealed_.empty()) break;  // stop_ and fully drained
      std::vector<CommittedChange> batch = std::move(sealed_.front());
      sealed_.pop_front();
      matching_ = true;
      lk.unlock();
      // Registry matching runs without the handoff lock: the coordinator
      // can seal the next epoch while this one is matched.
      MatchBatch(batch);
      published_.fetch_add(batch.size(), std::memory_order_release);
      matched_batches_.fetch_add(1, std::memory_order_relaxed);
      batch.clear();
      lk.lock();
      matching_ = false;
      pool_.push_back(std::move(batch));
      idle_cv_.notify_all();
    }
  }

  /// One sealed batch through the registry. Matcher-thread only.
  void MatchBatch(std::span<const CommittedChange> changes) {
    ScopedTimer timer(match_timer_);
    registry_.Match(changes, &hits_);
    registry_.Deliver(changes, &hits_);
    hits_.clear();
  }

  SubscriptionRegistry& registry_;

  /// Coordinator-thread-owned; only SealEpoch moves it under the lock.
  std::vector<CommittedChange> staging_;

  std::mutex mu_;
  std::condition_variable cv_;       // matcher wakeups
  std::condition_variable idle_cv_;  // WaitIdle wakeups
  std::deque<std::vector<CommittedChange>> sealed_;
  std::vector<std::vector<CommittedChange>> pool_;  // recycled batch buffers
  bool stop_ = false;
  bool matching_ = false;

  std::vector<MatchHit> hits_;  // matcher-thread-owned, reused per batch

  std::atomic<uint64_t> staged_{0};
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> matched_batches_{0};
  ComponentTimer match_timer_;
  std::thread matcher_;
};

}  // namespace risgraph

#endif  // RISGRAPH_SUBSCRIBE_PUBLISHER_H_

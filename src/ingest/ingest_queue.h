#ifndef RISGRAPH_INGEST_INGEST_QUEUE_H_
#define RISGRAPH_INGEST_INGEST_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.h"

namespace risgraph {

class Session;

/// What a session pushed into the ingest plane.
enum class IngestKind : uint8_t {
  /// A blocking request (Submit / SubmitTxn / SubmitReadWrite): the payload
  /// lives in the session object, which the client parks on until the
  /// coordinator responds. One outstanding request per session (closed loop).
  kRequest,
  /// A pipelined update (SubmitAsync): the payload travels by value so the
  /// session can keep submitting while earlier updates are still in flight.
  kAsync,
};

struct IngestItem {
  IngestKind kind = IngestKind::kRequest;
  Session* session = nullptr;
  Update update;
};

/// One shard of the ingest plane: a bounded multi-producer single-consumer
/// ring buffer (Vyukov-style sequence-numbered slots). Sessions are pinned to
/// a shard, so per-shard FIFO order implies per-session FIFO order — the
/// invariant the batch former builds on. Producers never take a lock shared
/// with the coordinator; a full ring exerts backpressure by making Push spin
/// with an escalating backoff ladder.
class IngestShard {
 public:
  explicit IngestShard(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;  // round up to a power of two
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  IngestShard(const IngestShard&) = delete;
  IngestShard& operator=(const IngestShard&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// Non-blocking producer push; false when the ring is full.
  bool TryPush(const IngestItem& item) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      uint64_t seq = slot.seq.load(std::memory_order_acquire);
      int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.item = item;
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full: the slot still holds an unconsumed item
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Blocking producer push: spins briefly, yields, then sleeps — the
  /// backpressure path when producers outrun the epoch pipeline.
  void Push(const IngestItem& item) {
    int spins = 0;
    while (!TryPush(item)) {
      if (++spins < 64) {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
      } else if (spins < 256) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
  }

  /// Consumer pop (the coordinator is the only consumer, but the protocol is
  /// safe for multiple); false when the ring is empty.
  bool TryPop(IngestItem* out) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      uint64_t seq = slot.seq.load(std::memory_order_acquire);
      int64_t dif =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          *out = slot.item;
          slot.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Bulk consumer pop: pops up to `max` items into `out`, returning the
  /// count. Single-consumer only (unlike TryPop this elides the head CAS —
  /// the coordinator is the ring's one consumer, so one head store publishes
  /// the whole run). Each slot's sequence is read with an acquire load before
  /// its item is copied, and the slot is freed with a release store after.
  /// On x86 these are plain loads and stores, so the run costs no fence, and
  /// ThreadSanitizer sees every producer/consumer handoff.
  size_t TryPopBulk(IngestItem* out, size_t max) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    size_t n = 0;
    for (; n < max; ++n) {
      Slot& slot = slots_[(pos + n) & mask_];
      if (slot.seq.load(std::memory_order_acquire) != pos + n + 1) break;
      out[n] = slot.item;
      slot.seq.store(pos + n + mask_ + 1, std::memory_order_release);
    }
    if (n != 0) head_.store(pos + n, std::memory_order_relaxed);
    return n;
  }

  /// Racy size estimate (monitoring only).
  size_t ApproxSize() const {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};
    IngestItem item;
  };

  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> tail_{0};  // producers
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer
};

/// The sharded ingest plane: sessions are assigned to shards round-robin at
/// open time and always push to their own shard, so producer contention is
/// split num_shards ways while the coordinator drains all shards.
class ShardedIngestQueue {
 public:
  explicit ShardedIngestQueue(size_t num_shards, size_t shard_capacity) {
    if (num_shards == 0) num_shards = 1;
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<IngestShard>(shard_capacity));
    }
  }

  size_t num_shards() const { return shards_.size(); }

  /// The shard the i-th opened session should produce into.
  IngestShard* shard_for(size_t session_index) {
    return shards_[session_index % shards_.size()].get();
  }

  IngestShard& shard(size_t i) { return *shards_[i]; }

  /// Pops one item from any shard (rotating fairness cursor); false when
  /// every shard is empty.
  bool TryPopAny(IngestItem* out) {
    size_t n = shards_.size();
    for (size_t k = 0; k < n; ++k) {
      size_t i = (rr_ + k) % n;
      if (shards_[i]->TryPop(out)) {
        rr_ = (i + 1) % n;
        return true;
      }
    }
    return false;
  }

  /// Bulk-drains every shard into `out` (appending), up to one ring's worth
  /// per shard so a caller can consult the scheduler between passes.
  /// Single-consumer (see IngestShard::TryPopBulk). Returns the number of
  /// items drained. The caller keeps `out`'s capacity across passes — with
  /// room for the sum of ring capacities, steady state never allocates.
  size_t DrainInto(std::vector<IngestItem>& out) {
    size_t total = 0;
    size_t n = shards_.size();
    for (size_t k = 0; k < n; ++k) {
      IngestShard& shard = *shards_[(rr_ + k) % n];
      size_t budget = shard.capacity();
      while (budget > 0) {
        // Bound the staging grow by the ring's (racy) occupancy estimate so
        // an idle scan never value-initializes a full ring's worth of slots;
        // items the estimate missed are picked up by the next iteration or
        // the next pass.
        size_t want = std::min(budget, shard.ApproxSize());
        if (want == 0) break;
        size_t old = out.size();
        out.resize(old + want);
        size_t got = shard.TryPopBulk(out.data() + old, want);
        out.resize(old + got);
        total += got;
        budget -= got;
        if (got == 0) break;
      }
    }
    rr_ = n == 0 ? 0 : (rr_ + 1) % n;
    return total;
  }

  bool Empty() const {
    for (const auto& s : shards_) {
      if (s->ApproxSize() != 0) return false;
    }
    return true;
  }

 private:
  std::vector<std::unique_ptr<IngestShard>> shards_;
  size_t rr_ = 0;  // consumer-only round-robin cursor
};

}  // namespace risgraph

#endif  // RISGRAPH_INGEST_INGEST_QUEUE_H_

// The epoch packer (ingest/batch_former.h):
//   * FlatMap/FlatSet open-addressing tables — probe-collision handling,
//     O(1) generation clears, full-key comparison;
//   * IngestShard::TryPopBulk / ShardedIngestQueue::DrainInto — bulk drains
//     preserve ring FIFO through wraparound;
//   * dup-delta regression: two distinct edges engineered to collide under
//     the old 64-bit mixed DeltaKey must NOT share a duplicate-count delta
//     (the old table misclassified the deletion of a tree edge as safe);
//   * reference-checked classification: randomized multi-session streams
//     over a small key space (frequent same-key collisions in one epoch)
//     leave every result equal to a from-scratch recompute once each
//     epoch's safe groups apply — a wrong safe verdict or a dropped
//     dup-delta shows up as a stale value — and end bit-identical to a
//     serial replay of the executed order;
//   * end-to-end: the full pipeline matches a serial per-session replay
//     (FIFO effects, counters, recompute);
//   * steady-state packing performs zero heap allocations per epoch
//     (counting global allocator).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "core/algorithm_api.h"
#include "core/reference.h"
#include "ingest/batch_former.h"
#include "ingest/ingest_queue.h"
#include "parallel/thread_pool.h"
#include "runtime/risgraph.h"
#include "runtime/service.h"

// --- Counting global allocator (for the zero-allocation packing test). ----
static std::atomic<uint64_t> g_news{0};

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace risgraph {
namespace {

//===--------------------------------------------------------------------===//
// Flat hash tables
//===--------------------------------------------------------------------===//

struct WorstHash {
  uint64_t operator()(uint64_t) const { return 7; }  // everything collides
};

TEST(FlatMap, HandlesFullProbeCollisions) {
  FlatMap<uint64_t, int, WorstHash> map;
  for (uint64_t k = 0; k < 100; ++k) map[k] = static_cast<int>(k * 3);
  EXPECT_EQ(map.size(), 100u);
  for (uint64_t k = 0; k < 100; ++k) {
    int* v = map.Find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, static_cast<int>(k * 3));
  }
  EXPECT_EQ(map.Find(100), nullptr);
}

TEST(FlatMap, GenerationClearDropsEverything) {
  FlatMap<uint64_t, int, WorstHash> map;
  for (uint64_t k = 0; k < 50; ++k) map[k] = 1;
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  for (uint64_t k = 0; k < 50; ++k) EXPECT_EQ(map.Find(k), nullptr) << k;
  // Reuse after clear: stale slots from the previous generation must not
  // shadow fresh inserts.
  map[7] = 42;
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 42);
  EXPECT_EQ(map.size(), 1u);
}

struct U64Hash {
  uint64_t operator()(uint64_t k) const { return Murmur3Fmix64(k); }
};

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps) {
  FlatMap<uint64_t, int64_t, U64Hash> map;
  std::unordered_map<uint64_t, int64_t> ref;
  Rng rng(99);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3000; ++i) {
      uint64_t key = rng.NextBounded(700);  // heavy key reuse
      if (rng.NextBool(0.5)) {
        map[key]++;
        ref[key]++;
      } else {
        int64_t* v = map.Find(key);
        auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end()) << key;
        if (v != nullptr) ASSERT_EQ(*v, it->second) << key;
      }
    }
    ASSERT_EQ(map.size(), ref.size());
    map.Clear();
    ref.clear();
  }
}

TEST(FlatSet, InsertContainsClear) {
  FlatSet<uint64_t, U64Hash> set;
  EXPECT_TRUE(set.Insert(3));
  EXPECT_FALSE(set.Insert(3));
  EXPECT_TRUE(set.Contains(3));
  EXPECT_FALSE(set.Contains(4));
  set.Clear();
  EXPECT_FALSE(set.Contains(3));
  EXPECT_TRUE(set.Insert(3));
}

//===--------------------------------------------------------------------===//
// Bulk ring drains
//===--------------------------------------------------------------------===//

IngestItem Tagged(uint64_t seq) {
  IngestItem item;
  item.kind = IngestKind::kAsync;
  item.update = Update::InsertEdge(0, seq, 0);
  return item;
}

TEST(IngestRingBulk, PopsInFifoOrderThroughWraparound) {
  IngestShard ring(8);
  IngestItem buf[8];
  EXPECT_EQ(ring.TryPopBulk(buf, 8), 0u);

  uint64_t pushed = 0;
  uint64_t popped = 0;
  Rng rng(5);
  while (popped < 5000) {
    uint64_t burst = 1 + rng.NextBounded(8);
    for (uint64_t i = 0; i < burst; ++i) {
      if (!ring.TryPush(Tagged(pushed))) break;
      pushed++;
    }
    size_t want = 1 + rng.NextBounded(8);
    size_t got = ring.TryPopBulk(buf, want);
    ASSERT_LE(got, want);
    for (size_t i = 0; i < got; ++i) {
      ASSERT_EQ(buf[i].update.edge.dst, popped);  // strict FIFO
      popped++;
    }
  }
  while (size_t got = ring.TryPopBulk(buf, 8)) {
    for (size_t i = 0; i < got; ++i) {
      ASSERT_EQ(buf[i].update.edge.dst, popped);
      popped++;
    }
  }
  EXPECT_EQ(pushed, popped);
}

TEST(IngestRingBulk, BulkAndSinglePopsInterop) {
  IngestShard ring(8);
  for (uint64_t i = 0; i < 6; ++i) ASSERT_TRUE(ring.TryPush(Tagged(i)));
  IngestItem buf[4];
  ASSERT_EQ(ring.TryPopBulk(buf, 3), 3u);
  EXPECT_EQ(buf[2].update.edge.dst, 2u);
  IngestItem one;
  ASSERT_TRUE(ring.TryPop(&one));
  EXPECT_EQ(one.update.edge.dst, 3u);
  ASSERT_EQ(ring.TryPopBulk(buf, 4), 2u);
  EXPECT_EQ(buf[0].update.edge.dst, 4u);
  EXPECT_EQ(buf[1].update.edge.dst, 5u);
  // Freed slots are reusable.
  for (uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(ring.TryPush(Tagged(10 + i)));
  EXPECT_FALSE(ring.TryPush(Tagged(99)));
}

TEST(IngestRingBulk, DrainIntoCollectsAllShards) {
  ShardedIngestQueue queue(3, 8);
  for (uint64_t s = 0; s < 3; ++s) {
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(queue.shard(s).TryPush(Tagged(s * 100 + i)));
    }
  }
  std::vector<IngestItem> out;
  EXPECT_EQ(queue.DrainInto(out), 12u);
  EXPECT_EQ(out.size(), 12u);
  // Per-shard FIFO survives (shards appear as contiguous runs).
  std::vector<uint64_t> next{0, 0, 0};
  for (const IngestItem& item : out) {
    uint64_t shard = item.update.edge.dst / 100;
    ASSERT_EQ(item.update.edge.dst % 100, next[shard]);
    next[shard]++;
  }
  EXPECT_TRUE(queue.Empty());
}

//===--------------------------------------------------------------------===//
// Packing harness: drives a BatchFormer the way the epoch pipeline does,
// but deterministically on the test thread (pushes happen before packing).
//===--------------------------------------------------------------------===//

struct VerdictRec {
  size_t session = 0;
  Update update;
  bool safe = false;

  friend bool operator==(const VerdictRec&, const VerdictRec&) = default;
};

class PackHarness {
 public:
  PackHarness(RisGraph<>& sys, size_t num_sessions, size_t shards,
              size_t shard_capacity)
      : sys_(sys),
        queue_(shards, shard_capacity),
        former_(sys, queue_),
        sessions_(new Session[num_sessions]) {}

  bool PushAsync(size_t session, const Update& u) {
    return queue_.shard(session % queue_.num_shards())
        .TryPush(IngestItem{IngestKind::kAsync, &sessions_[session], u});
  }

  /// One epoch: pack everything claimable, then execute safe groups followed
  /// by the unsafe lane (the pipeline's order). Returns items claimed.
  uint64_t RunEpoch(std::vector<VerdictRec>* log) {
    uint64_t found = RunEpochPackOnly();
    ExecutePending(log);
    return found;
  }

  /// Just the pack path (BeginEpoch + PackOnce) — the region the
  /// zero-allocation test measures.
  uint64_t RunEpochPackOnly() {
    former_.BeginEpoch();
    wal_.clear();
    return former_.PackOnce(wal_);
  }

  void ExecutePending(std::vector<VerdictRec>* log = nullptr) {
    ApplySafeGroups(log);
    DrainUnsafe(log);
  }

  void ApplySafeGroups(std::vector<VerdictRec>* log) {
    for (auto& g : former_.async_safe()) {
      for (const Update& u : g.updates) {
        if (log != nullptr) log->push_back({Index(g.session), u, true});
        sys_.ApplySafeToStore(u);
      }
    }
  }

  void DrainUnsafe(std::vector<VerdictRec>* log) {
    auto& unsafe_queue = former_.unsafe_queue();
    while (!unsafe_queue.empty()) {
      auto c = unsafe_queue.front();
      unsafe_queue.pop_front();
      if (log != nullptr) {
        log->push_back({Index(c.session), c.async_update, false});
      }
      sys_.ApplyUnsafe(c.async_update);
    }
  }

  bool HasDeferred() const { return former_.HasDeferred(); }

 private:
  size_t Index(Session* s) const { return static_cast<size_t>(s - &sessions_[0]); }

  RisGraph<>& sys_;
  ShardedIngestQueue queue_;
  BatchFormer<DefaultGraphStore> former_;
  std::vector<Update> wal_;
  std::unique_ptr<Session[]> sessions_;
};

RisGraphOptions NoHistory() {
  RisGraphOptions o;
  o.keep_history = false;
  return o;
}

//===--------------------------------------------------------------------===//
// Dup-delta collision regression
//===--------------------------------------------------------------------===//

// The pre-flat-table delta key: a 64-bit mix of (src, dst, weight) used
// directly as the map key, with no collision handling. Reproduced here to
// engineer a colliding edge pair.
uint64_t OldDeltaKey(const Edge& e) {
  uint64_t k = e.src * 0x9e3779b97f4a7c15ULL;
  k ^= e.dst + 0x9e3779b97f4a7c15ULL + (k << 6) + (k >> 2);
  k ^= e.weight + 0x517cc1b727220a95ULL + (k << 6) + (k >> 2);
  return k;
}

// The mix is invertible in the weight term: pick any (src, dst), then solve
// for the weight that lands on the target key.
Edge CollidingEdge(VertexId src, VertexId dst, const Edge& target) {
  uint64_t k = src * 0x9e3779b97f4a7c15ULL;
  k ^= dst + 0x9e3779b97f4a7c15ULL + (k << 6) + (k >> 2);
  uint64_t w =
      (k ^ OldDeltaKey(target)) - 0x517cc1b727220a95ULL - (k << 6) - (k >> 2);
  return Edge{src, dst, w};
}

TEST(IngestPack, DupDeltaKeysOnFullTupleNotHash) {
  // A safe insertion of `collider` lands a +1 delta in the epoch table; the
  // deletion of tree edge 0->1 (store count 1, BFS depends on it) must still
  // classify unsafe. Under the old hashed key the two edges shared a slot,
  // the deletion saw duplicate count 1+1=2, skipped the tree-edge check, and
  // was misclassified safe — deleting the edge from the store while BFS kept
  // stale results.
  const Edge tree{0, 1, 1};
  const Edge collider = CollidingEdge(2, 3, tree);
  ASSERT_EQ(OldDeltaKey(collider), OldDeltaKey(tree));
  ASSERT_NE(collider, tree);

  RisGraph<> sys(4, NoHistory());
  size_t bfs = sys.AddAlgorithm<Bfs>(0);
  sys.LoadGraph({tree});
  sys.InitializeResults();

  PackHarness h(sys, /*sessions=*/1, /*shards=*/1, /*capacity=*/16);
  ASSERT_TRUE(h.PushAsync(0, Update::InsertEdge(collider.src, collider.dst,
                                                collider.weight)));
  ASSERT_TRUE(
      h.PushAsync(0, Update::DeleteEdge(tree.src, tree.dst, tree.weight)));

  std::vector<VerdictRec> log;
  EXPECT_EQ(h.RunEpoch(&log), 2u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].safe) << "insert of the colliding edge is safe";
  EXPECT_FALSE(log[1].safe)
      << "deletion of the last duplicate of a tree edge must be unsafe "
         "even when another edge collides with it in the delta table";

  // The unsafe lane recomputed: results match a from-scratch reference.
  auto ref = ReferenceCompute<Bfs>(sys.store(), 0);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(sys.GetValue(bfs, v), ref[v]) << v;
  }
}

//===--------------------------------------------------------------------===//
// Reference-checked classification under same-key collisions
//===--------------------------------------------------------------------===//

// Safe updates cannot change any result, so once an epoch's safe groups are
// in the store (and before its unsafe lane runs) every value must still
// equal a from-scratch recompute over that store. A safe verdict on an
// update that does change a result — including a deletion that missed a
// preceding same-key delta and so did not see it removes the last
// duplicate of a tree edge — leaves a stale value behind.
TEST(IngestPack, VerdictsKeepResultsEqualToReference) {
  constexpr size_t kSessions = 4;
  constexpr uint64_t kVertices = 16;
  constexpr Weight kMaxWeight = 2;
  constexpr int kEpochs = 40;
  constexpr int kPerEpoch = 200;
  const std::vector<Edge> preload{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 4, 2}};

  for (uint64_t seed : {11u, 22u, 33u}) {
    RisGraph<> sys(kVertices, NoHistory());
    size_t bfs = sys.AddAlgorithm<Bfs>(0);
    size_t sssp = sys.AddAlgorithm<Sssp>(0);
    sys.LoadGraph(preload);
    sys.InitializeResults();
    PackHarness h(sys, kSessions, 2, 1024);

    auto expect_reference = [&](const char* where) {
      auto bfs_ref = ReferenceCompute<Bfs>(sys.store(), 0);
      auto sssp_ref = ReferenceCompute<Sssp>(sys.store(), 0);
      for (VertexId v = 0; v < kVertices; ++v) {
        ASSERT_EQ(sys.GetValue(bfs, v), bfs_ref[v]) << where << " bfs v " << v;
        ASSERT_EQ(sys.GetValue(sssp, v), sssp_ref[v])
            << where << " sssp v " << v;
      }
    };

    Rng rng(seed);
    std::vector<VerdictRec> executed;  // every update, in execution order
    uint64_t safe_seen = 0;
    uint64_t unsafe_seen = 0;
    auto run_epoch = [&] {
      std::vector<VerdictRec> log;
      h.RunEpochPackOnly();
      h.ApplySafeGroups(&log);
      expect_reference("after safe groups");
      h.DrainUnsafe(&log);
      expect_reference("after unsafe lane");
      for (const VerdictRec& r : log) (r.safe ? safe_seen : unsafe_seen)++;
      executed.insert(executed.end(), log.begin(), log.end());
    };

    for (int e = 0; e < kEpochs; ++e) {
      for (int i = 0; i < kPerEpoch; ++i) {
        size_t c = rng.NextBounded(kSessions);
        VertexId a = rng.NextBounded(kVertices);
        VertexId b = rng.NextBounded(kVertices);
        Weight w = 1 + rng.NextBounded(kMaxWeight);
        // Small key space: same-key collisions within an epoch are common,
        // exercising the dup-delta table. Occasionally insert and
        // immediately delete the same key through the same session.
        Update u = rng.NextBool(0.55) ? Update::InsertEdge(a, b, w)
                                      : Update::DeleteEdge(a, b, w);
        ASSERT_TRUE(h.PushAsync(c, u));
        if (u.kind == UpdateKind::kInsertEdge && rng.NextBool(0.3)) {
          ASSERT_TRUE(h.PushAsync(c, Update::DeleteEdge(a, b, w)));
          ++i;
        }
      }
      run_epoch();
    }
    // Drain parked (next-epoch) items.
    for (int e = 0; e < 64 && h.HasDeferred(); ++e) run_epoch();
    ASSERT_FALSE(h.HasDeferred());

    // The randomized mix must have exercised both classes.
    EXPECT_GT(safe_seen, 0u);
    EXPECT_GT(unsafe_seen, 0u);

    // A serial replay of the executed order through the Interactive API
    // (classify + apply one update at a time) ends in the same store and
    // the same results.
    RisGraph<> oracle(kVertices, NoHistory());
    oracle.AddAlgorithm<Bfs>(0);
    oracle.AddAlgorithm<Sssp>(0);
    oracle.LoadGraph(preload);
    oracle.InitializeResults();
    for (const VerdictRec& r : executed) {
      const Edge& e = r.update.edge;
      r.update.kind == UpdateKind::kInsertEdge
          ? oracle.InsEdge(e.src, e.dst, e.weight)
          : oracle.DelEdge(e.src, e.dst, e.weight);
    }
    for (VertexId a = 0; a < kVertices; ++a) {
      for (VertexId b = 0; b < kVertices; ++b) {
        for (Weight w = 1; w <= kMaxWeight; ++w) {
          ASSERT_EQ(sys.store().EdgeCount(a, EdgeKey{b, w}),
                    oracle.store().EdgeCount(a, EdgeKey{b, w}))
              << a << "->" << b << " w" << w;
        }
      }
    }
    for (size_t algo = 0; algo < 2; ++algo) {
      for (VertexId v = 0; v < kVertices; ++v) {
        ASSERT_EQ(sys.GetValue(algo, v), oracle.GetValue(algo, v))
            << "algo " << algo << " v " << v;
      }
    }
  }
}

//===--------------------------------------------------------------------===//
// End-to-end: full pipeline
//===--------------------------------------------------------------------===//

TEST(IngestPack, PipelineMatchesSerialReplay) {
  constexpr uint64_t kBlock = 16;
  constexpr int kSessions = 6;  // 3 pipelined + 3 blocking
  constexpr uint64_t kVertices = 1 + kSessions * kBlock;
  constexpr int kOpsPerSession = 600;

  RisGraph<> sys(kVertices);
  size_t bfs = sys.AddAlgorithm<Bfs>(0);
  std::vector<Edge> preload;
  for (int c = 0; c < kSessions; ++c) {
    preload.push_back(Edge{0, 1 + static_cast<uint64_t>(c) * kBlock, 1});
  }
  sys.LoadGraph(preload);
  sys.InitializeResults();

  ThreadPool pool(4);  // real fan-out even on small CI machines
  ServiceOptions opt;
  opt.ingest_shards = 2;
  opt.ingest_shard_capacity = 256;
  RisGraphService<> service(sys, opt, &pool);
  std::vector<Session*> sessions;
  for (int i = 0; i < kSessions; ++i) sessions.push_back(service.OpenSession());

  std::vector<std::vector<Update>> recorded(kSessions);
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> txns{0};
  auto block_vertex = [&](int c, uint64_t off) {
    return 1 + static_cast<uint64_t>(c) * kBlock + off % kBlock;
  };

  service.Start();
  std::vector<std::thread> clients;
  for (int c = 0; c < kSessions / 2; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(101 + c);
      Session* s = sessions[c];
      auto& rec = recorded[c];
      for (int i = 0; i < kOpsPerSession; ++i) {
        VertexId a = block_vertex(c, rng.NextBounded(kBlock));
        VertexId b = block_vertex(c, rng.NextBounded(kBlock));
        Weight w = 1 + rng.NextBounded(2);
        Update ins = Update::InsertEdge(a, b, w);
        rec.push_back(ins);
        s->SubmitAsync(ins);
        if (rng.NextBool(0.6)) {
          Update del = Update::DeleteEdge(a, b, w);
          rec.push_back(del);
          s->SubmitAsync(del);
        }
      }
      submitted.fetch_add(rec.size());
      s->DrainAsync();
    });
  }
  for (int k = 0; k < kSessions - kSessions / 2; ++k) {
    int c = kSessions / 2 + k;
    clients.emplace_back([&, c] {
      Rng rng(202 + c);
      Session* s = sessions[c];
      auto& rec = recorded[c];
      for (int i = 0; i < kOpsPerSession; ++i) {
        if (rng.NextBool(0.3)) {
          size_t txn_size = 2 + rng.NextBounded(3);
          std::vector<Update> txn;
          for (size_t t = 0; t < txn_size; ++t) {
            VertexId a = block_vertex(c, rng.NextBounded(kBlock));
            VertexId b = block_vertex(c, rng.NextBounded(kBlock));
            Weight w = 1 + rng.NextBounded(2);
            txn.push_back(rng.NextBool(0.6) ? Update::InsertEdge(a, b, w)
                                            : Update::DeleteEdge(a, b, w));
          }
          for (const Update& u : txn) rec.push_back(u);
          submitted.fetch_add(txn.size());
          txns.fetch_add(1);
          s->SubmitTxn(std::move(txn));
        } else {
          VertexId a = block_vertex(c, rng.NextBounded(kBlock));
          VertexId b = block_vertex(c, rng.NextBounded(kBlock));
          Weight w = 1 + rng.NextBounded(2);
          Update u = rng.NextBool(0.6) ? Update::InsertEdge(a, b, w)
                                       : Update::DeleteEdge(a, b, w);
          rec.push_back(u);
          submitted.fetch_add(1);
          s->Submit(u);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  service.Stop();

  EXPECT_EQ(service.completed_ops(), submitted.load());
  EXPECT_EQ(service.pipeline().txn_ops(), txns.load());
  EXPECT_GT(service.safe_ops(), 0u);
  EXPECT_GT(service.unsafe_ops(), 0u);

  // Serial per-session replay oracle (blocks are disjoint, so only
  // per-session order matters — exactly what the packer must preserve).
  RisGraph<> oracle(kVertices);
  oracle.AddAlgorithm<Bfs>(0);
  oracle.LoadGraph(preload);
  oracle.InitializeResults();
  for (int c = 0; c < kSessions; ++c) {
    for (const Update& u : recorded[c]) {
      u.kind == UpdateKind::kInsertEdge
          ? oracle.InsEdge(u.edge.src, u.edge.dst, u.edge.weight)
          : oracle.DelEdge(u.edge.src, u.edge.dst, u.edge.weight);
    }
  }
  for (int c = 0; c < kSessions; ++c) {
    for (uint64_t i = 0; i < kBlock; ++i) {
      for (uint64_t j = 0; j < kBlock; ++j) {
        VertexId a = block_vertex(c, i);
        VertexId b = block_vertex(c, j);
        for (Weight w = 1; w <= 2; ++w) {
          ASSERT_EQ(sys.store().EdgeCount(a, EdgeKey{b, w}),
                    oracle.store().EdgeCount(a, EdgeKey{b, w}))
              << "session " << c << " edge " << a << "->" << b << " w" << w;
        }
      }
    }
  }
  auto ref = ReferenceCompute<Bfs>(sys.store(), 0);
  for (VertexId v = 0; v < kVertices; ++v) {
    ASSERT_EQ(sys.GetValue(bfs, v), ref[v]) << v;
  }
}

//===--------------------------------------------------------------------===//
// Packer backpressure
//===--------------------------------------------------------------------===//

// Many all-unsafe pipelined writers pre-pushed into the ring before the
// coordinator starts are the mega-epoch worst case: session freezing caps
// each session at one unsafe claim per epoch, but one ring drain still
// claims one unsafe from EVERY session — with enough sessions the epoch's
// sequential lane runs arbitrarily long. With unsafe_backlog_multiple set,
// no epoch may claim more than multiple x threshold unsafe updates — the
// rest of the stage parks, in claim order, for later epochs. Either way
// the end state (FIFO effects, counters, results) must be identical.
//
// Each session grows its own chain off a preloaded reachable base, so
// every claimed insert extends the BFS tree (=> unsafe) and sessions
// cannot interfere with each other's verdicts.
TEST(IngestPack, BackpressureBoundsUnsafeClaimsPerEpoch) {
  constexpr int kSessions = 64;
  constexpr uint64_t kBlock = 33;  // chain base + kPerSession extensions
  constexpr uint64_t kPerSession = 32;
  constexpr uint64_t kVertices = 1 + kSessions * kBlock;
  constexpr uint64_t kOps = kSessions * kPerSession;

  ThreadPool pool(2);
  auto run = [&](uint64_t multiple) {
    RisGraph<> sys(kVertices);
    size_t bfs = sys.AddAlgorithm<Bfs>(0);
    std::vector<Edge> preload;
    for (int c = 0; c < kSessions; ++c) {
      preload.push_back(Edge{0, 1 + static_cast<uint64_t>(c) * kBlock, 1});
    }
    sys.LoadGraph(preload);
    sys.InitializeResults();

    ServiceOptions opt;
    opt.ingest_shards = 1;
    opt.ingest_shard_capacity = 4096;  // the whole stream fits one ring
    opt.record_epoch_stats = true;
    opt.scheduler.initial_threshold = 8;
    opt.scheduler.adjust_every_epochs = 1 << 30;  // freeze the threshold
    opt.unsafe_backlog_multiple = multiple;
    RisGraphService<> service(sys, opt, &pool);
    std::vector<Session*> sessions;
    for (int c = 0; c < kSessions; ++c) {
      sessions.push_back(service.OpenSession());
    }
    for (uint64_t i = 0; i < kPerSession; ++i) {
      for (int c = 0; c < kSessions; ++c) {
        VertexId base = 1 + static_cast<uint64_t>(c) * kBlock;
        sessions[c]->SubmitAsync(
            Update::InsertEdge(base + i, base + i + 1, 1));
      }
    }
    service.Start();
    for (Session* s : sessions) s->DrainAsync();
    service.Stop();

    EXPECT_EQ(service.completed_ops(), kOps);
    EXPECT_EQ(service.unsafe_ops(), kOps);
    EXPECT_EQ(service.safe_ops(), 0u);
    auto ref = ReferenceCompute<Bfs>(sys.store(), 0);
    for (VertexId v = 0; v < kVertices; ++v) {
      EXPECT_EQ(sys.GetValue(bfs, v), ref[v]) << v;
    }

    uint64_t max_epoch_unsafe = 0;
    for (const EpochStat& e : service.epoch_stats()) {
      max_epoch_unsafe = std::max(max_epoch_unsafe, e.unsafe_ops);
    }
    return max_epoch_unsafe;
  };

  // Valve at 4x a frozen threshold of 8: no epoch claims more than 32.
  EXPECT_LE(run(4), 32u);
  // Control (valve off): one ring drain claims one unsafe from all 64
  // sessions, so some epoch runs well past the valve's bound.
  EXPECT_GT(run(0), 32u);
}

//===--------------------------------------------------------------------===//
// Zero-allocation steady state
//===--------------------------------------------------------------------===//

TEST(IngestPack, SteadyStatePackingAllocatesNothing) {
  constexpr uint64_t kVertices = 32;
  constexpr int kPerEpoch = 128;

  RisGraph<> sys(kVertices, NoHistory());
  sys.AddAlgorithm<Bfs>(0);
  sys.LoadGraph({{0, 1, 1}, {0, 2, 1}});
  sys.InitializeResults();
  PackHarness h(sys, /*sessions=*/4, /*shards=*/2, /*capacity=*/1024);

  Rng rng(7);
  // Identical per-epoch load shape: insert a key set one epoch, delete it
  // the next, so capacities stabilize during warm-up.
  std::vector<Edge> keys;
  for (int i = 0; i < kPerEpoch; ++i) {
    keys.push_back(Edge{rng.NextBounded(kVertices),
                        rng.NextBounded(kVertices),
                        1 + rng.NextBounded(2)});
  }
  auto push_epoch = [&](bool inserts) {
    for (int i = 0; i < kPerEpoch; ++i) {
      const Edge& e = keys[i];
      Update u = inserts ? Update::InsertEdge(e.src, e.dst, e.weight)
                         : Update::DeleteEdge(e.src, e.dst, e.weight);
      ASSERT_TRUE(h.PushAsync(i % 4, u));
    }
  };

  // Warm-up: let every scratch structure reach steady-state capacity.
  for (int e = 0; e < 20; ++e) {
    push_epoch(e % 2 == 0);
    h.RunEpoch(nullptr);
  }

  // Measured phase: the pack path (BeginEpoch + PackOnce, inside
  // RunEpoch before execution) must not allocate. Execution and pushes
  // stay outside the measured windows.
  uint64_t allocs = 0;
  for (int e = 0; e < 10; ++e) {
    push_epoch(e % 2 == 0);
    uint64_t before = g_news.load(std::memory_order_relaxed);
    h.RunEpochPackOnly();
    allocs += g_news.load(std::memory_order_relaxed) - before;
    h.ExecutePending();
  }
  EXPECT_EQ(allocs, 0u) << "packer allocated in steady state";
}

}  // namespace
}  // namespace risgraph

// The subscription INDEX (src/subscribe/subscription_index.h) and the
// registry built on it: posting-list bookkeeping under churn
// (counter-asserted — no stale entries), indexed-vs-scan matcher
// equivalence at the registry level, the index/table lock split under
// concurrent churn and matching, and the end-to-end contract —
// randomized subscribe/unsubscribe churn interleaved with ingest produces
// notification streams bit-identical to the unsharded in-process run at
// ingest/store shards {1,2,4} and over both transports.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/algorithm_api.h"
#include "ingest/epoch_pipeline.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "parallel/thread_pool.h"
#include "rpc_test_util.h"
#include "runtime/client.h"
#include "runtime/risgraph.h"
#include "runtime/service.h"
#include "shard/sharded_store.h"
#include "subscribe/publisher.h"
#include "subscribe/registry.h"
#include "subscribe/subscription_index.h"
#include "workload/rmat.h"
#include "workload/update_stream.h"

namespace risgraph {
namespace {

//===--- Index structures ----------------------------------------------------//

TEST(VertexPostingIndexTest, AddRemoveMatchAndEntryCount) {
  VertexPostingIndex index;
  index.Add(5, SubscriptionPosting{1, 0, 0, NotifyPredicate::kAnyChange});
  index.Add(5, SubscriptionPosting{2, 0, 3, NotifyPredicate::kValueAtMost});
  index.Add(9, SubscriptionPosting{1, 0, 0, NotifyPredicate::kAnyChange});
  index.Add(9, SubscriptionPosting{3, 1, 0, NotifyPredicate::kAnyChange});
  EXPECT_EQ(index.entries(), 4u);

  std::vector<CommittedChange> changes = {
      {0, 1, 5, 10, 2},   // passes sub 1 (any) and sub 2 (<= 3)
      {0, 1, 9, 0, 7},    // passes sub 1; sub 3 is algo 1, filtered out
      {0, 1, 42, 0, 1},   // unindexed vertex: zero candidates
  };
  std::vector<MatchHit> hits;
  uint64_t candidates = index.MatchInto(changes, &hits);
  EXPECT_EQ(candidates, 4u);  // 2 postings at v5 + 2 at v9, none at v42
  // Delivery order: (subscription id, change index).
  std::sort(hits.begin(), hits.end());
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(hits[0].change, 0u);
  EXPECT_EQ(hits[1].id, 1u);
  EXPECT_EQ(hits[1].change, 1u);
  EXPECT_EQ(hits[2].id, 2u);
  EXPECT_EQ(hits[2].change, 0u);

  // Remove is by (vertex, id); absent removals are no-ops.
  index.Remove(5, 2);
  index.Remove(5, 2);
  index.Remove(77, 1);
  EXPECT_EQ(index.entries(), 3u);
  hits.clear();
  index.MatchInto(changes, &hits);
  for (const MatchHit& h : hits) EXPECT_NE(h.id, 2u);
}

TEST(WatchAllLaneTest, PerAlgorithmLanesAndPredicates) {
  WatchAllLane lane;
  lane.Add(SubscriptionPosting{1, 0, 0, NotifyPredicate::kAnyChange});
  lane.Add(SubscriptionPosting{2, 1, 5, NotifyPredicate::kValueAtLeast});
  EXPECT_EQ(lane.entries(), 2u);

  std::vector<CommittedChange> changes = {
      {0, 1, 3, 0, 1},  // algo 0: sub 1 only
      {1, 1, 4, 0, 9},  // algo 1, value 9 >= 5: sub 2
      {1, 1, 5, 0, 2},  // algo 1, value 2 < 5: candidate but no hit
      {7, 1, 6, 0, 1},  // no lane for algo 7
  };
  std::vector<MatchHit> hits;
  uint64_t candidates = lane.MatchInto(changes, &hits);
  EXPECT_EQ(candidates, 3u);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(hits[1].id, 2u);

  lane.Remove(1, 2);
  lane.Remove(1, 2);   // idempotent
  lane.Remove(9, 1);   // unknown algo: no-op
  EXPECT_EQ(lane.entries(), 1u);
}

//===--- Registry: indexed vs scan equivalence, posting consistency ----------//

std::vector<CommittedChange> RandomBatch(std::mt19937& rng, uint64_t algos,
                                         uint64_t vertices, size_t n) {
  std::vector<CommittedChange> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(CommittedChange{rng() % algos, 1, rng() % vertices,
                                    rng() % 16, rng() % 16});
  }
  return batch;
}

SubscriptionFilter RandomFilter(std::mt19937& rng, uint64_t algos,
                                uint64_t vertices) {
  if (rng() % 4 == 0) {
    return SubscriptionFilter::WatchAll(
        rng() % algos, static_cast<NotifyPredicate>(rng() % 4), rng() % 8);
  }
  std::vector<VertexId> watched;
  size_t n = 1 + rng() % 6;
  for (size_t i = 0; i < n; ++i) watched.push_back(rng() % vertices);
  return SubscriptionFilter::WatchVertices(
      rng() % algos, std::move(watched),
      static_cast<NotifyPredicate>(rng() % 4), rng() % 8);
}

// Drive identical churn + batches through the indexed registry and the scan
// oracle; every Poll drain must agree bit for bit, and the posting counters
// must account for exactly the live watch sets after every round.
TEST(RegistryIndexTest, ChurnEquivalenceAndPostingConsistency) {
  constexpr uint64_t kAlgos = 3;
  constexpr uint64_t kVertices = 256;

  SubscriptionRegistry indexed;
  SubscriptionRegistry scan;

  auto* isub = indexed.OpenSubscriber();
  auto* ssub = scan.OpenSubscriber();

  std::mt19937 rng(42);
  std::vector<uint64_t> live;        // ids live in BOTH registries
  uint64_t expected_postings = 0;    // live watch-set cardinality
  std::vector<Notification> igot, sgot;
  std::vector<MatchHit> hits;

  for (int round = 0; round < 60; ++round) {
    // Subscribe a few (same filter, both registries; ids stay in step
    // because both allocate sequentially from 1).
    size_t subs = rng() % 3;
    for (size_t i = 0; i < subs; ++i) {
      SubscriptionFilter f = RandomFilter(rng, kAlgos, kVertices);
      SubscriptionFilter copy = f;
      copy.Normalize();
      uint64_t id = indexed.Subscribe(isub, f);
      ASSERT_EQ(scan.Subscribe(ssub, std::move(f)), id);
      live.push_back(id);
      expected_postings += copy.watch_all ? 1 : copy.WatchedVertices().size();
    }
    // Unsubscribe a random live one.
    if (!live.empty() && rng() % 3 == 0) {
      size_t pick = rng() % live.size();
      uint64_t id = live[pick];
      live.erase(live.begin() + pick);
      // Re-derive the filter's posting weight via the consistency counter
      // delta instead of tracking filters: assert after the pair of
      // removals below.
      uint64_t before = indexed.IndexEntriesForTest();
      ASSERT_TRUE(indexed.Unsubscribe(isub, id));
      ASSERT_TRUE(scan.Unsubscribe(ssub, id));
      uint64_t removed = before - indexed.IndexEntriesForTest();
      ASSERT_GE(removed, 1u);
      expected_postings -= removed;
    }
    ASSERT_EQ(indexed.IndexEntriesForTest(), expected_postings);
    ASSERT_EQ(indexed.NumSubscriptions(), live.size());
    ASSERT_EQ(scan.NumSubscriptions(), live.size());

    std::vector<CommittedChange> batch =
        RandomBatch(rng, kAlgos, kVertices, 1 + rng() % 40);
    hits.clear();
    indexed.Match(batch, &hits);
    indexed.Deliver(batch, &hits);
    scan.PublishScan(batch);

    igot.clear();
    sgot.clear();
    indexed.Poll(isub, &igot, SIZE_MAX);
    scan.Poll(ssub, &sgot, SIZE_MAX);
    ASSERT_EQ(igot, sgot) << "diverged at round " << round;
  }
  ASSERT_EQ(indexed.matched(), scan.matched());
  // The index's whole point: examined pairs stay below the scan
  // equivalent (every batch also touched vertices nobody watches).
  EXPECT_LT(indexed.candidate_pairs(), indexed.scan_equivalent_pairs());
  EXPECT_EQ(scan.candidate_pairs(), scan.scan_equivalent_pairs());

  // CloseSubscriber drops every remaining posting.
  indexed.CloseSubscriber(isub);
  EXPECT_EQ(indexed.IndexEntriesForTest(), 0u);
  EXPECT_EQ(indexed.NumSubscriptions(), 0u);
  scan.CloseSubscriber(ssub);
}

// A hit whose subscription disappears between match and delivery is dropped,
// not delivered to a dangling entry.
TEST(RegistryIndexTest, StaleHitsDroppedAtDelivery) {
  SubscriptionRegistry reg;
  auto* sub = reg.OpenSubscriber();
  uint64_t id =
      reg.Subscribe(sub, SubscriptionFilter::WatchVertices(0, {7}));
  std::vector<CommittedChange> batch = {{0, 1, 7, 0, 1}};
  std::vector<MatchHit> hits;
  reg.Match(batch, &hits);
  ASSERT_EQ(hits.size(), 1u);
  ASSERT_TRUE(reg.Unsubscribe(sub, id));  // between match and delivery
  reg.Deliver(batch, &hits);
  std::vector<Notification> got;
  EXPECT_EQ(reg.Poll(sub, &got, SIZE_MAX), 0u);
  EXPECT_EQ(reg.matched(), 0u);
  reg.CloseSubscriber(sub);
}

// The lock split under contention: two threads subscribe and unsubscribe
// vertex-set and watch-all filters (Subscribe/Unsubscribe take table_mu_ and
// index_mu_ in turn) and poll their own notifications, while a third runs
// Match + Deliver over random batches the whole time, as the publisher's
// matcher does. Every polled notification must belong to a subscription its
// subscriber registered and satisfy that subscription's filter, and once the
// threads join the index must hold exactly the live watch sets.
TEST(RegistryIndexTest, ConcurrentChurnKeepsIndexConsistent) {
  constexpr uint64_t kAlgos = 2;
  // A small vertex range keeps the posting lists shared and long, so
  // unsynchronized index access would collide often.
  constexpr uint64_t kVertices = 16;
  constexpr int kOpsPerThread = 10000;

  SubscriptionRegistry reg;
  std::atomic<int> churners_left{2};

  struct Churner {
    SubscriptionRegistry::Subscriber* sub = nullptr;
    std::map<uint64_t, SubscriptionFilter> registered;  // every id, ever
    std::vector<uint64_t> live;
    std::vector<Notification> got;
  };
  Churner churners[2];
  for (Churner& c : churners) c.sub = reg.OpenSubscriber();

  auto churn = [&](Churner& c, uint32_t seed) {
    std::mt19937 rng(seed);
    for (int op = 0; op < kOpsPerThread; ++op) {
      // Subscribe and unsubscribe at equal rates below a cap, so the live
      // set stays small and the threads spend their time in the index.
      if (c.live.empty() || (c.live.size() < 64 && rng() % 2 == 0)) {
        SubscriptionFilter f = RandomFilter(rng, kAlgos, kVertices);
        SubscriptionFilter normalized = f;
        normalized.Normalize();
        uint64_t id = reg.Subscribe(c.sub, std::move(f));
        c.registered.emplace(id, std::move(normalized));
        c.live.push_back(id);
      } else {
        size_t pick = rng() % c.live.size();
        EXPECT_TRUE(reg.Unsubscribe(c.sub, c.live[pick]));
        c.live[pick] = c.live.back();
        c.live.pop_back();
      }
      if (op % 16 == 0) reg.Poll(c.sub, &c.got, SIZE_MAX);
    }
    churners_left.fetch_sub(1, std::memory_order_release);
  };

  uint64_t batches = 0;
  std::thread matcher([&] {
    std::mt19937 rng(7);
    std::vector<MatchHit> hits;
    while (churners_left.load(std::memory_order_acquire) > 0) {
      std::vector<CommittedChange> batch =
          RandomBatch(rng, kAlgos, kVertices, 1 + rng() % 32);
      hits.clear();
      reg.Match(batch, &hits);
      reg.Deliver(batch, &hits);
      ++batches;
    }
  });
  std::thread a([&] { churn(churners[0], 101); });
  std::thread b([&] { churn(churners[1], 202); });
  a.join();
  b.join();
  matcher.join();
  EXPECT_GT(batches, 0u);

  uint64_t expected_postings = 0;
  size_t live = 0;
  for (Churner& c : churners) {
    reg.Poll(c.sub, &c.got, SIZE_MAX);
    for (const Notification& n : c.got) {
      auto it = c.registered.find(n.subscription_id);
      ASSERT_NE(it, c.registered.end())
          << "notification for a foreign id " << n.subscription_id;
      const SubscriptionFilter& f = it->second;
      EXPECT_EQ(n.algo, f.algo);
      EXPECT_TRUE(f.Matches(n.vertex, n.old_value, n.new_value));
    }
    for (uint64_t id : c.live) {
      const SubscriptionFilter& f = c.registered.at(id);
      expected_postings += f.watch_all ? 1 : f.WatchedVertices().size();
    }
    live += c.live.size();
  }
  EXPECT_EQ(reg.IndexEntriesForTest(), expected_postings);
  EXPECT_EQ(reg.NumSubscriptions(), live);

  for (Churner& c : churners) reg.CloseSubscriber(c.sub);
  EXPECT_EQ(reg.IndexEntriesForTest(), 0u);
  EXPECT_EQ(reg.NumSubscriptions(), 0u);
}

//===--- End-to-end churn invariance -----------------------------------------//

/// Drives the workload in rounds, churning subscriptions at quiesced points
/// between rounds (flush + matcher drain), appending each round's drained
/// notifications. The churn schedule is derived from `seed` only, so every
/// configuration replays the identical subscribe/unsubscribe sequence —
/// the streams must then be bit-identical regardless of store sharding,
/// ingest sharding, or transport.
struct ChurnOutcome {
  std::vector<Notification> stream;
  VersionId version = 0;
};

class ChurnSchedule {
 public:
  explicit ChurnSchedule(uint32_t seed, uint64_t vertices)
      : rng_(seed), vertices_(vertices) {}

  /// Applies round `r`'s churn through any IClient. `live` carries the
  /// subscription ids this schedule opened and still holds.
  void Apply(IClient& client, size_t bfs, size_t sssp,
             std::vector<uint64_t>* live) {
    size_t subs = 1 + rng_() % 2;
    for (size_t i = 0; i < subs; ++i) {
      uint64_t algo = rng_() % 2 == 0 ? bfs : sssp;
      uint64_t id;
      if (rng_() % 4 == 0) {
        id = client.Subscribe(SubscriptionFilter::WatchAll(
            algo, static_cast<NotifyPredicate>(rng_() % 4), rng_() % 6));
      } else {
        std::vector<VertexId> watched;
        size_t n = 1 + rng_() % 8;
        for (size_t j = 0; j < n; ++j) watched.push_back(rng_() % vertices_);
        id = client.Subscribe(SubscriptionFilter::WatchVertices(
            algo, std::move(watched),
            static_cast<NotifyPredicate>(rng_() % 4), rng_() % 6));
      }
      ASSERT_NE(id, 0u);
      live->push_back(id);
    }
    if (live->size() > 2 && rng_() % 2 == 0) {
      size_t pick = rng_() % live->size();
      ASSERT_TRUE(client.Unsubscribe((*live)[pick]));
      live->erase(live->begin() + pick);
    }
  }

 private:
  std::mt19937 rng_;
  uint64_t vertices_;
};

constexpr uint32_t kChurnSeed = 17;
constexpr int kChurnRounds = 6;

template <typename Store>
ChurnOutcome DriveChurnInProcess(const StreamWorkload& wl,
                                 uint32_t store_shards, size_t ingest_shards) {
  RisGraphOptions opt;
  opt.store.partition.num_shards = store_shards;
  RisGraph<Store> sys(wl.num_vertices, opt);
  size_t bfs = sys.template AddAlgorithm<Bfs>(0);
  size_t sssp = sys.template AddAlgorithm<Sssp>(0);
  sys.LoadGraph(wl.preload);
  sys.InitializeResults();

  SubscriptionRegistry::Options reg;
  reg.queue_capacity = 1 << 20;  // determinism run: no coalescing
  SubscriptionRegistry registry(reg);
  ChangePublisher publisher(registry);
  ServiceOptions so;
  so.ingest_shards = ingest_shards;
  EpochPipeline<Store> pipeline(sys, so);
  pipeline.AttachPublisher(&publisher);

  ChurnOutcome out;
  {
    SessionClient<Store> client(sys, pipeline);
    pipeline.Start();
    ChurnSchedule churn(kChurnSeed, wl.num_vertices);
    std::vector<uint64_t> live;
    size_t chunk = (wl.updates.size() + kChurnRounds - 1) / kChurnRounds;
    for (int r = 0; r < kChurnRounds; ++r) {
      churn.Apply(client, bfs, sssp, &live);
      size_t begin = r * chunk;
      size_t end = std::min(wl.updates.size(), begin + chunk);
      for (size_t i = begin; i < end; ++i) {
        EXPECT_EQ(client.SubmitAsync(wl.updates[i]), ClientStatus::kOk);
      }
      EXPECT_TRUE(client.Flush().ok);
      // Quiesce before the next churn: the live set may only change on
      // fully-delivered batch boundaries, or the stream would depend on
      // where epochs split.
      publisher.WaitIdle();
      client.PollNotifications(&out.stream);
    }
    pipeline.Stop();
    publisher.WaitIdle();
    client.PollNotifications(&out.stream);
    out.version = sys.GetCurrentVersion();
  }
  return out;
}

ChurnOutcome DriveChurnOverRpc(const StreamWorkload& wl,
                               size_t ingest_shards) {
  RisGraph<> sys(wl.num_vertices);
  size_t bfs = sys.AddAlgorithm<Bfs>(0);
  size_t sssp = sys.AddAlgorithm<Sssp>(0);
  sys.LoadGraph(wl.preload);
  sys.InitializeResults();

  SubscriptionRegistry::Options reg;
  reg.queue_capacity = 1 << 20;
  SubscriptionRegistry registry(reg);
  ChangePublisher publisher(registry);
  ServiceOptions so;
  so.ingest_shards = ingest_shards;
  RisGraphService<> service(sys, so);
  service.AttachPublisher(&publisher);
  std::string path = "/tmp/risgraph_sub_churn_" + std::to_string(::getpid()) +
                     "_" + std::to_string(ingest_shards) + ".sock";
  RpcServer server(sys, service, path);
  EXPECT_TRUE(server.Start(4));
  service.Start();

  ChurnOutcome out;
  {
    RpcClient client(/*window=*/256);
    EXPECT_TRUE(client.Connect(path));
    ChurnSchedule churn(kChurnSeed, wl.num_vertices);
    std::vector<uint64_t> live;
    size_t chunk = (wl.updates.size() + kChurnRounds - 1) / kChurnRounds;
    for (int r = 0; r < kChurnRounds; ++r) {
      churn.Apply(client, bfs, sssp, &live);
      size_t begin = r * chunk;
      size_t end = std::min(wl.updates.size(), begin + chunk);
      for (size_t i = begin; i < end; ++i) {
        EXPECT_EQ(client.SubmitAsync(wl.updates[i]), ClientStatus::kOk);
      }
      EXPECT_TRUE(client.Flush().ok);
      publisher.WaitIdle();
      // Remote delivery is asynchronous: drain until quiet (bounded by
      // push latency once the matcher is idle) BEFORE the next churn may
      // unsubscribe — a racing unsubscribe drops in-flight pushes.
      while (client.WaitNotification(200000)) {
        client.PollNotifications(&out.stream);
      }
    }
    out.version = sys.GetCurrentVersion();
    client.Close();
  }
  server.Stop();
  service.Stop();
  return out;
}

TEST(SubscriptionIndexInvarianceTest,
     ChurnStreamsBitIdenticalAcrossShardsAndTransports) {
  // 1-thread global pool: pool interleaving is the engine's only
  // nondeterminism; the publisher matches inline on its own thread.
  ThreadPool::ResetGlobal(1);

  RmatParams rmat;
  rmat.scale = 7;
  rmat.num_edges = 900;
  rmat.max_weight = 4;
  rmat.seed = 11;
  StreamOptions so;
  so.preload_fraction = 0.5;
  so.insert_fraction = 0.6;
  so.seed = 23;
  StreamWorkload wl =
      BuildStream(uint64_t{1} << rmat.scale, GenerateRmat(rmat), so);

  // The base: in-process, unsharded store, one ingest ring. (The matcher
  // itself is pinned to the scan oracle at the registry level above.)
  ChurnOutcome base = DriveChurnInProcess<DefaultGraphStore>(wl, 1, 1);
  ASSERT_FALSE(base.stream.empty());
  ASSERT_GT(base.version, 0u);

  // Ingest-ring counts on the unsharded store.
  for (size_t ingest_shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("ingest_shards=" + std::to_string(ingest_shards));
    ChurnOutcome got =
        DriveChurnInProcess<DefaultGraphStore>(wl, 1, ingest_shards);
    EXPECT_EQ(got.version, base.version);
    ASSERT_EQ(got.stream, base.stream);
  }
  // Sharded store: the registry is unaffected by store ownership, so the
  // streams must not move.
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("store_shards=" + std::to_string(shards));
    ChurnOutcome got =
        DriveChurnInProcess<ShardedGraphStore<>>(wl, shards, shards);
    EXPECT_EQ(got.version, base.version);
    ASSERT_EQ(got.stream, base.stream);
  }
  // RPC transport: pushes from different subscriptions may interleave
  // differently, so compare each subscription's stream.
  const std::vector<Notification> base_per_sub =
      testutil::PerSubscription(base.stream);
  for (size_t ingest_shards : {1u, 4u}) {
    SCOPED_TRACE("rpc ingest_shards=" + std::to_string(ingest_shards));
    ChurnOutcome got = DriveChurnOverRpc(wl, ingest_shards);
    EXPECT_EQ(got.version, base.version);
    ASSERT_EQ(testutil::PerSubscription(std::move(got.stream)), base_per_sub);
  }

  ThreadPool::ResetGlobal(0);
}

}  // namespace
}  // namespace risgraph

// The continuous-query subsystem (src/subscribe/): delivery-queue
// semantics, filter matching, the epoch-commit -> notification path on both
// transports, overload coalescing (bounded memory, unaffected pipeline),
// and the property the design hangs on — notification streams are
// deterministic and shard-count invariant: the same workload driven at
// ingest_shards 1, 2 and 4, in-process or over RPC, produces bit-identical
// per-subscription notification sequences (extending PR 4's invariance
// contract to pushed results).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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
#include "subscribe/delivery_queue.h"
#include "subscribe/publisher.h"
#include "subscribe/registry.h"
#include "workload/rmat.h"
#include "workload/update_stream.h"

namespace risgraph {
namespace {

Notification MakeNotification(uint64_t sub, uint64_t algo, VersionId ver,
                              VertexId v, uint64_t oldv, uint64_t newv) {
  return Notification{sub, algo, ver, v, oldv, newv};
}

//===--- DeliveryQueue -------------------------------------------------------//

TEST(DeliveryQueueTest, FifoUnderCapacity) {
  DeliveryQueue q(4);
  for (uint64_t i = 0; i < 4; ++i) {
    q.Push(MakeNotification(1, 0, i + 1, i, 0, i));
  }
  std::vector<Notification> out;
  EXPECT_EQ(q.PopInto(&out, SIZE_MAX), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].version, i + 1);
    EXPECT_EQ(out[i].vertex, i);
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.overwritten(), 0u);
}

TEST(DeliveryQueueTest, OverflowCoalescesToLatestValuePerVertex) {
  DeliveryQueue q(2);
  // Two buffer in order; everything after folds to latest-per-(algo,vertex).
  q.Push(MakeNotification(1, 0, 1, 10, 0, 100));
  q.Push(MakeNotification(1, 0, 2, 11, 0, 200));
  for (uint64_t round = 0; round < 50; ++round) {
    q.Push(MakeNotification(1, 0, 3 + round, 12, round, round + 1));
    q.Push(MakeNotification(1, 0, 3 + round, 13, round, round * 2));
  }
  // Memory is bounded by capacity + distinct keys, not by the 100-push
  // backlog.
  EXPECT_EQ(q.Size(), 4u);
  EXPECT_EQ(q.overwritten(), 98u);

  std::vector<Notification> out;
  q.PopInto(&out, SIZE_MAX);
  ASSERT_EQ(out.size(), 4u);
  // FIFO prefix first, then coalesced survivors in (algo, vertex) order,
  // each carrying the LATEST value.
  EXPECT_EQ(out[0].vertex, 10u);
  EXPECT_EQ(out[1].vertex, 11u);
  EXPECT_EQ(out[2].vertex, 12u);
  EXPECT_EQ(out[2].new_value, 50u);
  EXPECT_EQ(out[3].vertex, 13u);
  EXPECT_EQ(out[3].new_value, 98u);

  // Fully drained => back to the in-order regime.
  q.Push(MakeNotification(1, 0, 99, 7, 0, 7));
  out.clear();
  EXPECT_EQ(q.PopInto(&out, SIZE_MAX), 1u);
  EXPECT_EQ(out[0].vertex, 7u);
}

TEST(DeliveryQueueTest, CoalescedRegimePersistsUntilDrained) {
  DeliveryQueue q(1);
  q.Push(MakeNotification(1, 0, 1, 0, 0, 1));
  q.Push(MakeNotification(1, 0, 2, 1, 0, 2));  // overflow -> coalesced
  std::vector<Notification> out;
  q.PopInto(&out, 1);  // fifo drained, coalesced survivor remains
  // New pushes must keep coalescing (delivery order stays version-monotone
  // per vertex), even though the fifo has room again.
  q.Push(MakeNotification(1, 0, 3, 2, 0, 3));
  out.clear();
  q.PopInto(&out, SIZE_MAX);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].vertex, 1u);
  EXPECT_EQ(out[1].vertex, 2u);
}

//===--- Filters -------------------------------------------------------------//

TEST(SubscriptionFilterTest, VertexSetAndPredicates) {
  SubscriptionFilter f =
      SubscriptionFilter::WatchVertices(0, {5, 3, 3, 9});
  f.Normalize();
  EXPECT_EQ(f.vertices, (std::vector<VertexId>{3, 5, 9}));
  EXPECT_TRUE(f.Matches(3, 0, 1));
  EXPECT_FALSE(f.Matches(4, 0, 1));

  SubscriptionFilter below =
      SubscriptionFilter::WatchAll(0, NotifyPredicate::kValueAtMost, 2);
  EXPECT_TRUE(below.Matches(1, 100, 2));
  EXPECT_FALSE(below.Matches(1, 100, 3));

  SubscriptionFilter above =
      SubscriptionFilter::WatchAll(0, NotifyPredicate::kValueAtLeast,
                                   kInfWeight);
  EXPECT_TRUE(above.Matches(1, 1, kInfWeight));  // "fell out of reach"
  EXPECT_FALSE(above.Matches(1, 1, 3));

  SubscriptionFilter delta =
      SubscriptionFilter::WatchAll(0, NotifyPredicate::kMinDelta, 10);
  EXPECT_TRUE(delta.Matches(1, 5, 15));
  EXPECT_TRUE(delta.Matches(1, 15, 5));  // |delta| is symmetric
  EXPECT_FALSE(delta.Matches(1, 5, 14));
}

//===--- LastModified determinism (satellite) -------------------------------//

// The per-thread modified_buf_ concat order used to depend on worker
// scheduling; notifications (and history) need a deterministic order. Pin:
// LastModified is sorted by vertex id even when a wide pool fans the
// invalidation, and the records match the single-threaded run.
TEST(LastModifiedOrderTest, SortedAndThreadCountInvariant) {
  constexpr uint64_t kLeaves = 512;
  auto run = [&](size_t threads) {
    ThreadPool::ResetGlobal(threads);
    std::vector<ModifiedRecord> records;
    {
      RisGraph<> sys(2 + kLeaves);
      size_t bfs = sys.AddAlgorithm<Bfs>(0);
      sys.InitializeResults();
      sys.InsEdge(0, 1);  // hub
      for (uint64_t leaf = 0; leaf < kLeaves; ++leaf) {
        sys.InsEdge(1, 2 + leaf);
      }
      // Deleting the tree edge to the hub invalidates the whole subtree:
      // a large modification set produced by parallel repair.
      sys.DelEdge(0, 1);
      records = sys.algorithm(bfs).LastModified();
    }
    ThreadPool::ResetGlobal(0);
    return records;
  };

  std::vector<ModifiedRecord> wide = run(8);
  ASSERT_EQ(wide.size(), 1 + kLeaves);  // hub + every leaf
  EXPECT_TRUE(std::is_sorted(wide.begin(), wide.end(),
                             [](const ModifiedRecord& a,
                                const ModifiedRecord& b) {
                               return a.vertex < b.vertex;
                             }));

  std::vector<ModifiedRecord> narrow = run(1);
  ASSERT_EQ(narrow.size(), wide.size());
  for (size_t i = 0; i < wide.size(); ++i) {
    EXPECT_EQ(wide[i].vertex, narrow[i].vertex) << i;
    EXPECT_EQ(wide[i].old_value, narrow[i].old_value) << i;
  }
}

//===--- In-process end-to-end ----------------------------------------------//

class SubscribeServiceTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kVertices = 64;

  void Build(SubscriptionRegistry::Options reg_options = {},
             ServiceOptions options = {}) {
    sys_ = std::make_unique<RisGraph<>>(kVertices);
    bfs_ = sys_->AddAlgorithm<Bfs>(0);
    sys_->InitializeResults();
    registry_ = std::make_unique<SubscriptionRegistry>(reg_options);
    publisher_ = std::make_unique<ChangePublisher>(*registry_);
    service_ = std::make_unique<RisGraphService<>>(*sys_, options);
    service_->AttachPublisher(publisher_.get());
    client_ = std::make_unique<SessionClient<>>(*sys_, service_->pipeline());
    service_->Start();
  }

  void TearDown() override {
    client_.reset();  // closes its registry subscriber
    if (service_ != nullptr) service_->Stop();
  }

  std::unique_ptr<RisGraph<>> sys_;
  size_t bfs_ = 0;
  std::unique_ptr<SubscriptionRegistry> registry_;
  std::unique_ptr<ChangePublisher> publisher_;
  std::unique_ptr<RisGraphService<>> service_;
  std::unique_ptr<SessionClient<>> client_;
};

TEST_F(SubscribeServiceTest, WatchAllMatchesHistoryModificationSets) {
  Build();
  uint64_t sub = client_->Subscribe(SubscriptionFilter::WatchAll(bfs_));
  ASSERT_NE(sub, 0u);

  // A little chain-growing workload with plenty of unsafe updates.
  std::vector<VersionId> versions;
  for (uint64_t i = 0; i + 1 < 16; ++i) {
    versions.push_back(client_->InsEdge(i, i + 1));  // extends the BFS tree
  }
  versions.push_back(client_->DelEdge(3, 4));  // cuts the tree: big set
  // Blocking submits are answered at commit, which is also when changes are
  // staged — WaitIdle is therefore a full drain barrier here (and the
  // service stays up: the history cross-checks below need its read lanes).
  publisher_->WaitIdle();

  std::vector<Notification> got;
  client_->PollNotifications(&got);
  ASSERT_FALSE(got.empty());

  // Every notification must agree with the history store: new_value is the
  // value at its version, old_value the value just before, and the per-
  // version vertex sets must be exactly GetModified(version).
  VersionId cur = 0;
  client_->GetCurrentVersion(&cur);
  std::vector<VertexId> expected;
  std::vector<VertexId> seen;
  for (VersionId ver = 1; ver <= cur; ++ver) {
    expected.clear();
    ASSERT_TRUE(client_->GetModified(bfs_, ver, &expected));
    std::sort(expected.begin(), expected.end());
    seen.clear();
    for (const Notification& n : got) {
      if (n.version != ver) continue;
      EXPECT_EQ(n.subscription_id, sub);
      EXPECT_EQ(n.algo, bfs_);
      seen.push_back(n.vertex);
      uint64_t at = 0;
      ASSERT_TRUE(client_->GetValueAt(bfs_, ver, n.vertex, &at));
      EXPECT_EQ(n.new_value, at) << "v" << ver << " vertex " << n.vertex;
      uint64_t before = 0;
      ASSERT_TRUE(client_->GetValueAt(bfs_, ver - 1, n.vertex, &before));
      EXPECT_EQ(n.old_value, before);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, expected) << "notification set diverged at v" << ver;
  }
  // Notifications only exist for versions <= current (no phantom commits).
  for (const Notification& n : got) {
    EXPECT_GE(n.version, 1u);
    EXPECT_LE(n.version, cur);
  }
}

TEST_F(SubscribeServiceTest, VertexSetAndThresholdFiltersApply) {
  Build();
  uint64_t watch9 = client_->Subscribe(
      SubscriptionFilter::WatchVertices(bfs_, {9}));
  uint64_t within2 = client_->Subscribe(SubscriptionFilter::WatchAll(
      bfs_, NotifyPredicate::kValueAtMost, 2));
  ASSERT_NE(watch9, 0u);
  ASSERT_NE(within2, 0u);

  for (uint64_t i = 0; i + 1 < 12; ++i) {
    client_->InsEdge(i, i + 1);
  }
  publisher_->WaitIdle();

  std::vector<Notification> got;
  client_->PollNotifications(&got);
  ASSERT_FALSE(got.empty());
  bool saw_watch9 = false;
  for (const Notification& n : got) {
    if (n.subscription_id == watch9) {
      EXPECT_EQ(n.vertex, 9u);
      saw_watch9 = true;
    } else {
      ASSERT_EQ(n.subscription_id, within2);
      EXPECT_LE(n.new_value, 2u);
    }
  }
  EXPECT_TRUE(saw_watch9);

  // Invalid subscriptions are refused with 0.
  EXPECT_EQ(client_->Subscribe(SubscriptionFilter::WatchAll(99)), 0u);
  EXPECT_EQ(client_->Subscribe(SubscriptionFilter::WatchVertices(
                bfs_, {kVertices + 5})),
            0u);
  EXPECT_EQ(client_->Subscribe(SubscriptionFilter::WatchVertices(bfs_, {})),
            0u);
  EXPECT_FALSE(client_->Unsubscribe(123456));
  EXPECT_TRUE(client_->Unsubscribe(watch9));
  EXPECT_FALSE(client_->Unsubscribe(watch9));  // already gone
}

// Satellite: a slow subscriber with a full delivery queue receives the
// latest value per vertex instead of an unbounded backlog, and the ingest
// pipeline is unaffected (every submitted update completes).
TEST_F(SubscribeServiceTest, OverloadCoalescesToLatestValueWithoutBackpressure) {
  SubscriptionRegistry::Options reg;
  reg.queue_capacity = 8;  // overload immediately
  Build(reg);
  uint64_t sub = client_->Subscribe(SubscriptionFilter::WatchAll(bfs_));
  ASSERT_NE(sub, 0u);

  // Hammer two vertices with alternating unsafe updates and never poll:
  // the subscriber falls behind by construction.
  constexpr uint64_t kRounds = 400;
  for (uint64_t i = 0; i < kRounds; ++i) {
    ASSERT_EQ(client_->SubmitAsync(Update::InsertEdge(0, 1, 1)),
              ClientStatus::kOk);
    ASSERT_EQ(client_->SubmitAsync(Update::DeleteEdge(0, 1, 1)),
              ClientStatus::kOk);
    ASSERT_EQ(client_->SubmitAsync(Update::InsertEdge(1, 2, 1)),
              ClientStatus::kOk);
  }
  FlushResult fr = client_->Flush();
  ASSERT_TRUE(fr.ok);
  publisher_->WaitIdle();

  // Counter-asserted: the pipeline completed every update — a slow
  // subscriber coalesces, it never throttles ingest.
  EXPECT_EQ(service_->completed_ops(), 3 * kRounds);
  EXPECT_GT(registry_->coalesced(), 0u);

  // Bounded delivery: capacity + at most one latest entry per touched
  // vertex, NOT a 1200-update backlog.
  std::vector<Notification> got;
  client_->PollNotifications(&got);
  ASSERT_FALSE(got.empty());
  EXPECT_LE(got.size(), reg.queue_capacity + kVertices);

  // The last notification per vertex carries the CURRENT committed value.
  for (auto it = got.rbegin(); it != got.rend(); ++it) {
    bool is_last = true;
    for (auto jt = got.rbegin(); jt != it; ++jt) {
      if (jt->vertex == it->vertex) {
        is_last = false;
        break;
      }
    }
    if (!is_last) continue;
    uint64_t now = 0;
    ASSERT_TRUE(client_->GetValue(bfs_, it->vertex, &now));
    EXPECT_EQ(it->new_value, now) << "vertex " << it->vertex;
  }
}

//===--- Determinism & shard-count invariance --------------------------------//

/// Drives one workload against a publisher-attached pipeline and returns
/// the full notification stream in deterministic drain order, plus the
/// final version. Subscriptions: watch-all on BFS, a vertex set on SSSP,
/// and a threshold standing query on BFS — all three must replay
/// bit-identically at any shard count and over either transport.
struct NotifyOutcome {
  std::vector<Notification> stream;
  VersionId version = 0;
};

void SubscribeTrio(IClient& client, size_t bfs, size_t sssp,
                   uint64_t num_vertices) {
  ASSERT_NE(client.Subscribe(SubscriptionFilter::WatchAll(bfs)), 0u);
  std::vector<VertexId> watched;
  for (VertexId v = 0; v < num_vertices; v += 7) watched.push_back(v);
  ASSERT_NE(client.Subscribe(SubscriptionFilter::WatchVertices(sssp, watched)),
            0u);
  ASSERT_NE(client.Subscribe(SubscriptionFilter::WatchAll(
                bfs, NotifyPredicate::kValueAtLeast, kInfWeight)),
            0u);
}

void DriveStream(IClient& client, const StreamWorkload& wl) {
  for (const Update& u : wl.updates) {
    ASSERT_EQ(client.SubmitAsync(u), ClientStatus::kOk);
  }
  ASSERT_TRUE(client.Flush().ok);
  // A blocking tail pins the cross-lane order (pipelined lane drained
  // first), exercising txn commits through the notification path too.
  for (uint64_t t = 0; t < 8; ++t) {
    VertexId a = (5 * t) % wl.num_vertices;
    VertexId b = (5 * t + 2) % wl.num_vertices;
    std::vector<Update> txn = {Update::InsertEdge(a, b, 1 + t % 3),
                               Update::DeleteEdge(a, b, 1 + t % 3),
                               Update::InsertEdge(b, a, 2)};
    client.SubmitTxn(txn);
  }
}

template <typename Store>
NotifyOutcome DriveInProcess(const StreamWorkload& wl, uint32_t store_shards,
                             size_t ingest_shards) {
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
  NotifyOutcome out;
  {
    SessionClient<Store> client(sys, pipeline);
    pipeline.Start();
    SubscribeTrio(client, bfs, sssp, wl.num_vertices);
    DriveStream(client, wl);
    pipeline.Stop();
    publisher.WaitIdle();
    client.PollNotifications(&out.stream);
    out.version = sys.GetCurrentVersion();
  }
  return out;
}

NotifyOutcome DriveOverRpc(const StreamWorkload& wl, size_t ingest_shards) {
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
  std::string path = "/tmp/risgraph_sub_inv_" + std::to_string(::getpid()) +
                     "_" + std::to_string(ingest_shards) + ".sock";
  RpcServer server(sys, service, path);
  EXPECT_TRUE(server.Start(4));
  service.Start();

  NotifyOutcome out;
  {
    RpcClient client(/*window=*/256);
    EXPECT_TRUE(client.Connect(path));
    EXPECT_EQ(client.protocol_version(), rpc::kProtocolVersion);
    SubscribeTrio(client, bfs, sssp, wl.num_vertices);
    DriveStream(client, wl);
    // Remote delivery is asynchronous: drain until the stream goes quiet
    // (the publisher is idle once the pipeline drained, so "quiet" is
    // bounded by push latency, not by computation).
    publisher.WaitIdle();
    while (client.WaitNotification(200000)) {
      client.PollNotifications(&out.stream);
    }
    out.version = sys.GetCurrentVersion();
    client.Close();
  }
  server.Stop();
  service.Stop();
  return out;
}

TEST(NotificationInvarianceTest, BitIdenticalStreamsAcrossShardsAndTransports) {
  // 1-thread pool: as in test_shard.cc, pool interleaving is the baseline's
  // only nondeterminism; with it pinned, every config must agree bit for
  // bit — including the pushed notification streams.
  ThreadPool::ResetGlobal(1);

  RmatParams rmat;
  rmat.scale = 7;
  rmat.num_edges = 1200;
  rmat.max_weight = 4;
  rmat.seed = 5;
  StreamOptions so;
  so.preload_fraction = 0.5;
  so.insert_fraction = 0.6;
  so.seed = 13;
  StreamWorkload wl =
      BuildStream(uint64_t{1} << rmat.scale, GenerateRmat(rmat), so);

  NotifyOutcome base = DriveInProcess<DefaultGraphStore>(wl, 1, 1);
  ASSERT_FALSE(base.stream.empty());
  ASSERT_GT(base.version, 0u);

  // Ingest-ring sharding (same store, different epoch packing).
  for (size_t ingest_shards : {2u, 4u}) {
    SCOPED_TRACE("ingest_shards=" + std::to_string(ingest_shards));
    NotifyOutcome got =
        DriveInProcess<DefaultGraphStore>(wl, 1, ingest_shards);
    EXPECT_EQ(got.version, base.version);
    ASSERT_EQ(got.stream, base.stream);
  }
  // Store partitioning (PR 4's shard layer under the same pipeline).
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("store_shards=" + std::to_string(shards));
    NotifyOutcome got =
        DriveInProcess<ShardedGraphStore<>>(wl, shards, shards);
    EXPECT_EQ(got.version, base.version);
    ASSERT_EQ(got.stream, base.stream);
  }
  // The RPC transport: same IClient surface, same per-subscription streams
  // (pushes from different subscriptions may interleave differently).
  const std::vector<Notification> base_per_sub =
      testutil::PerSubscription(base.stream);
  for (size_t ingest_shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("rpc ingest_shards=" + std::to_string(ingest_shards));
    NotifyOutcome got = DriveOverRpc(wl, ingest_shards);
    EXPECT_EQ(got.version, base.version);
    ASSERT_EQ(testutil::PerSubscription(std::move(got.stream)), base_per_sub);
  }

  ThreadPool::ResetGlobal(0);
}

//===--- RPC specifics --------------------------------------------------------//

class SubscribeRpcTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kVertices = 32;

  void SetUp() override {
    socket_path_ = "/tmp/risgraph_sub_rpc_" +
                   std::to_string(reinterpret_cast<uintptr_t>(this)) + ".sock";
    sys_ = std::make_unique<RisGraph<>>(kVertices);
    bfs_ = sys_->AddAlgorithm<Bfs>(0);
    sys_->InitializeResults();
    registry_ = std::make_unique<SubscriptionRegistry>();
    publisher_ = std::make_unique<ChangePublisher>(*registry_);
    service_ = std::make_unique<RisGraphService<>>(*sys_);
    service_->AttachPublisher(publisher_.get());
    server_ = std::make_unique<RpcServer>(*sys_, *service_, socket_path_);
    ASSERT_TRUE(server_->Start(8));
    service_->Start();
  }

  void TearDown() override {
    server_->Stop();
    service_->Stop();
  }

  std::string socket_path_;
  std::unique_ptr<RisGraph<>> sys_;
  size_t bfs_ = 0;
  std::unique_ptr<SubscriptionRegistry> registry_;
  std::unique_ptr<ChangePublisher> publisher_;
  std::unique_ptr<RisGraphService<>> service_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(SubscribeRpcTest, PushedNotificationsReachTheRemoteClient) {
  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  ASSERT_GE(client.protocol_version(), rpc::kSubscriptionVersion);
  uint64_t sub = client.Subscribe(SubscriptionFilter::WatchAll(bfs_));
  ASSERT_NE(sub, 0u);

  VersionId v1 = client.InsEdge(0, 1);
  ASSERT_NE(v1, kInvalidVersion);
  std::vector<Notification> got;
  // Push-based: the notification arrives without any further request.
  ASSERT_TRUE(client.WaitNotification(2'000'000));
  client.PollNotifications(&got);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].subscription_id, sub);
  EXPECT_EQ(got[0].algo, bfs_);
  EXPECT_EQ(got[0].version, v1);
  EXPECT_EQ(got[0].vertex, 1u);
  EXPECT_EQ(got[0].old_value, kInfWeight);
  EXPECT_EQ(got[0].new_value, 1u);
  // The counter bumps after the socket write; the client can race ahead of
  // it by a few instructions — poll briefly.
  for (int spin = 0; spin < 1000 && server_->notifications_pushed() == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server_->notifications_pushed(), 1u);

  // Unsubscribe stops the stream; in-flight pushes (if any) are dropped
  // client-side, and the connection stays fully usable.
  ASSERT_TRUE(client.Unsubscribe(sub));
  EXPECT_NE(client.InsEdge(1, 2), kInvalidVersion);
  got.clear();
  EXPECT_FALSE(client.WaitNotification(50'000));
  EXPECT_EQ(client.PollNotifications(&got), 0u);
  EXPECT_TRUE(client.Ping());

  // Semantically invalid subscriptions answer kError, not a dropped
  // connection.
  EXPECT_EQ(client.Subscribe(SubscriptionFilter::WatchAll(7)), 0u);
  EXPECT_TRUE(client.Ping());
}

TEST_F(SubscribeRpcTest, PlainV2PeerKeepsWorkingAndSeesNoV21Surface) {
  using namespace testutil;
  // An old client negotiates 2 and operates exactly as before.
  int fd = RawConnect(socket_path_);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(HandshakeRaw(fd, 2, 2), 2u);
  std::vector<uint8_t> req;
  rpc::Writer w(req);
  rpc::WriteRequestHeader(w, 42, rpc::Op::kInsEdge);
  w.U64(0);
  w.U64(1);
  w.U64(1);
  ASSERT_TRUE(SendFrameRaw(fd, req));
  std::vector<uint8_t> resp;
  ASSERT_TRUE(ReadFrameRaw(fd, &resp));
  ASSERT_GE(resp.size(), 9u);
  EXPECT_EQ(resp[8], static_cast<uint8_t>(rpc::Status::kOk));

  // The v2.1 opcodes are as unparseable for it as on an old server:
  // kBadRequest, then close — never a silent half-support.
  req.clear();
  rpc::Writer w2(req);
  rpc::WriteRequestHeader(w2, 43, rpc::Op::kSubscribe);
  w2.U64(bfs_);
  w2.U8(1);
  w2.U8(0);
  w2.U64(0);
  w2.U32(0);
  ASSERT_TRUE(SendFrameRaw(fd, req));
  ASSERT_TRUE(ReadFrameRaw(fd, &resp));
  ASSERT_EQ(resp.size(), 9u);
  EXPECT_EQ(resp[8], static_cast<uint8_t>(rpc::Status::kBadRequest));
  uint8_t byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);

  // Meanwhile v2.1 peers get the full surface on the same server.
  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  EXPECT_NE(client.Subscribe(SubscriptionFilter::WatchAll(bfs_)), 0u);
}

TEST_F(SubscribeRpcTest, UnsubscribeRaceNeverWedgesEitherSide) {
  RpcClient subscriber;
  ASSERT_TRUE(subscriber.Connect(socket_path_));
  RpcClient writer;
  ASSERT_TRUE(writer.Connect(socket_path_));

  // Churn subscriptions while a second connection streams updates: pushes
  // racing kUnsubscribe must be dropped (possibly counted stray), never
  // desync, hang, or crash either side.
  std::atomic<bool> done{false};
  std::thread stream([&] {
    uint64_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      writer.InsEdge(i % kVertices, (i + 1) % kVertices);
      writer.DelEdge(i % kVertices, (i + 1) % kVertices);
      ++i;
    }
  });
  for (int round = 0; round < 40; ++round) {
    uint64_t sub =
        subscriber.Subscribe(SubscriptionFilter::WatchAll(bfs_));
    ASSERT_NE(sub, 0u);
    subscriber.WaitNotification(2000);
    std::vector<Notification> drain;
    subscriber.PollNotifications(&drain);
    ASSERT_TRUE(subscriber.Unsubscribe(sub));
  }
  done.store(true, std::memory_order_release);
  stream.join();
  EXPECT_TRUE(subscriber.Ping());
  EXPECT_TRUE(writer.Ping());
  EXPECT_TRUE(subscriber.IsConnected());
}

}  // namespace
}  // namespace risgraph

// Decoupled durability end to end: fault-injected crash matrix (torn record,
// torn batch, crash mid-rotation, lost fsync) recovered at shard counts 1, 2
// and 4; fail-stop propagation from a dead WAL through the pipeline to both
// client transports; and the v2.2 durability-ack flow (kDurable frames,
// WaitDurable, watermark reporting) over a live RPC connection.
//
// Crash-matrix invariant (the tentpole contract): with a single blocking
// session submitting one update at a time, record LSN == submission index, so
// after a crash at any byte the recovered state must equal the reference
// state built from exactly the replayed prefix of the submission sequence —
// bit-identical (adjacency content AND order) at every shard count — and the
// replayed prefix must cover at least the durability watermark read before
// the crash. Nothing acked durable is ever lost; nothing beyond the log is
// ever invented.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/algorithm_api.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "runtime/client.h"
#include "runtime/risgraph.h"
#include "runtime/service.h"
#include "shard/sharded_store.h"
#include "wal/recovery.h"
#include "wal/wal_backend.h"

namespace risgraph {
namespace {

constexpr uint64_t kVertices = 24;
constexpr size_t kRec = WriteAheadLog::kRecordBytes;

/// Deterministic update sequence: inserts with varied endpoints/weights plus
/// two deletes of edges inserted early, so any replayed prefix is a valid
/// history (each delete's target insert precedes it).
std::vector<Update> MakeUpdates(int n) {
  std::vector<Update> us;
  us.reserve(n);
  for (int i = 0; i < n; ++i) {
    if (i == 12) {
      us.push_back(Update::DeleteEdge(2, 15, 3));  // inserted at i == 2
    } else if (i == 20) {
      us.push_back(Update::DeleteEdge(4, 5, 2));  // inserted at i == 4
    } else {
      us.push_back(Update::InsertEdge(i % 24, (i * 7 + 1) % 24, 1 + i % 3));
    }
  }
  return us;
}

template <typename Sys>
void Apply(Sys& sys, const std::vector<Update>& us, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const Update& u = us[i];
    u.kind == UpdateKind::kInsertEdge
        ? sys.InsEdge(u.edge.src, u.edge.dst, u.edge.weight)
        : sys.DelEdge(u.edge.src, u.edge.dst, u.edge.weight);
  }
}

bool WaitFor(const std::function<bool()>& pred, int64_t timeout_micros) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(timeout_micros);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "risgraph_dur_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    wal_ = base_ + ".wal";
    ckpt_ = base_ + ".ckpt";
    RemoveFiles();
  }
  void TearDown() override { RemoveFiles(); }

  void RemoveFiles() {
    std::remove(wal_.c_str());
    std::remove(ckpt_.c_str());
    std::remove(PartitionMapSidecarPath(wal_).c_str());
    for (int i = 0; i < 64; ++i) {
      char suffix[16];
      std::snprintf(suffix, sizeof(suffix), ".%04d", i);
      std::remove((wal_ + suffix).c_str());
    }
  }

  /// The matrix leg: recover the materialized log at shard counts 1, 2, 4
  /// and require exactly `expect_replayed` records, with graph state
  /// bit-identical (results + adjacency content and order) to a reference
  /// built from that exact submission prefix.
  void VerifyPrefixRecovery(const std::vector<Update>& updates,
                            uint64_t expect_replayed) {
    std::vector<uint64_t> ref_values;
    std::vector<std::tuple<VertexId, VertexId, Weight, uint64_t>> ref_adj;
    {
      RisGraph<> ref(kVertices);
      size_t bfs = ref.AddAlgorithm<Bfs>(0);
      ref.InitializeResults();
      Apply(ref, updates, expect_replayed);
      for (VertexId v = 0; v < kVertices; ++v) {
        ref_values.push_back(ref.GetValue(bfs, v));
        ref.store().ForEachOut(v, [&](VertexId d, Weight w, uint64_t c) {
          ref_adj.emplace_back(v, d, w, c);
        });
      }
    }
    for (uint32_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      RisGraphOptions opt;
      opt.store.partition.num_shards = shards;
      RisGraph<ShardedGraphStore<>> rec(kVertices, opt);
      RecoveryResult r = RecoverRisGraph(rec, ckpt_, wal_);
      ASSERT_EQ(r.replayed_records, expect_replayed);
      size_t bfs = rec.AddAlgorithm<Bfs>(0);
      rec.InitializeResults();
      std::vector<std::tuple<VertexId, VertexId, Weight, uint64_t>> adj;
      for (VertexId v = 0; v < kVertices; ++v) {
        ASSERT_EQ(rec.GetValue(bfs, v), ref_values[v]) << v;
        rec.store().ForEachOut(v, [&](VertexId d, Weight w, uint64_t c) {
          adj.emplace_back(v, d, w, c);
        });
      }
      ASSERT_EQ(adj, ref_adj) << "recovered adjacency (content or order)";
    }
  }

  std::string base_, wal_, ckpt_;
};

//===--- Crash matrix -------------------------------------------------------===//

TEST_F(DurabilityTest, CrashTornRecordRecoversDurablePrefix) {
  std::vector<Update> updates = MakeUpdates(32);
  FaultInjectingWalBackend::Config cfg;
  cfg.crash_at_bytes = 17 * kRec + 13;  // record 17 tears mid-payload
  FaultInjectingWalBackend backend(cfg);
  {
    RisGraphOptions opt;
    opt.wal_path = wal_;
    opt.wal_backend = &backend;
    RisGraph<> sys(kVertices, opt);
    sys.AddAlgorithm<Bfs>(0);
    sys.InitializeResults();
    Apply(sys, updates, updates.size());  // tail ops fail their WAL flush
    EXPECT_EQ(sys.WalStatus(), Status::kWalError);
    EXPECT_EQ(sys.wal().DurableUpto(), 17u);  // fail-stop froze the watermark
  }
  ASSERT_TRUE(backend.Materialize(/*keep_unsynced=*/true));
  VerifyPrefixRecovery(updates, 17);
}

TEST_F(DurabilityTest, CrashMidBatchTearsAtRecordBoundary) {
  // A transaction is one group-committed chunk; the log has no txn markers,
  // so a crash inside the chunk tears at a *record* boundary: recovery keeps
  // the intact per-record prefix of the batch (record-granular durability —
  // txn atomicity across crashes is explicitly not claimed by the format).
  std::vector<Update> updates = MakeUpdates(32);
  FaultInjectingWalBackend::Config cfg;
  cfg.crash_at_bytes = 13 * kRec + 5;  // 7 of the txn's 10 records survive
  FaultInjectingWalBackend backend(cfg);
  {
    RisGraphOptions opt;
    opt.wal_path = wal_;
    opt.wal_backend = &backend;
    RisGraph<> sys(kVertices, opt);
    sys.AddAlgorithm<Bfs>(0);
    sys.InitializeResults();
    Apply(sys, updates, 6);  // records 0..5, one flush each
    std::vector<Update> txn(updates.begin() + 6, updates.begin() + 16);
    sys.TxnUpdates(txn);  // records 6..15 in ONE chunk; crashes mid-chunk
    EXPECT_EQ(sys.WalStatus(), Status::kWalError);
    EXPECT_EQ(sys.wal().DurableUpto(), 6u);  // the torn batch never acked
  }
  ASSERT_TRUE(backend.Materialize(/*keep_unsynced=*/true));
  VerifyPrefixRecovery(updates, 13);
}

TEST_F(DurabilityTest, CrashMidRotationKeepsChainConsistent) {
  // Crash lands exactly on a segment boundary: the new segment was created
  // but never written. Replay must walk the chain through the empty tip.
  std::vector<Update> updates = MakeUpdates(32);
  FaultInjectingWalBackend::Config cfg;
  cfg.crash_at_bytes = 8 * kRec;  // dies opening record 8's fresh segment
  FaultInjectingWalBackend backend(cfg);
  {
    RisGraphOptions opt;
    opt.wal_path = wal_;
    opt.wal_backend = &backend;
    opt.wal_segment_bytes = 4 * kRec;  // rotate every four records
    RisGraph<> sys(kVertices, opt);
    sys.AddAlgorithm<Bfs>(0);
    sys.InitializeResults();
    Apply(sys, updates, updates.size());
    EXPECT_EQ(sys.WalStatus(), Status::kWalError);
    EXPECT_EQ(sys.wal().DurableUpto(), 8u);
  }
  ASSERT_TRUE(backend.Materialize(/*keep_unsynced=*/true));
  VerifyPrefixRecovery(updates, 8);
}

TEST_F(DurabilityTest, CrashLostFsyncKeepsExactlySyncedPrefix) {
  // Power loss drops the page cache: with fsync-per-flush, the durability
  // watermark counts only synced records, and recovery replays *exactly*
  // that many — the record written-but-not-synced vanishes.
  std::vector<Update> updates = MakeUpdates(32);
  FaultInjectingWalBackend::Config cfg;
  cfg.fail_sync_after = 10;  // syncs 0..9 land; record 10 is written, lost
  FaultInjectingWalBackend backend(cfg);
  uint64_t durable = 0;
  {
    RisGraphOptions opt;
    opt.wal_path = wal_;
    opt.wal_backend = &backend;
    opt.wal_fsync = true;
    RisGraph<> sys(kVertices, opt);
    sys.AddAlgorithm<Bfs>(0);
    sys.InitializeResults();
    Apply(sys, updates, updates.size());
    EXPECT_EQ(sys.WalStatus(), Status::kWalError);
    durable = sys.wal().DurableUpto();
    EXPECT_EQ(durable, 10u);
  }
  ASSERT_TRUE(backend.Materialize(/*keep_unsynced=*/false));
  VerifyPrefixRecovery(updates, durable);
}

//===--- Decoupled pipeline: exec-acked but lost tail -----------------------===//

TEST_F(DurabilityTest, DecoupledCrashLosesOnlyUpdatesNeverAckedDurable) {
  // Async group commit: execution acks race ahead of the flusher. A crash
  // may lose exec-acked updates — but never one whose durability was acked
  // (replayed >= the watermark), and recovery is still an exact prefix.
  std::vector<Update> updates = MakeUpdates(40);
  FaultInjectingWalBackend::Config cfg;
  cfg.crash_at_bytes = 23 * kRec + 11;
  FaultInjectingWalBackend backend(cfg);
  uint64_t durable = 0;
  {
    RisGraphOptions opt;
    opt.wal_path = wal_;
    opt.wal_backend = &backend;
    RisGraph<> sys(kVertices, opt);
    sys.AddAlgorithm<Bfs>(0);
    sys.InitializeResults();
    ServiceOptions so;
    so.async_durability = true;
    so.wal_flush_interval_micros = 500;
    RisGraphService<> service(sys, so);
    service.Start();
    {
      SessionClient<> client(sys, service.pipeline());
      for (const Update& u : updates) client.Submit(u);  // exec acks only
      // All 40 records are appended and sealed; the flusher must cross the
      // fault point within a few intervals.
      ASSERT_TRUE(WaitFor([&] { return service.pipeline().wal_failed(); },
                          5'000'000));
      durable = sys.wal().DurableUpto();
      EXPECT_LT(durable, updates.size());  // the crash beat the flusher

      // Fail-stop visible on every client surface, promptly.
      EXPECT_TRUE(client.wal_failed());
      EXPECT_FALSE(client.WaitDurable(0, 200'000));
      EXPECT_EQ(client.SubmitAsync(updates[0]), ClientStatus::kWalError);
      EXPECT_EQ(client.Submit(updates[0]), kInvalidVersion);
    }
    service.Stop();
  }
  ASSERT_TRUE(backend.Materialize(/*keep_unsynced=*/true));
  uint64_t replayed = WriteAheadLog::Replay(wal_, [](const WalRecord&) {});
  EXPECT_GE(replayed, durable);  // durable prefix always survives
  EXPECT_LE(replayed, updates.size());
  VerifyPrefixRecovery(updates, replayed);
}

TEST_F(DurabilityTest, DecoupledServiceAcksExecutionThenDurability) {
  // Happy path: exec ack first, durability follows; both watermarks land.
  RisGraphOptions opt;
  opt.wal_path = wal_;
  RisGraph<> sys(kVertices, opt);
  sys.AddAlgorithm<Bfs>(0);
  sys.InitializeResults();
  ServiceOptions so;
  so.async_durability = true;
  so.wal_flush_interval_micros = 500;
  RisGraphService<> service(sys, so);
  service.Start();
  {
    SessionClient<> client(sys, service.pipeline());
    VersionId ver = client.Submit(Update::InsertEdge(0, 1, 1));
    ASSERT_NE(ver, kInvalidVersion);
    EXPECT_TRUE(client.WaitDurable(ver, 5'000'000));
    EXPECT_GE(client.DurableThrough(), ver);
    EXPECT_GE(sys.wal().DurableUpto(), 1u);
    EXPECT_FALSE(client.wal_failed());
  }
  service.Stop();
}

TEST_F(DurabilityTest, DecoupledCompactionTruncatesSingleFileLog) {
  // CompactWal on a running, idle async-durability service whose WAL is a
  // single file: there are no closed segments for the flusher to retire, so
  // the log itself must be truncated, and checkpoint + the log written
  // after it must recover the store exactly.
  std::vector<Update> updates = MakeUpdates(40);
  constexpr size_t kBeforeCompaction = 30;
  std::vector<uint64_t> values;
  std::vector<std::tuple<VertexId, VertexId, Weight, uint64_t>> adj;
  {
    RisGraphOptions opt;
    opt.wal_path = wal_;
    RisGraph<> sys(kVertices, opt);
    size_t bfs = sys.AddAlgorithm<Bfs>(0);
    sys.InitializeResults();
    ServiceOptions so;
    so.async_durability = true;
    so.wal_flush_interval_micros = 500;
    RisGraphService<> service(sys, so);
    service.Start();
    {
      SessionClient<> client(sys, service.pipeline());
      for (size_t i = 0; i < kBeforeCompaction; ++i) {
        ASSERT_NE(client.Submit(updates[i]), kInvalidVersion);
      }
      ASSERT_TRUE(sys.wal().WaitDurableLsn(kBeforeCompaction, 5'000'000));
      ASSERT_TRUE(sys.wal().FlusherRunning());
      std::FILE* f = std::fopen(wal_.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      std::fseek(f, 0, SEEK_END);
      EXPECT_EQ(std::ftell(f), long(kBeforeCompaction * kRec));
      std::fclose(f);

      ASSERT_TRUE(CompactWal(sys, ckpt_));
      f = std::fopen(wal_.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      std::fseek(f, 0, SEEK_END);
      EXPECT_EQ(std::ftell(f), 0L) << "compaction left the log at full size";
      std::fclose(f);

      // The log keeps appending after compaction.
      for (size_t i = kBeforeCompaction; i < updates.size(); ++i) {
        ASSERT_NE(client.Submit(updates[i]), kInvalidVersion);
      }
      ASSERT_TRUE(sys.wal().WaitDurableLsn(updates.size(), 5'000'000));
    }
    service.Stop();
    for (VertexId v = 0; v < kVertices; ++v) {
      values.push_back(sys.GetValue(bfs, v));
      sys.store().ForEachOut(v, [&](VertexId d, Weight w, uint64_t c) {
        adj.emplace_back(v, d, w, c);
      });
    }
  }
  RisGraph<> rec(kVertices);
  RecoveryResult r = RecoverRisGraph(rec, ckpt_, wal_);
  EXPECT_TRUE(r.checkpoint_loaded);
  EXPECT_EQ(r.replayed_records, updates.size() - kBeforeCompaction);
  size_t bfs = rec.AddAlgorithm<Bfs>(0);
  rec.InitializeResults();
  std::vector<std::tuple<VertexId, VertexId, Weight, uint64_t>> rec_adj;
  for (VertexId v = 0; v < kVertices; ++v) {
    ASSERT_EQ(rec.GetValue(bfs, v), values[v]) << v;
    rec.store().ForEachOut(v, [&](VertexId d, Weight w, uint64_t c) {
      rec_adj.emplace_back(v, d, w, c);
    });
  }
  EXPECT_EQ(rec_adj, adj) << "recovered adjacency (content or order)";
}

//===--- RPC tier: v2.2 durability acks and fail-stop -----------------------===//

class DurabilityRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "risgraph_durrpc_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    wal_ = base_ + ".wal";
    std::remove(wal_.c_str());
    socket_path_ = "/tmp/risgraph_dur_" +
                   std::to_string(reinterpret_cast<uintptr_t>(this)) + ".sock";
  }

  void Boot(bool with_wal, ServiceOptions so = {},
            WalBackend* backend = nullptr) {
    RisGraphOptions opt;
    if (with_wal) opt.wal_path = wal_;
    opt.wal_backend = backend;
    sys_ = std::make_unique<RisGraph<>>(64, opt);
    bfs_ = sys_->AddAlgorithm<Bfs>(0);
    sys_->InitializeResults();
    service_ = std::make_unique<RisGraphService<>>(*sys_, so);
    server_ = std::make_unique<RpcServer>(*sys_, *service_, socket_path_);
    ASSERT_TRUE(server_->Start(8));
    service_->Start();
  }

  void TearDown() override {
    if (server_) server_->Stop();
    if (service_) service_->Stop();
    sys_.reset();  // the WAL (and its backend_ pointer) dies here, so the
                   // injected backend below must still be alive
    fault_.reset();
    std::remove(wal_.c_str());
  }

  std::string base_, wal_, socket_path_;
  std::unique_ptr<RisGraph<>> sys_;
  size_t bfs_ = 0;
  std::unique_ptr<RisGraphService<>> service_;
  std::unique_ptr<RpcServer> server_;
  // Owned by the fixture, not the test body: WalBackend must outlive the
  // WriteAheadLog that borrows it (the log's Close() releases the backend).
  std::unique_ptr<FaultInjectingWalBackend> fault_;
};

TEST_F(DurabilityRpcTest, DurabilityAcksReachClient) {
  ServiceOptions so;
  so.async_durability = true;
  so.wal_flush_interval_micros = 500;
  Boot(/*with_wal=*/true, so);

  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  EXPECT_EQ(client.protocol_version(), rpc::kProtocolVersion);
  EXPECT_EQ(client.DurableThrough(), 0u);

  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(client.InsEdge(i, i + 1, 1), kInvalidVersion);
  }
  EXPECT_TRUE(client.WaitDurable(0, 5'000'000));
  EXPECT_GT(client.durable_frames_received(), 0u);
  EXPECT_GT(client.DurableThrough(), 0u);
  EXPECT_GT(server_->durability_acks_pushed(), 0u);
  EXPECT_FALSE(client.wal_failed());
  EXPECT_GE(sys_->wal().DurableUpto(), 8u);
  client.Close();
}

TEST_F(DurabilityRpcTest, WaitDurableCoversPipelinedLane) {
  // Pipelined acks mean "queued", not "durable" — but WaitDurable's kFlush
  // anchor drains the lane, so its ack covers everything sent before it.
  ServiceOptions so;
  so.async_durability = true;
  so.wal_flush_interval_micros = 500;
  Boot(/*with_wal=*/true, so);

  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  std::vector<Update> updates;
  for (int i = 0; i < 48; ++i) {
    updates.push_back(Update::InsertEdge(i % 32, (i * 5 + 1) % 32, 1));
  }
  ASSERT_EQ(client.SubmitBatch(updates.data(), updates.size()),
            updates.size());
  ASSERT_TRUE(client.WaitAcks());
  EXPECT_TRUE(client.WaitDurable(0, 5'000'000));
  EXPECT_GE(sys_->wal().DurableUpto(), updates.size());
  client.Close();
}

TEST_F(DurabilityRpcTest, NoWalDurabilityDegeneratesToExecution) {
  // Servers without a WAL still speak v2.2: "durable" means "executed".
  ServiceOptions so;
  so.async_durability = true;
  Boot(/*with_wal=*/false, so);

  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  // Root-reachable edge so results change and the version actually bumps;
  // a second anchor after that epoch fully sealed reports the watermark
  // (DurableThrough is reporting-grade and may lag one epoch).
  ASSERT_NE(client.InsEdge(0, 1, 1), kInvalidVersion);
  ASSERT_NE(client.InsEdge(1, 2, 1), kInvalidVersion);
  EXPECT_TRUE(client.WaitDurable(0, 5'000'000));
  EXPECT_GT(client.DurableThrough(), 0u);
  EXPECT_FALSE(client.wal_failed());
  client.Close();
}

TEST_F(DurabilityRpcTest, WalFailStopSurfacesAsWalErrorAndReadsKeepWorking) {
  FaultInjectingWalBackend::Config cfg;
  cfg.fail_write_at_bytes = 3 * kRec;  // dies on the fourth record
  fault_ = std::make_unique<FaultInjectingWalBackend>(cfg);
  ServiceOptions so;
  so.async_durability = true;
  so.wal_flush_interval_micros = 500;
  Boot(/*with_wal=*/true, so, fault_.get());

  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  bool saw_reject = false;
  for (int i = 0; i < 100 && !saw_reject; ++i) {
    saw_reject = client.InsEdge(i % 32, (i % 32) + 1, 1) == kInvalidVersion;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(saw_reject) << "fail-stop never surfaced on the blocking lane";
  EXPECT_TRUE(client.wal_failed());  // latched off the kWalError response
  EXPECT_FALSE(client.WaitDurable(0, 500'000));

  // Fail-stop kills mutations, not reads.
  EXPECT_TRUE(client.Ping());
  VersionId ver = kInvalidVersion;
  EXPECT_TRUE(client.GetCurrentVersion(&ver));
  EXPECT_NE(ver, kInvalidVersion);

  // The in-process surface over the same pipeline agrees.
  SessionClient<> local(*sys_, service_->pipeline());
  EXPECT_TRUE(local.wal_failed());
  EXPECT_EQ(local.SubmitAsync(Update::InsertEdge(1, 2, 1)),
            ClientStatus::kWalError);
  client.Close();
}

}  // namespace
}  // namespace risgraph

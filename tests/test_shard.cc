// The shard layer (src/shard/): router verdicts, partition-aware store
// halves, the stitched coordinator view, and the property the whole design
// hangs on — shard-count invariance: the same workload driven at
// ingest_shards 1, 2 and 4 must produce bit-identical results, parents,
// versions and safe/unsafe classification verdicts (single-threaded pool:
// the only nondeterminism the baseline itself has is pool interleaving).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/algorithm_api.h"
#include "core/reference.h"
#include "ingest/epoch_pipeline.h"
#include "runtime/client.h"
#include "shard/partition_map.h"
#include "shard/shard_router.h"
#include "shard/sharded_store.h"
#include "workload/rmat.h"
#include "workload/update_stream.h"

namespace risgraph {
namespace {

/// The partitions ForEachOwningShard places an edge's halves on, in order.
std::vector<uint32_t> Owners(const ShardRouter& router, VertexId src,
                             VertexId dst) {
  std::vector<uint32_t> owners;
  router.ForEachOwningShard(Edge{src, dst, 1},
                            [&](uint32_t s) { owners.push_back(s); });
  return owners;
}

TEST(ShardRouterTest, OwnershipAndRouting) {
  ShardRouter router(4, /*keep_transpose=*/true);
  EXPECT_EQ(router.num_shards(), 4u);
  EXPECT_TRUE(router.Partitioned());
  EXPECT_EQ(router.shard_of(0), 0u);
  EXPECT_EQ(router.shard_of(7), 3u);

  // Local: src and dst resolve to one partition, which gets both halves.
  EXPECT_EQ(Owners(router, 4, 8), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Owners(router, 5, 13), (std::vector<uint32_t>{1}));
  // Cross: the out-half on OwnerOf(src), then the in-half on OwnerOf(dst).
  EXPECT_EQ(Owners(router, 4, 5), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Owners(router, 7, 2), (std::vector<uint32_t>{3, 2}));

  // No transpose: only the out-half exists, so locality is OwnerOf(src).
  ShardRouter no_transpose(4, /*keep_transpose=*/false);
  EXPECT_EQ(Owners(no_transpose, 4, 5), (std::vector<uint32_t>{0}));

  // N = 1 degenerates to a single always-local shard.
  ShardRouter single(1, true);
  EXPECT_FALSE(single.Partitioned());
  EXPECT_EQ(Owners(single, 123, 456), (std::vector<uint32_t>{0}));
}

TEST(PartitionMapTest, TableMapResolvesAndFallsBackToModulo) {
  // Table covering vertices 0..5 with a deliberately non-modulo layout.
  TablePartitionMap map({0, 0, 1, 1, 0, 1}, /*built_for_shards=*/2);
  EXPECT_EQ(map.OwnerOf(0, 2), 0u);
  EXPECT_EQ(map.OwnerOf(1, 2), 0u);  // modulo would say 1
  EXPECT_EQ(map.OwnerOf(2, 2), 1u);  // modulo would say 0
  EXPECT_EQ(map.OwnerOf(5, 2), 1u);
  // Past the table: modulo fallback keeps the map total.
  EXPECT_EQ(map.OwnerOf(7, 2), 1u);
  EXPECT_EQ(map.OwnerOf(100, 2), 0u);
  // Consulted at a smaller shard count than built for: entries naming an
  // out-of-range shard fall back to modulo, so OwnerOf stays in range.
  TablePartitionMap wide({3, 3, 3}, 4);
  EXPECT_EQ(wide.OwnerOf(0, 2), 0u);
  EXPECT_EQ(wide.OwnerOf(1, 2), 1u);

  // A VertexPartition carrying the map resolves through it.
  auto shared = std::make_shared<TablePartitionMap>(
      std::vector<uint32_t>{0, 0, 1, 1, 0, 1}, 2u);
  VertexPartition p{1, 2, shared};
  EXPECT_TRUE(p.Owns(2));
  EXPECT_FALSE(p.Owns(1));
  // num_shards <= 1 short-circuits before the map (unpartitioned is free).
  VertexPartition single{0, 1, shared};
  EXPECT_EQ(single.OwnerOf(2), 0u);
}

TEST(PartitionMapTest, RouterHonorsInstalledMap) {
  // Map that puts 0..3 on shard 0 and 4..7 on shard 1 (range partitioning —
  // the opposite of modulo's round-robin).
  auto map = std::make_shared<TablePartitionMap>(
      std::vector<uint32_t>{0, 0, 0, 0, 1, 1, 1, 1}, 2u);
  ShardRouter router(2, /*keep_transpose=*/true, map);
  EXPECT_EQ(router.shard_of(1), 0u);
  EXPECT_EQ(router.shard_of(5), 1u);
  // Half placement follows the map: 0 -> 1 is modulo-cross but map-local;
  // 3 -> 4 straddles the range split.
  EXPECT_EQ(Owners(router, 0, 1), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Owners(router, 3, 4), (std::vector<uint32_t>{0, 1}));
  // OwnershipOf must carry the map so stores and engines agree with routing.
  VertexPartition owned = router.OwnershipOf(1);
  EXPECT_EQ(owned.map, map);
  EXPECT_TRUE(owned.Owns(6));
  EXPECT_FALSE(owned.Owns(2));
}

TEST(PartitionMapTest, GreedyAssignerCutsEdgesDeterministicallyAndBalances) {
  RmatParams rmat;
  rmat.scale = 10;
  rmat.num_edges = 16000;
  rmat.seed = 5;
  std::vector<Edge> warmup = GenerateRmat(rmat);
  const uint64_t n_vertices = uint64_t{1} << rmat.scale;
  const uint32_t n_shards = 4;

  LocalityMapOptions lopt;
  auto map = BuildLocalityMap(n_vertices, n_shards, warmup, lopt);
  ASSERT_EQ(map->built_for_shards(), n_shards);
  ASSERT_EQ(map->table_size(), n_vertices);

  // Deterministic: same inputs, same table.
  auto again = BuildLocalityMap(n_vertices, n_shards, warmup, lopt);
  EXPECT_EQ(map->Table(), again->Table());

  auto cut_fraction = [&](auto owner_of) {
    uint64_t cut = 0;
    for (const Edge& e : warmup) {
      if (owner_of(e.src) != owner_of(e.dst)) cut++;
    }
    return static_cast<double>(cut) / static_cast<double>(warmup.size());
  };
  double modulo_cut = cut_fraction(
      [&](VertexId v) { return static_cast<uint32_t>(v % n_shards); });
  double locality_cut =
      cut_fraction([&](VertexId v) { return map->OwnerOf(v, n_shards); });
  // Power-law + modulo is the worst case (~(N-1)/N); the greedy assigner
  // must beat it by a wide margin on its own warmup.
  EXPECT_GT(modulo_cut, 0.6);
  EXPECT_LT(locality_cut, modulo_cut / 2);

  // Balance: no shard exceeds the slack-scaled fair share of seen vertices.
  std::vector<uint64_t> load(n_shards, 0);
  std::vector<uint8_t> seen(n_vertices, 0);
  for (const Edge& e : warmup) {
    seen[e.src] = 1;
    seen[e.dst] = 1;
  }
  uint64_t n_seen = 0;
  for (VertexId v = 0; v < n_vertices; ++v) {
    if (seen[v]) {
      n_seen++;
      load[map->OwnerOf(v, n_shards)]++;
    }
  }
  double capacity = lopt.capacity_slack *
                    static_cast<double>((n_seen + n_shards - 1) / n_shards);
  for (uint32_t s = 0; s < n_shards; ++s) {
    EXPECT_LE(static_cast<double>(load[s]), capacity + 1.0) << "shard " << s;
  }
}

TEST(PartitionMapTest, SidecarRoundTripsAndRejectsCorruption) {
  std::string path = testing::TempDir() + "/pmap_roundtrip.pmap";
  auto map = std::make_shared<TablePartitionMap>(
      std::vector<uint32_t>{2, 0, 1, 2, 1, 0, 0, 3}, 4u);
  ASSERT_TRUE(SavePartitionMap(*map, 4, path));

  PartitionMapFile loaded = LoadPartitionMap(path);
  ASSERT_TRUE(loaded.ok);
  EXPECT_EQ(loaded.num_shards, 4u);
  ASSERT_NE(loaded.map, nullptr);
  EXPECT_EQ(loaded.map->Table(), map->Table());

  // Pure-function maps persist nothing (and must not clobber a sidecar).
  ModuloPartitionMap modulo;
  std::string none = testing::TempDir() + "/pmap_none.pmap";
  EXPECT_TRUE(SavePartitionMap(modulo, 4, none));
  EXPECT_FALSE(LoadPartitionMap(none).ok);

  // Flip one payload byte: the CRC must reject the file.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 20, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 20, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadPartitionMap(path).ok);
  EXPECT_FALSE(LoadPartitionMap(path + ".missing").ok);
}

TEST(PartitionAwareStoreTest, AppliesOnlyOwnedHalves) {
  StoreOptions opt;
  opt.partition = VertexPartition{1, 2};  // owns odd vertices
  GraphStore<HashIndex, false> store(8, opt);

  // Cross edge 2 -> 3: this partition owns only the in-half (dst = 3).
  store.InsertEdge(Edge{2, 3, 1});
  EXPECT_EQ(store.NumEdges(), 0u);        // counts owned-src edges only
  EXPECT_EQ(store.OutDegree(2), 0u);      // out-half not owned
  EXPECT_EQ(store.InDegree(3), 1u);       // in-half owned
  // Local edge 3 -> 5: both halves owned.
  store.InsertEdge(Edge{3, 5, 1});
  EXPECT_EQ(store.NumEdges(), 1u);
  EXPECT_EQ(store.OutDegree(3), 1u);
  EXPECT_EQ(store.InDegree(5), 1u);

  // Deleting the in-half-only edge must not touch the (unowned) out side.
  store.DeleteEdge(Edge{2, 3, 1});
  EXPECT_EQ(store.InDegree(3), 0u);
  EXPECT_EQ(store.NumEdges(), 1u);
}

// The stitched view must be indistinguishable from the unsharded store:
// identical edge counts, degrees, and — crucially for bit-identical
// propagation — identical per-vertex adjacency iteration ORDER.
TEST(ShardedStoreTest, StitchedViewMatchesUnshardedStore) {
  constexpr uint64_t kVertices = 64;
  StoreOptions sharded_opt;
  sharded_opt.partition.num_shards = 4;
  ShardedGraphStore<> sharded(kVertices, sharded_opt);
  DefaultGraphStore plain(kVertices);
  EXPECT_EQ(sharded.num_shards(), 4u);

  Rng rng(42);
  std::vector<Edge> live;
  for (int i = 0; i < 4000; ++i) {
    bool insert = live.empty() || rng.NextBounded(100) < 60;
    Edge e;
    if (insert) {
      e = Edge{rng.NextBounded(kVertices), rng.NextBounded(kVertices),
               1 + rng.NextBounded(4)};
      live.push_back(e);
      EXPECT_EQ(sharded.InsertEdge(e), plain.InsertEdge(e));
    } else if (rng.NextBounded(8) == 0) {
      // Spurious delete (edge likely absent): both must agree on kNotFound.
      e = Edge{rng.NextBounded(kVertices), rng.NextBounded(kVertices), 9};
      EXPECT_EQ(sharded.DeleteEdge(e), plain.DeleteEdge(e));
    } else {
      size_t pick = rng.NextBounded(live.size());
      e = live[pick];
      live[pick] = live.back();
      live.pop_back();
      EXPECT_EQ(sharded.DeleteEdge(e), plain.DeleteEdge(e));
    }
  }

  ASSERT_EQ(sharded.NumEdges(), plain.NumEdges());
  for (VertexId v = 0; v < kVertices; ++v) {
    ASSERT_EQ(sharded.OutDegree(v), plain.OutDegree(v)) << v;
    ASSERT_EQ(sharded.InDegree(v), plain.InDegree(v)) << v;
    std::vector<std::tuple<VertexId, Weight, uint64_t>> a, b;
    sharded.ForEachOut(v, [&](VertexId d, Weight w, uint64_t c) {
      a.emplace_back(d, w, c);
    });
    plain.ForEachOut(v, [&](VertexId d, Weight w, uint64_t c) {
      b.emplace_back(d, w, c);
    });
    ASSERT_EQ(a, b) << "out-adjacency (content or order) diverged at " << v;
    a.clear();
    b.clear();
    sharded.ForEachIn(v, [&](VertexId s, Weight w, uint64_t c) {
      a.emplace_back(s, w, c);
    });
    plain.ForEachIn(v, [&](VertexId s, Weight w, uint64_t c) {
      b.emplace_back(s, w, c);
    });
    ASSERT_EQ(a, b) << "in-adjacency diverged at " << v;
  }
}

TEST(ShardedStoreTest, VertexLifecycleMatchesUnsharded) {
  StoreOptions opt;
  opt.partition.num_shards = 2;
  ShardedGraphStore<> sharded(4, opt);
  DefaultGraphStore plain(4);

  EXPECT_EQ(sharded.AddVertex(), plain.AddVertex());  // fresh id 4
  sharded.InsertEdge(Edge{4, 1, 1});
  plain.InsertEdge(Edge{4, 1, 1});
  EXPECT_FALSE(sharded.RemoveVertex(4));  // still has an edge
  EXPECT_FALSE(plain.RemoveVertex(4));
  sharded.DeleteEdge(Edge{4, 1, 1});
  plain.DeleteEdge(Edge{4, 1, 1});
  EXPECT_TRUE(sharded.RemoveVertex(4));
  EXPECT_TRUE(plain.RemoveVertex(4));
  // Recycled-pool-first allocation, like the unsharded store.
  EXPECT_EQ(sharded.AddVertex(), plain.AddVertex());
  EXPECT_EQ(sharded.NumVertices(), plain.NumVertices());
}

//===--------------------------------------------------------------------===//
// Shard-count invariance (the acceptance property)
//===--------------------------------------------------------------------===//

struct DriveOutcome {
  std::vector<uint64_t> values[2];   // per algorithm (BFS, SSSP)
  std::vector<VertexId> parents[2];  // dependency-tree parents
  VersionId version = 0;
  uint64_t safe_ops = 0;
  uint64_t unsafe_ops = 0;
  uint64_t completed_ops = 0;
  uint64_t num_edges = 0;
};

/// Drives the full pipeline (pack -> WAL-less group commit -> per-owner
/// safe-phase lanes -> sequential unsafe lane) with ONE pipelined
/// session plus a tail of blocking transactions. A single session keeps the
/// claim order equal to the submission order whatever the epoch boundaries
/// land on, and the packer classifies one item at a time in claim order —
/// so with a 1-thread pool the outcome is a pure function of the workload,
/// and must not depend on the shard count.
template <typename Store>
DriveOutcome DriveWorkload(const StreamWorkload& wl, uint32_t num_shards,
                           std::shared_ptr<const PartitionMap> map = nullptr) {
  RisGraphOptions opt;
  opt.store.partition.num_shards = num_shards;
  opt.store.partition.map = std::move(map);
  RisGraph<Store> sys(wl.num_vertices, opt);
  size_t algos[2] = {sys.template AddAlgorithm<Bfs>(0),
                     sys.template AddAlgorithm<Sssp>(0)};
  sys.LoadGraph(wl.preload);
  sys.InitializeResults();

  ServiceOptions so;
  EpochPipeline<Store> pipeline(sys, so);
  SessionClient<Store> stream_client(sys, pipeline);
  SessionClient<Store> txn_client(sys, pipeline);
  pipeline.Start();
  for (const Update& u : wl.updates) {
    stream_client.SubmitAsync(u);
  }
  stream_client.Flush();
  // Blocking transactions: some land whole on one shard, some span shards,
  // some are unsafe.
  for (uint64_t t = 0; t < 16; ++t) {
    VertexId a = (3 * t) % wl.num_vertices;
    VertexId b = (3 * t + 1) % wl.num_vertices;
    std::vector<Update> txn = {Update::InsertEdge(a, b, 1 + t % 3),
                               Update::InsertEdge(a, a, 2),
                               Update::DeleteEdge(a, b, 1 + t % 3)};
    txn_client.SubmitTxn(txn);
  }
  pipeline.Stop();

  DriveOutcome out;
  for (int k = 0; k < 2; ++k) {
    for (VertexId v = 0; v < wl.num_vertices; ++v) {
      out.values[k].push_back(sys.GetValue(algos[k], v));
      out.parents[k].push_back(sys.algorithm(algos[k]).Parent(v).parent);
    }
  }
  out.version = sys.GetCurrentVersion();
  out.safe_ops = pipeline.safe_ops();
  out.unsafe_ops = pipeline.unsafe_ops();
  out.completed_ops = pipeline.completed_ops();
  out.num_edges = sys.store().NumEdges();
  return out;
}

TEST(ShardCountInvarianceTest, IdenticalResultsVerdictsAndVersionsAt124) {
  // 1-thread pool: the baseline's only nondeterminism is pool interleaving;
  // with it pinned, every config must agree bit for bit.
  ThreadPool::ResetGlobal(1);

  RmatParams rmat;
  rmat.scale = 8;
  rmat.num_edges = 3000;
  rmat.max_weight = 4;
  rmat.seed = 7;
  StreamOptions so;
  so.preload_fraction = 0.5;
  so.insert_fraction = 0.6;
  so.seed = 11;
  StreamWorkload wl =
      BuildStream(uint64_t{1} << rmat.scale, GenerateRmat(rmat), so);

  DriveOutcome base = DriveWorkload<DefaultGraphStore>(wl, 1);
  ASSERT_GT(base.unsafe_ops, 0u);  // the workload must exercise both lanes
  ASSERT_GT(base.safe_ops, 0u);

  for (uint32_t shards : {1u, 2u, 4u}) {
    DriveOutcome got = DriveWorkload<ShardedGraphStore<>>(wl, shards);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    for (int k = 0; k < 2; ++k) {
      ASSERT_EQ(got.values[k], base.values[k]) << "algorithm " << k;
      ASSERT_EQ(got.parents[k], base.parents[k]) << "algorithm " << k;
    }
    EXPECT_EQ(got.version, base.version);
    EXPECT_EQ(got.safe_ops, base.safe_ops);      // classification verdicts
    EXPECT_EQ(got.unsafe_ops, base.unsafe_ops);  // are shard-count-invariant
    EXPECT_EQ(got.completed_ops, base.completed_ops);
    EXPECT_EQ(got.num_edges, base.num_edges);
  }

  ThreadPool::ResetGlobal(0);
}

// The same anchor under a non-trivial locality map and under modulo
// ownership: ownership decides only WHERE halves live, never what they
// contain or the order they apply in, and the lock-free lanes are
// partition-exclusive by construction — so every map must reproduce the
// unsharded baseline bit for bit.
TEST(ShardCountInvarianceTest, IdenticalUnderLocalityAndModuloMaps) {
  ThreadPool::ResetGlobal(1);

  RmatParams rmat;
  rmat.scale = 8;
  rmat.num_edges = 3000;
  rmat.max_weight = 4;
  rmat.seed = 7;
  StreamOptions so;
  so.preload_fraction = 0.5;
  so.insert_fraction = 0.6;
  so.seed = 11;
  StreamWorkload wl =
      BuildStream(uint64_t{1} << rmat.scale, GenerateRmat(rmat), so);

  DriveOutcome base = DriveWorkload<DefaultGraphStore>(wl, 1);
  ASSERT_GT(base.unsafe_ops, 0u);
  ASSERT_GT(base.safe_ops, 0u);

  for (uint32_t shards : {1u, 2u, 4u}) {
    auto map = BuildLocalityMap(wl.num_vertices, shards, wl.preload);
    // Sanity: at N > 1 the map must differ from modulo somewhere, or the
    // run would not exercise non-trivial ownership at all.
    if (shards > 1) {
      bool differs = false;
      std::vector<uint32_t> table = map->Table();
      for (VertexId v = 0; v < table.size() && !differs; ++v) {
        differs = table[v] != static_cast<uint32_t>(v % shards);
      }
      ASSERT_TRUE(differs) << "locality map degenerated to modulo";
    }
    struct Config {
      std::shared_ptr<const PartitionMap> map;
      const char* name;
    } configs[] = {
        {map, "locality"},
        {nullptr, "modulo"},
    };
    for (const Config& cfg : configs) {
      SCOPED_TRACE(std::string(cfg.name) +
                   " shards=" + std::to_string(shards));
      DriveOutcome got =
          DriveWorkload<ShardedGraphStore<>>(wl, shards, cfg.map);
      for (int k = 0; k < 2; ++k) {
        ASSERT_EQ(got.values[k], base.values[k]) << "algorithm " << k;
        ASSERT_EQ(got.parents[k], base.parents[k]) << "algorithm " << k;
      }
      EXPECT_EQ(got.version, base.version);
      EXPECT_EQ(got.safe_ops, base.safe_ops);
      EXPECT_EQ(got.unsafe_ops, base.unsafe_ops);
      EXPECT_EQ(got.completed_ops, base.completed_ops);
      EXPECT_EQ(got.num_edges, base.num_edges);
    }
  }

  ThreadPool::ResetGlobal(0);
}

// Cross-shard updates are the new locality class: the pipeline must see and
// count them under a partitioned store, and results must still match a
// from-scratch recompute (multi-threaded pool: values are a deterministic
// fixpoint even when parents race).
TEST(ShardCountInvarianceTest, CrossShardOpsCountedAndResultsConverge) {
  constexpr uint64_t kVertices = 256;
  RisGraphOptions opt;
  opt.store.partition.num_shards = 4;
  RisGraph<ShardedGraphStore<>> sys(kVertices, opt);
  size_t bfs = sys.AddAlgorithm<Bfs>(0);
  sys.InitializeResults();

  EpochPipeline<ShardedGraphStore<>> pipeline(sys);
  SessionClient<ShardedGraphStore<>> client(sys, pipeline);
  pipeline.Start();
  // A chain 0 -> 1 -> 2 -> ... : consecutive ids always live on different
  // partitions at N = 4, so every insertion is cross-shard; each is unsafe
  // (extends the BFS tree), and the duplicate re-insertions behind it are
  // safe cross-shard traffic for the fanned lanes.
  for (VertexId v = 0; v + 1 < kVertices; ++v) {
    client.Submit(Update::InsertEdge(v, v + 1));
  }
  std::vector<Update> dups;
  for (VertexId v = 0; v + 1 < kVertices; ++v) {
    dups.push_back(Update::InsertEdge(v, v + 1));
  }
  for (const Update& u : dups) client.SubmitAsync(u);
  client.Flush();
  pipeline.Stop();

  EXPECT_GT(pipeline.cross_shard_ops(), 0u);
  auto ref = ReferenceCompute<Bfs>(sys.store(), 0);
  for (VertexId v = 0; v < kVertices; ++v) {
    ASSERT_EQ(sys.GetValue(bfs, v), ref[v]) << v;
    ASSERT_EQ(sys.store().EdgeCount(v, EdgeKey{v + 1, 1}),
              v + 1 < kVertices ? 2u : 0u);
  }
}

// The one safe phase (ingest/epoch_pipeline.h): lock-free per-owner apply
// lanes — `v % (4 * pool width)` over an unpartitioned store, the partitions
// of a sharded one — run inline on the coordinator for epochs of <= 16
// updates and forked across the pool above that. Each vertex has one writer
// that sees its halves in claim order, so every configuration must end
// bit-identical (values, parents, version, adjacency content and order) to
// the serial Interactive-API replay of the claim order.
//
// The apply order is made known: one ingest ring fed by one submitting
// thread, each burst gives every session at most one update (the pipeline
// applies an epoch's pipelined updates grouped by session, so this keeps the
// apply order equal to the claim order wherever the epoch boundaries fall),
// and
// the pipelined traffic is safe by construction, so no session ever freezes
// and nothing is deferred. Edges into the root (hub vertex 0, written from
// every session) can never improve the root nor be a tree edge; edges
// inside the island [kIsland, kLaneVertices) (a second hub, kIsland) start
// at unreachable vertices. Unsafe-capable traffic rides one blocking
// session, one request at a time, between the pipelined bursts.
constexpr uint64_t kLaneVertices = 256;
constexpr VertexId kIsland = 200;

struct LaneOutcome {
  std::vector<uint64_t> values[2];
  std::vector<VertexId> parents[2];
  VersionId version = 0;
  uint64_t num_edges = 0;
  std::vector<std::vector<std::tuple<VertexId, Weight, uint64_t>>> adjacency;
  bool inline_epoch = false;  // an epoch of 1..16 safe updates ran
  bool forked_epoch = false;  // an epoch of > 16 safe updates ran
};

template <typename Store>
LaneOutcome Capture(RisGraph<Store>& sys, const size_t (&algos)[2]) {
  LaneOutcome out;
  for (int k = 0; k < 2; ++k) {
    for (VertexId v = 0; v < kLaneVertices; ++v) {
      out.values[k].push_back(sys.GetValue(algos[k], v));
      out.parents[k].push_back(sys.algorithm(algos[k]).Parent(v).parent);
    }
  }
  out.version = sys.GetCurrentVersion();
  out.num_edges = sys.store().NumEdges();
  for (VertexId v = 0; v < kLaneVertices; ++v) {
    out.adjacency.emplace_back();
    sys.store().ForEachOut(v, [&](VertexId d, Weight w, uint64_t c) {
      out.adjacency.back().emplace_back(d, w, c);
    });
    out.adjacency.emplace_back();
    sys.store().ForEachIn(v, [&](VertexId src, Weight w, uint64_t c) {
      out.adjacency.back().emplace_back(src, w, c);
    });
  }
  return out;
}

std::vector<Edge> LanePreload() {
  std::vector<Edge> preload;
  Rng rng(5);
  for (VertexId v = 0; v + 1 < kIsland; ++v) {
    preload.push_back(Edge{v, v + 1, 1 + rng.NextBounded(3)});
  }
  for (int i = 0; i < 400; ++i) {
    preload.push_back(Edge{rng.NextBounded(kIsland), rng.NextBounded(kIsland),
                           1 + rng.NextBounded(3)});
    VertexId a = kIsland + rng.NextBounded(kLaneVertices - kIsland);
    VertexId b = kIsland + rng.NextBounded(kLaneVertices - kIsland);
    preload.push_back(Edge{a, b, 1 + rng.NextBounded(3)});
  }
  return preload;
}

/// One pipelined update that is safe whatever the current state.
Update SafeLaneUpdate(Rng& rng) {
  Weight w = 1 + rng.NextBounded(3);
  VertexId x = 1 + rng.NextBounded(kLaneVertices - 1);
  VertexId a = kIsland + rng.NextBounded(kLaneVertices - kIsland);
  VertexId b = kIsland + rng.NextBounded(kLaneVertices - kIsland);
  switch (rng.NextBounded(4)) {
    case 0:
      return Update::InsertEdge(x, 0, w);
    case 1:
      return Update::DeleteEdge(x, 0, w);
    case 2:
      return Update::InsertEdge(rng.NextBool(0.5) ? kIsland : a, b, w);
    default:
      return Update::DeleteEdge(a, rng.NextBool(0.5) ? kIsland : b, w);
  }
}

/// Drives three rounds of: a > 16-update pipelined burst pushed while the
/// coordinator is stopped (claimed as one forked epoch), bursts of 1..16
/// pipelined updates (inline epochs), then blocking updates inside the
/// reachable region. Burst update i goes to session i. Appends the claim
/// order to `order` and the indexes of the pipelined (must-be-safe) updates
/// to `safe_idx`.
template <typename Store>
LaneOutcome DriveLanes(uint32_t num_shards, size_t pool_width,
                       std::vector<Update>* order,
                       std::vector<size_t>* safe_idx) {
  constexpr int kSessions = 64;
  RisGraphOptions opt;
  opt.store.partition.num_shards = num_shards;
  RisGraph<Store> sys(kLaneVertices, opt);
  size_t algos[2] = {sys.template AddAlgorithm<Bfs>(0),
                     sys.template AddAlgorithm<Sssp>(0)};
  sys.LoadGraph(LanePreload());
  sys.InitializeResults();

  ThreadPool lane_pool(pool_width);
  ServiceOptions so;
  so.ingest_shards = 1;  // one FIFO ring: claim order = submission order
  so.record_epoch_stats = true;
  EpochPipeline<Store> pipeline(sys, so, &lane_pool);
  std::vector<Session*> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(pipeline.OpenSession());
  }
  Session* blocking = pipeline.OpenSession();

  Rng rng(17);
  auto submit_safe = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Update u = SafeLaneUpdate(rng);
      safe_idx->push_back(order->size());
      order->push_back(u);
      sessions[i]->SubmitAsync(u);
    }
  };
  auto drain = [&] {
    for (Session* s : sessions) s->DrainAsync();
  };
  for (int round = 0; round < 3; ++round) {
    submit_safe(40 + 12 * round);  // one epoch, forked
    pipeline.Start();
    drain();
    for (int burst = 0; burst < 12; ++burst) {
      submit_safe(1 + static_cast<int>(rng.NextBounded(16)));  // inline
      drain();
    }
    for (int i = 0; i < 40; ++i) {
      VertexId a = rng.NextBounded(kIsland);
      VertexId b = 1 + rng.NextBounded(kIsland - 1);
      Weight w = 1 + rng.NextBounded(3);
      Update u = rng.NextBool(0.6) ? Update::InsertEdge(a, b, w)
                                   : Update::DeleteEdge(a, b, w);
      order->push_back(u);
      blocking->Submit(u);
    }
    pipeline.Stop();
  }

  EXPECT_EQ(pipeline.completed_ops(), order->size());
  EXPECT_GT(pipeline.unsafe_ops(), 0u);
  LaneOutcome out = Capture(sys, algos);
  for (const EpochStat& e : pipeline.epoch_stats()) {
    if (e.safe_ops > EpochPipeline<Store>::kInlineSafeUpdates) {
      out.forked_epoch = true;
    } else if (e.safe_ops > 0) {
      out.inline_epoch = true;
    }
  }
  return out;
}

TEST(SafePhaseLanesTest, InlineAndForkedLanesMatchSerialReplay) {
  // Engine parents are deterministic only on a 1-thread engine pool; the
  // lanes get their own pool of the width under test.
  ThreadPool::ResetGlobal(1);
  struct Config {
    bool sharded;
    uint32_t n;  // pool width (unsharded) or shard count (sharded)
  } configs[] = {{false, 1}, {false, 2}, {false, 4},
                 {true, 1},  {true, 2},  {true, 4}};
  for (const Config& cfg : configs) {
    SCOPED_TRACE(std::string(cfg.sharded ? "shards=" : "pool width=") +
                 std::to_string(cfg.n));
    std::vector<Update> order;
    std::vector<size_t> safe_idx;
    LaneOutcome got =
        cfg.sharded
            ? DriveLanes<ShardedGraphStore<>>(cfg.n, 4, &order, &safe_idx)
            : DriveLanes<DefaultGraphStore>(1, cfg.n, &order, &safe_idx);
    EXPECT_TRUE(got.inline_epoch);
    EXPECT_TRUE(got.forked_epoch);

    // The serial Interactive-API replay of the claim order.
    RisGraph<> serial(kLaneVertices);
    size_t algos[2] = {serial.AddAlgorithm<Bfs>(0),
                       serial.AddAlgorithm<Sssp>(0)};
    serial.LoadGraph(LanePreload());
    serial.InitializeResults();
    size_t next_safe = 0;
    for (size_t i = 0; i < order.size(); ++i) {
      const Update& u = order[i];
      if (next_safe < safe_idx.size() && safe_idx[next_safe] == i) {
        ASSERT_TRUE(serial.IsUpdateSafe(u)) << "pipelined update " << i;
        ++next_safe;
      }
      u.kind == UpdateKind::kInsertEdge
          ? serial.InsEdge(u.edge.src, u.edge.dst, u.edge.weight)
          : serial.DelEdge(u.edge.src, u.edge.dst, u.edge.weight);
    }
    LaneOutcome want = Capture(serial, algos);
    for (int k = 0; k < 2; ++k) {
      EXPECT_EQ(got.values[k], want.values[k]) << "algorithm " << k;
      EXPECT_EQ(got.parents[k], want.parents[k]) << "algorithm " << k;
    }
    EXPECT_EQ(got.version, want.version);
    EXPECT_EQ(got.num_edges, want.num_edges);
    EXPECT_EQ(got.adjacency, want.adjacency);
  }
  ThreadPool::ResetGlobal(0);
}

}  // namespace
}  // namespace risgraph

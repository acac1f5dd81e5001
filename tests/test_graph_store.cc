#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "storage/graph_store.h"

namespace risgraph {
namespace {

TEST(GraphStore, InsertAndIterateBothDirections) {
  DefaultGraphStore store(5);
  store.InsertEdge(Edge{0, 1, 10});
  store.InsertEdge(Edge{0, 2, 20});
  store.InsertEdge(Edge{3, 1, 30});
  EXPECT_EQ(store.NumEdges(), 3u);
  EXPECT_EQ(store.OutDegree(0), 2u);
  EXPECT_EQ(store.InDegree(1), 2u);

  std::map<VertexId, Weight> out0;
  store.ForEachOut(0, [&](VertexId dst, Weight w, uint64_t) { out0[dst] = w; });
  EXPECT_EQ(out0, (std::map<VertexId, Weight>{{1, 10}, {2, 20}}));

  std::map<VertexId, Weight> in1;
  store.ForEachIn(1, [&](VertexId src, Weight w, uint64_t) { in1[src] = w; });
  EXPECT_EQ(in1, (std::map<VertexId, Weight>{{0, 10}, {3, 30}}));
}

TEST(GraphStore, DeleteKeepsTransposeConsistent) {
  DefaultGraphStore store(4);
  store.InsertEdge(Edge{0, 1, 5});
  store.InsertEdge(Edge{0, 1, 5});  // duplicate
  EXPECT_EQ(store.DeleteEdge(Edge{0, 1, 5}), DeleteResult::kDecremented);
  EXPECT_EQ(store.EdgeCount(0, EdgeKey{1, 5}), 1u);
  uint64_t in_count = 0;
  store.ForEachIn(1, [&](VertexId, Weight, uint64_t c) { in_count = c; });
  EXPECT_EQ(in_count, 1u);
  EXPECT_EQ(store.DeleteEdge(Edge{0, 1, 5}), DeleteResult::kRemoved);
  EXPECT_EQ(store.InDegree(1), 0u);
  EXPECT_EQ(store.DeleteEdge(Edge{0, 1, 5}), DeleteResult::kNotFound);
  EXPECT_EQ(store.NumEdges(), 0u);
}

TEST(GraphStore, VertexAddRemoveRecycle) {
  DefaultGraphStore store(2);
  VertexId v = store.AddVertex();
  EXPECT_EQ(v, 2u);
  store.InsertEdge(Edge{v, 0, 1});
  EXPECT_FALSE(store.RemoveVertex(v));  // not isolated
  store.DeleteEdge(Edge{v, 0, 1});
  EXPECT_TRUE(store.RemoveVertex(v));
  EXPECT_EQ(store.AddVertex(), v);  // id recycled
  // Removing a vertex with only in-edges is also rejected.
  VertexId u = store.AddVertex();
  store.InsertEdge(Edge{0, u, 1});
  EXPECT_FALSE(store.RemoveVertex(u));
}

/// Adjacency content and iteration order of every vertex, both directions.
std::vector<std::vector<std::tuple<VertexId, Weight, uint64_t>>> Snapshot(
    const DefaultGraphStore& store) {
  std::vector<std::vector<std::tuple<VertexId, Weight, uint64_t>>> lists;
  for (VertexId v = 0; v < store.NumVertices(); ++v) {
    lists.emplace_back();
    store.ForEachOut(v, [&](VertexId d, Weight w, uint64_t c) {
      lists.back().emplace_back(d, w, c);
    });
    lists.emplace_back();
    store.ForEachIn(v, [&](VertexId s, Weight w, uint64_t c) {
      lists.back().emplace_back(s, w, c);
    });
  }
  return lists;
}

/// The store's concurrency contract: one writer per vertex. kThreads lanes
/// each walk the same update stream in order and apply only the halves their
/// lane owns (ApplyOwned with {lane, kThreads}); the result must equal a
/// serial replay, content and order.
void ApplyOnLanes(DefaultGraphStore& store, const std::vector<Update>& ups,
                  uint32_t lanes) {
  std::vector<std::thread> threads;
  for (uint32_t l = 0; l < lanes; ++l) {
    threads.emplace_back([&store, &ups, l, lanes] {
      VertexPartition owner{l, lanes, nullptr};
      for (const Update& u : ups) store.ApplyOwned(owner, u);
    });
  }
  for (auto& th : threads) th.join();
}

TEST(GraphStore, ConcurrentInsertsOnDisjointAndSharedVertices) {
  constexpr uint32_t kThreads = 8;
  constexpr int kPerThread = 2000;
  // Every thread's updates, interleaved round-robin; half of each thread's
  // traffic has src = 0, so vertex 0 is a hub written from all of them.
  std::vector<Update> ups;
  std::vector<Rng> rngs;
  for (uint32_t t = 0; t < kThreads; ++t) rngs.emplace_back(t);
  for (int i = 0; i < kPerThread; ++i) {
    for (uint32_t t = 0; t < kThreads; ++t) {
      VertexId src = (i % 2 == 0) ? 0 : rngs[t].NextBounded(64);
      VertexId dst = rngs[t].NextBounded(64);
      ups.push_back(
          Update::InsertEdge(src, dst, static_cast<Weight>(t + 1)));
    }
  }
  DefaultGraphStore store(64);
  ApplyOnLanes(store, ups, kThreads);
  DefaultGraphStore serial(64);
  for (const Update& u : ups) serial.InsertEdge(u.edge);

  EXPECT_EQ(store.NumEdges(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(Snapshot(store), Snapshot(serial));
  // Out-edge totals must equal in-edge totals (transpose consistency).
  uint64_t out_total = 0;
  uint64_t in_total = 0;
  for (VertexId v = 0; v < 64; ++v) {
    store.ForEachOut(v, [&](VertexId, Weight, uint64_t c) { out_total += c; });
    store.ForEachIn(v, [&](VertexId, Weight, uint64_t c) { in_total += c; });
  }
  EXPECT_EQ(out_total, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(in_total, uint64_t{kThreads} * kPerThread);
}

TEST(GraphStore, ConcurrentMixedInsertDelete) {
  constexpr uint32_t kThreads = 8;
  auto preload = [](DefaultGraphStore& store) {
    // A dense small graph, every edge twice.
    for (VertexId s = 0; s < 16; ++s) {
      for (VertexId d = 0; d < 16; ++d) {
        if (s != d) {
          store.InsertEdge(Edge{s, d, 1});
          store.InsertEdge(Edge{s, d, 1});
        }
      }
    }
  };
  // Every thread's inserts and deletes, interleaved round-robin; a quarter
  // of each thread's traffic touches hub vertex 0 (as src or dst).
  std::vector<Update> ups;
  std::vector<Rng> rngs;
  for (uint32_t t = 0; t < kThreads; ++t) rngs.emplace_back(100 + t);
  for (int i = 0; i < 5000; ++i) {
    for (uint32_t t = 0; t < kThreads; ++t) {
      VertexId s = rngs[t].NextBounded(16);
      VertexId d = rngs[t].NextBounded(16);
      if (i % 8 == 0) s = 0;
      if (i % 8 == 4) d = 0;
      if (s == d) continue;
      ups.push_back(rngs[t].NextBool(0.5) ? Update::InsertEdge(s, d, 1)
                                          : Update::DeleteEdge(s, d, 1));
    }
  }
  DefaultGraphStore store(16);
  preload(store);
  ApplyOnLanes(store, ups, kThreads);
  DefaultGraphStore serial(16);
  preload(serial);
  for (const Update& u : ups) {
    if (u.kind == UpdateKind::kInsertEdge) {
      serial.InsertEdge(u.edge);
    } else {
      serial.DeleteEdge(u.edge);
    }
  }

  EXPECT_EQ(store.NumEdges(), serial.NumEdges());
  EXPECT_EQ(Snapshot(store), Snapshot(serial));
}

TEST(GraphStore, MemoryReporting) {
  DefaultGraphStore store(100);
  size_t before = store.MemoryBytes();
  for (uint64_t i = 0; i < 1000; ++i) {
    store.InsertEdge(Edge{i % 100, (i + 1) % 100, i});
  }
  EXPECT_GT(store.MemoryBytes(), before);
}

TEST(GraphStore, NoTransposeOption) {
  StoreOptions opt;
  opt.keep_transpose = false;
  DefaultGraphStore store(4, opt);
  store.InsertEdge(Edge{0, 1, 1});
  EXPECT_EQ(store.OutDegree(0), 1u);
  EXPECT_EQ(store.InDegree(1), 0u);
  EXPECT_EQ(store.DeleteEdge(Edge{0, 1, 1}), DeleteResult::kRemoved);
}

TEST(GraphStore, IndexThresholdOption) {
  StoreOptions opt;
  opt.index_threshold = 4;
  DefaultGraphStore store(8, opt);
  for (uint64_t i = 0; i < 100; ++i) store.InsertEdge(Edge{0, i % 8, i});
  // With threshold 4 the hub's adjacency must have built an index; verify by
  // point lookups staying correct (the index path).
  EXPECT_EQ(store.EdgeCount(0, EdgeKey{1, 1}), 1u);
  EXPECT_EQ(store.EdgeCount(0, EdgeKey{1, 2}), 0u);
}

}  // namespace
}  // namespace risgraph

#include "core/classifier_trainer.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "core/algorithm_api.h"
#include "core/incremental_engine.h"
#include "core/reference.h"
#include "parallel/thread_pool.h"
#include "storage/graph_store.h"
#include "workload/rmat.h"
#include "workload/update_stream.h"

namespace risgraph {
namespace {

// Ground truth for the synthetic environment: edge-parallel wins iff the
// frontier carries more than 64 edges per active vertex.
bool EdgeWinsTruth(uint64_t nv, uint64_t ne) { return ne > 64 * nv; }

// Simulated step duration: the losing mode is 2x slower (comfortably above
// the 20% margin), plus small deterministic jitter.
int64_t SimulatedNanos(uint64_t nv, uint64_t ne, ParallelMode mode,
                       uint64_t salt) {
  bool edge_wins = EdgeWinsTruth(nv, ne);
  bool ran_edge = mode == ParallelMode::kEdgeParallel;
  int64_t base = 1000 + static_cast<int64_t>(ne / 8 + nv);
  if (edge_wins != ran_edge) base *= 2;
  return base + static_cast<int64_t>(salt % 37);
}

TEST(OnlineClassifierTrainer, LearnsSyntheticBoundary) {
  OnlineClassifierTrainer::Options opt;
  opt.explore_fraction = 0.5;  // aggressive exploration for fast coverage
  opt.refit_interval = 256;
  // Start from a deliberately wrong boundary: "edge-parallel never wins".
  OnlineClassifierTrainer trainer(opt, HybridClassifier(0.0, 1e9));

  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    uint64_t nv = uint64_t{1} << rng.NextBounded(14);
    uint64_t ne = nv * (uint64_t{1} << rng.NextBounded(10));
    ParallelMode mode = trainer.ChooseMode(nv, ne);
    trainer.Observe(nv, ne, mode, SimulatedNanos(nv, ne, mode, rng.Next()));
  }
  ASSERT_GE(trainer.refit_count(), 1u);
  EXPECT_GT(trainer.explore_count(), 0u);
  EXPECT_GT(trainer.labeled_cells(), 10u);

  // The learned boundary should agree with the ground truth away from it.
  int correct = 0;
  int total = 0;
  for (uint64_t lv = 2; lv <= 12; lv += 2) {
    for (uint64_t le_per_v = 0; le_per_v <= 10; le_per_v += 2) {
      uint64_t nv = uint64_t{1} << lv;
      uint64_t ne = nv << le_per_v;
      // Skip shapes within 2x of the boundary (label noise region).
      if (ne > 32 * nv && ne < 128 * nv) continue;
      bool predicted = trainer.classifier().Decide(nv, ne) ==
                       ParallelMode::kEdgeParallel;
      correct += predicted == EdgeWinsTruth(nv, ne);
      total++;
    }
  }
  EXPECT_GE(correct, total * 9 / 10)
      << "learned boundary agrees on " << correct << "/" << total;
}

TEST(OnlineClassifierTrainer, NoRefitWithoutBothClasses) {
  OnlineClassifierTrainer trainer;
  // Only vertex-parallel-wins evidence: refits must not fire (a one-sided
  // least-squares fit would degenerate).
  for (int i = 0; i < 5000; ++i) {
    uint64_t nv = 1024;
    uint64_t ne = 2048;
    ParallelMode mode = trainer.ChooseMode(nv, ne);
    int64_t ns = mode == ParallelMode::kVertexParallel ? 1000 : 5000;
    trainer.Observe(nv, ne, mode, ns);
  }
  EXPECT_EQ(trainer.refit_count(), 0u);
}

TEST(OnlineClassifierTrainer, MarginFilterSuppressesNoise) {
  OnlineClassifierTrainer::Options opt;
  opt.min_margin = 0.2;
  OnlineClassifierTrainer trainer(opt);
  // Means differ by only 5% — below the paper's 20% filter.
  for (int i = 0; i < 1000; ++i) {
    trainer.Observe(64, 4096, ParallelMode::kVertexParallel, 1000);
    trainer.Observe(64, 4096, ParallelMode::kEdgeParallel, 1050);
  }
  EXPECT_EQ(trainer.labeled_cells(), 0u);
  EXPECT_EQ(trainer.refit_count(), 0u);
}

TEST(OnlineClassifierTrainer, IgnoresInvalidObservations) {
  OnlineClassifierTrainer trainer;
  trainer.Observe(10, 10, ParallelMode::kHybrid, 1000);  // not a real mode
  trainer.Observe(10, 10, ParallelMode::kVertexParallel, 0);  // no duration
  EXPECT_EQ(trainer.labeled_cells(), 0u);
}

// Integration: an engine driven by the trainer still computes exact results
// while the trainer accumulates real observations. Exactness is checked with
// one worker and at the default pool width, where trainer-chosen vertex- and
// edge-parallel steps run concurrently. With several workers the number of
// push steps (and so of trainer draws) depends on thread interleaving, and
// under load the few steps this stream takes can all miss the exploration
// draw, so the trainer's activity is asserted on the one-worker pass only.
TEST(OnlineClassifierTrainer, EngineIntegrationStaysCorrect) {
  RmatParams rp;
  rp.scale = 9;
  rp.num_edges = 6000;
  rp.seed = 5;
  auto edges = GenerateRmat(rp);
  StreamWorkload wl = BuildStream(uint64_t{1} << rp.scale, edges, {});

  for (size_t threads : {size_t{1}, size_t{0}}) {
    SCOPED_TRACE("pool threads=" + std::to_string(threads));
    ThreadPool::ResetGlobal(threads);
    DefaultGraphStore store(wl.num_vertices);
    for (const Edge& e : wl.preload) store.InsertEdge(e);

    OnlineClassifierTrainer::Options topt;
    topt.explore_fraction = 0.3;
    topt.refit_interval = 64;
    OnlineClassifierTrainer trainer(topt);

    EngineOptions eopt;
    eopt.sequential_edge_threshold = 0;  // force every step through the trainer
    eopt.online_trainer = &trainer;
    IncrementalEngine<Bfs> engine(store, 0, eopt);

    size_t step = 0;
    for (const Update& u : wl.updates) {
      if (u.kind == UpdateKind::kInsertEdge) {
        store.InsertEdge(u.edge);
        engine.OnInsert(u.edge);
      } else {
        DeleteResult r = store.DeleteEdge(u.edge);
        engine.OnDelete(u.edge, r);
      }
      if (++step >= 300) break;
    }
    auto ref = ReferenceCompute<Bfs>(store, 0);
    for (VertexId v = 0; v < wl.num_vertices; ++v) {
      ASSERT_EQ(engine.Value(v), ref[v]) << v;
    }
    if (threads == 1) {
      EXPECT_GT(trainer.explore_count() + trainer.labeled_cells(), 0u);
    }
  }
  ThreadPool::ResetGlobal(0);
}

}  // namespace
}  // namespace risgraph

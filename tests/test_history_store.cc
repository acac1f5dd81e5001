#include <gtest/gtest.h>

#include "core/algorithm_api.h"
#include "core/incremental_engine.h"
#include "history/history_store.h"
#include "ingest/scheduler.h"
#include "storage/graph_store.h"

namespace risgraph {
namespace {

class HistoryStoreTest : public ::testing::Test {
 protected:
  HistoryStoreTest() : store_(6), engine_(store_, 0) {}

  void Apply(VersionId version, HistoryStore& history, const Update& u) {
    if (u.kind == UpdateKind::kInsertEdge) {
      store_.InsertEdge(u.edge);
      engine_.OnInsert(u.edge);
    } else {
      DeleteResult r = store_.DeleteEdge(u.edge);
      engine_.OnDelete(u.edge, r);
    }
    history.Record(version, engine_.LastModified(), engine_);
  }

  DefaultGraphStore store_;
  IncrementalEngine<Bfs> engine_;
};

TEST_F(HistoryStoreTest, VersionedReadsSeeTheRightSnapshot) {
  HistoryStore history(engine_, /*base=*/0);
  // v1: 0->1 (dist 1), v2: 1->2 (dist 2), v3: 0->2 (dist 1).
  Apply(1, history, Update::InsertEdge(0, 1));
  Apply(2, history, Update::InsertEdge(1, 2));
  Apply(3, history, Update::InsertEdge(0, 2));

  // Vertex 2 over time: unreached, unreached, 2, 1.
  EXPECT_EQ(history.GetValue(0, 2), kInfWeight);
  EXPECT_EQ(history.GetValue(1, 2), kInfWeight);
  EXPECT_EQ(history.GetValue(2, 2), 2u);
  EXPECT_EQ(history.GetValue(3, 2), 1u);
  // Vertex 1 settled at version 1 and never changed.
  EXPECT_EQ(history.GetValue(0, 1), kInfWeight);
  for (VersionId v = 1; v <= 3; ++v) EXPECT_EQ(history.GetValue(v, 1), 1u);
  // Unmodified vertices read the initial snapshot at every version.
  for (VersionId v = 0; v <= 3; ++v) EXPECT_EQ(history.GetValue(v, 5), kInfWeight);
  EXPECT_EQ(history.GetValue(3, 0), 0u);  // the root
}

TEST_F(HistoryStoreTest, GetParentTracksTreeChanges) {
  HistoryStore history(engine_, 0);
  Apply(1, history, Update::InsertEdge(0, 1));
  Apply(2, history, Update::InsertEdge(1, 2));
  Apply(3, history, Update::InsertEdge(0, 2));  // re-parents vertex 2
  EXPECT_EQ(history.GetParent(2, 2).parent, 1u);
  EXPECT_EQ(history.GetParent(3, 2).parent, 0u);
  EXPECT_EQ(history.GetParent(1, 2).parent, kInvalidVertex);
}

TEST_F(HistoryStoreTest, ModifiedVerticesPerVersion) {
  HistoryStore history(engine_, 0);
  Apply(1, history, Update::InsertEdge(0, 1));
  Apply(2, history, Update::InsertEdge(1, 2));
  EXPECT_EQ(history.GetModifiedVertices(1), std::vector<VertexId>{1});
  EXPECT_EQ(history.GetModifiedVertices(2), std::vector<VertexId>{2});
  EXPECT_TRUE(history.GetModifiedVertices(99).empty());
}

TEST_F(HistoryStoreTest, ReleaseDropsOldVersionsButKeepsBase) {
  HistoryStore history(engine_, 0);
  Apply(1, history, Update::InsertEdge(0, 1));
  Apply(2, history, Update::InsertEdge(1, 2));
  Apply(3, history, Update::InsertEdge(0, 2));
  size_t before = history.MemoryBytes();
  history.ReleaseBefore(3);
  history.CollectGarbage();
  // Queries at/after the floor still work.
  EXPECT_EQ(history.GetValue(3, 2), 1u);
  EXPECT_EQ(history.GetValue(3, 1), 1u);
  // Modification lists below the floor are gone.
  EXPECT_TRUE(history.GetModifiedVertices(1).empty());
  EXPECT_EQ(history.GetModifiedVertices(3), std::vector<VertexId>{2});
  EXPECT_LE(history.MemoryBytes(), before);
}

TEST_F(HistoryStoreTest, LazyTrimOnNextTouch) {
  HistoryStore history(engine_, 0);
  Apply(1, history, Update::InsertEdge(0, 1));
  Apply(2, history, Update::InsertEdge(0, 2));
  history.ReleaseBefore(2);
  // Touching vertex 1 again triggers its lazy chain trim.
  Apply(3, history, Update::DeleteEdge(0, 1));
  EXPECT_EQ(history.GetValue(3, 1), kInfWeight);
  EXPECT_EQ(history.GetValue(2, 1), 1u);  // floor-level read still answers
}

TEST_F(HistoryStoreTest, DeletionHistoryRecordsWorsening) {
  HistoryStore history(engine_, 0);
  Apply(1, history, Update::InsertEdge(0, 1));
  Apply(2, history, Update::InsertEdge(1, 2));
  Apply(3, history, Update::DeleteEdge(0, 1));  // disconnects 1 and 2
  EXPECT_EQ(history.GetValue(2, 1), 1u);
  EXPECT_EQ(history.GetValue(2, 2), 2u);
  EXPECT_EQ(history.GetValue(3, 1), kInfWeight);
  EXPECT_EQ(history.GetValue(3, 2), kInfWeight);
  auto mods = history.GetModifiedVertices(3);
  EXPECT_EQ(mods.size(), 2u);
}

TEST(Scheduler, DrainConditions) {
  Scheduler::Options opt;
  opt.latency_target_ns = 1'000'000;  // 1 ms
  opt.initial_threshold = 4;
  Scheduler sched(opt);
  EXPECT_FALSE(sched.ShouldDrainUnsafe(0, 0));
  EXPECT_FALSE(sched.ShouldDrainUnsafe(3, 0));
  EXPECT_TRUE(sched.ShouldDrainUnsafe(4, 0));            // backlog threshold
  EXPECT_TRUE(sched.ShouldDrainUnsafe(1, 900'000));      // 0.8 * target wait
  EXPECT_FALSE(sched.ShouldDrainUnsafe(1, 500'000));
}

TEST(Scheduler, ThresholdAdaptsUpAndDown) {
  Scheduler::Options opt;
  opt.initial_threshold = 100;
  opt.adjust_every_epochs = 3;
  Scheduler sched(opt);
  // Three qualified epochs: +1%.
  for (int i = 0; i < 3; ++i) sched.OnEpochEnd(1000, 0);
  EXPECT_EQ(sched.unsafe_threshold(), 101u);
  // Three missing epochs: -10%.
  for (int i = 0; i < 3; ++i) sched.OnEpochEnd(900, 100);
  EXPECT_EQ(sched.unsafe_threshold(), 91u);  // 101 - 10
  // Never collapses below 1.
  for (int i = 0; i < 300; ++i) sched.OnEpochEnd(0, 100);
  EXPECT_GE(sched.unsafe_threshold(), 1u);
}

TEST(Scheduler, NoAdjustmentBeforeWindow) {
  Scheduler::Options opt;
  opt.initial_threshold = 50;
  opt.adjust_every_epochs = 3;
  Scheduler sched(opt);
  sched.OnEpochEnd(10, 0);
  sched.OnEpochEnd(10, 0);
  EXPECT_EQ(sched.unsafe_threshold(), 50u);  // only 2 epochs so far
}

}  // namespace
}  // namespace risgraph

#ifndef RISGRAPH_RUNTIME_RISGRAPH_H_
#define RISGRAPH_RUNTIME_RISGRAPH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "common/types.h"
#include "core/algorithm_api.h"
#include "core/incremental_engine.h"
#include "history/history_store.h"
#include "shard/partition_map.h"
#include "storage/graph_store.h"
#include "subscribe/change_sink.h"
#include "wal/wal.h"

namespace risgraph {

/// Top-level configuration for a RisGraph instance.
struct RisGraphOptions {
  StoreOptions store;
  EngineOptions engine;
  /// Path for the write-ahead log; empty disables durability.
  std::string wal_path;
  bool wal_fsync = false;
  /// WAL segment rotation threshold (`<wal_path>.000N` chain); 0 keeps the
  /// single legacy file. See WalOptions::segment_bytes.
  uint64_t wal_segment_bytes = 0;
  /// Storage substrate for the WAL (nullptr = real files). Tests inject the
  /// fault backend here; not owned.
  WalBackend* wal_backend = nullptr;
  /// Maintain versioned result history (Interactive API's consistent result
  /// views). Benches that only need throughput can disable it.
  bool keep_history = true;
};

/// Handle passed to read-write transaction bodies (paper Section 4:
/// "RisGraph can still support [read-write transactions] by treating them as
/// unsafe transactions and processing them individually by blocking other
/// sessions"). Reads observe the current results *including the
/// transaction's own earlier writes*; the whole body executes atomically in
/// the sequential lane and maps to at most one result version.
class RwTxn {
 public:
  virtual ~RwTxn() = default;

  /// Current value of v under algorithm `algo`, including own writes.
  virtual uint64_t GetValue(size_t algo, VertexId v) const = 0;
  /// Current dependency-tree parent of v under algorithm `algo`.
  virtual ParentEdge GetParent(size_t algo, VertexId v) const = 0;
  /// Duplicate count of an edge in the store (0 = absent).
  virtual uint64_t EdgeCount(VertexId src, VertexId dst, Weight w) const = 0;

  /// Applies an edge insertion/deletion immediately (visible to later reads
  /// in this body). Durability and versioning are handled by the enclosing
  /// transaction.
  virtual void InsEdge(VertexId src, VertexId dst, Weight w) = 0;
  virtual void DelEdge(VertexId src, VertexId dst, Weight w) = 0;

  /// Allocates a vertex (recycled id or fresh) and returns it. New vertices
  /// start at their init value; no result changes, so no history entry.
  virtual VertexId InsVertex() = 0;
  /// Deletes an isolated vertex; false if it still has edges.
  virtual bool DelVertex(VertexId v) = 0;
};

/// Type-erased handle to one maintained algorithm (engine + history store).
/// All shipped algorithms use uint64_t values, which is what lets one
/// Interactive API serve every algorithm (paper Table 1).
class AlgorithmInstance {
 public:
  virtual ~AlgorithmInstance() = default;

  virtual const char* Name() const = 0;
  virtual VertexId Root() const = 0;

  // Classification. Read-only; the epoch pipeline calls it on the
  // coordinator while no maintenance call below is running.
  virtual bool IsInsertSafe(const Edge& e) const = 0;
  virtual bool IsDeleteSafe(const Edge& e, bool removes_last) const = 0;

  // Maintenance (single-writer).
  virtual void OnInsert(const Edge& e) = 0;
  virtual void OnDelete(const Edge& e, DeleteResult r) = 0;
  virtual void SyncVertexCount() = 0;
  virtual void Reset(VertexId root) = 0;
  virtual void BeginBatch() = 0;
  virtual void EndBatch() = 0;

  // Current results.
  virtual uint64_t Value(VertexId v) const = 0;
  virtual ParentEdge Parent(VertexId v) const = 0;
  virtual const std::vector<ModifiedRecord>& LastModified() const = 0;

  // Versioned history.
  virtual void InitHistory(VersionId base) = 0;
  virtual void RecordHistory(VersionId version) = 0;
  virtual void RecordVertexInit(VersionId version, VertexId v) = 0;
  virtual uint64_t HistoryValue(VersionId version, VertexId v) const = 0;
  virtual ParentEdge HistoryParent(VersionId version, VertexId v) const = 0;
  virtual std::vector<VertexId> ModifiedAt(VersionId version) const = 0;
  virtual void ReleaseBefore(VersionId version) = 0;
  virtual size_t HistoryMemoryBytes() const = 0;
  virtual size_t EngineMemoryBytes() const = 0;
};

/// Concrete AlgorithmInstance binding a MonotonicAlgorithm to a store type.
template <MonotonicAlgorithm Algo, typename Store>
class TypedAlgorithm final : public AlgorithmInstance {
 public:
  TypedAlgorithm(Store& store, VertexId root, EngineOptions options)
      : engine_(store, root, options) {}

  IncrementalEngine<Algo, Store>& engine() { return engine_; }

  const char* Name() const override { return Algo::Name(); }
  VertexId Root() const override { return engine_.root(); }

  bool IsInsertSafe(const Edge& e) const override {
    return engine_.IsInsertSafe(e);
  }
  bool IsDeleteSafe(const Edge& e, bool removes_last) const override {
    return engine_.IsDeleteSafe(e, removes_last);
  }

  void OnInsert(const Edge& e) override { engine_.OnInsert(e); }
  void OnDelete(const Edge& e, DeleteResult r) override {
    engine_.OnDelete(e, r);
  }
  void SyncVertexCount() override { engine_.SyncVertexCount(); }
  void Reset(VertexId root) override { engine_.Reset(root); }
  void BeginBatch() override { engine_.BeginBatch(); }
  void EndBatch() override { engine_.EndBatch(); }

  uint64_t Value(VertexId v) const override { return engine_.Value(v); }
  ParentEdge Parent(VertexId v) const override { return engine_.Parent(v); }
  const std::vector<ModifiedRecord>& LastModified() const override {
    return engine_.LastModified();
  }

  void InitHistory(VersionId base) override {
    history_ = std::make_unique<HistoryStore>(engine_, base);
  }
  void RecordHistory(VersionId version) override {
    if (history_ != nullptr) {
      history_->Record(version, engine_.LastModified(), engine_);
    }
  }
  void RecordVertexInit(VersionId version, VertexId v) override {
    if (history_ != nullptr) {
      ModifiedRecord r{v, engine_.Value(v), kInvalidVertex, 0};
      history_->Record(version, {r}, engine_);
    }
  }
  uint64_t HistoryValue(VersionId version, VertexId v) const override {
    return history_ != nullptr ? history_->GetValue(version, v)
                               : engine_.Value(v);
  }
  ParentEdge HistoryParent(VersionId version, VertexId v) const override {
    return history_ != nullptr ? history_->GetParent(version, v)
                               : engine_.Parent(v);
  }
  std::vector<VertexId> ModifiedAt(VersionId version) const override {
    return history_ != nullptr ? history_->GetModifiedVertices(version)
                               : std::vector<VertexId>{};
  }
  void ReleaseBefore(VersionId version) override {
    if (history_ != nullptr) history_->ReleaseBefore(version);
  }
  size_t HistoryMemoryBytes() const override {
    return history_ != nullptr ? history_->MemoryBytes() : 0;
  }
  size_t EngineMemoryBytes() const override { return engine_.MemoryBytes(); }

 private:
  IncrementalEngine<Algo, Store> engine_;
  std::unique_ptr<HistoryStore> history_;
};

/// The embedded, single-writer RisGraph system: graph store + any number of
/// maintained monotonic algorithms + versioned history + WAL, behind the
/// paper's Interactive API (Table 1, lower half).
///
/// Thread-safety: the Interactive API entry points are single-writer. For
/// the multi-session concurrent front end (epoch loop + scheduler +
/// inter-update parallelism) see RisGraphService in runtime/service.h, which
/// drives the Apply*/Classify* primitives exposed here.
///
/// Store choices: the default is one DefaultGraphStore; instantiating over
/// ShardedGraphStore (shard/sharded_store.h) partitions the store into N
/// vertex-owned slices behind the same store concept — engines, history,
/// WAL and the Interactive API see the stitched coordinator view and behave
/// bit-identically at any shard count, while the epoch pipeline's safe
/// phase mutates the partitions in parallel and keeps unsafe work on its
/// sequential lane (architecture doc: shard/shard_router.h).
/// AddAlgorithm injects the store's vertex-ownership map into each engine.
template <typename Store = DefaultGraphStore>
class RisGraph {
 public:
  explicit RisGraph(uint64_t num_vertices, RisGraphOptions options = {})
      : options_(options), store_(num_vertices, options.store) {
    if (!options_.wal_path.empty()) {
      wal_.Open(options_.wal_path,
                WalOptions{options_.wal_fsync, options_.wal_segment_bytes,
                           options_.wal_backend});
      // Durability for pluggable ownership: a table-backed PartitionMap must
      // survive with the log — recovery has to replay half-streams under the
      // ownership that wrote them. The log itself is headerless fixed-size
      // records, so the map rides in a CRC'd sidecar (the logical WAL
      // header; see partition_map.h). A store without a table map writes
      // nothing, which leaves an existing sidecar intact for recovery to
      // find and install.
      if constexpr (requires { store_.router(); }) {
        const auto& map = store_.router().map();
        if (map != nullptr) {
          SavePartitionMap(*map, store_.router().num_shards(),
                           PartitionMapSidecarPath(options_.wal_path));
        }
      }
    }
  }

  Store& store() { return store_; }
  const Store& store() const { return store_; }
  const RisGraphOptions& options() const { return options_; }
  WriteAheadLog& wal() { return wal_; }

  /// Registers a monotonic algorithm to maintain; returns its handle index.
  /// Call before InitializeResults.
  template <MonotonicAlgorithm Algo>
  size_t AddAlgorithm(VertexId root, EngineOptions engine_options) {
    // Sharded store: inject its vertex-ownership map so the engine can group
    // parallel frontiers by owning partition (see EngineOptions::ownership).
    if constexpr (requires { store_.router(); }) {
      if (!engine_options.ownership.Partitioned()) {
        // OwnershipOf carries the store's installed PartitionMap, so the
        // engine groups by the same ownership the shards place halves by.
        engine_options.ownership = store_.router().OwnershipOf(0);
      }
    }
    algorithms_.push_back(
        std::make_unique<TypedAlgorithm<Algo, Store>>(store_, root,
                                                      engine_options));
    return algorithms_.size() - 1;
  }
  template <MonotonicAlgorithm Algo>
  size_t AddAlgorithm(VertexId root) {
    return AddAlgorithm<Algo>(root, options_.engine);
  }

  size_t NumAlgorithms() const { return algorithms_.size(); }
  AlgorithmInstance& algorithm(size_t i) { return *algorithms_[i]; }
  const AlgorithmInstance& algorithm(size_t i) const {
    return *algorithms_[i];
  }

  /// Bulk-loads pre-population edges without per-update analysis.
  void LoadGraph(const std::vector<Edge>& edges) {
    for (const Edge& e : edges) store_.InsertEdge(e);
  }

  /// Computes initial results for every registered algorithm and snapshots
  /// them as the base version for the history store.
  void InitializeResults() {
    for (auto& algo : algorithms_) {
      algo->Reset(algo->Root());
      if (options_.keep_history) algo->InitHistory(version_);
    }
  }

  //===------------------------------------------------------------------===//
  // Interactive API (Table 1) — single-writer entry points.
  //===------------------------------------------------------------------===//

  VersionId InsEdge(VertexId src, VertexId dst, Weight w = 1) {
    return ApplyOne(Update::InsertEdge(src, dst, w));
  }
  VersionId DelEdge(VertexId src, VertexId dst, Weight w = 1) {
    return ApplyOne(Update::DeleteEdge(src, dst, w));
  }
  /// Allocates a vertex (recycled or fresh); id returned via out-param.
  VersionId InsVertex(VertexId* id_out) {
    WalAppend(Update::InsertVertex(kInvalidVertex));
    VertexId v = store_.AddVertex();
    if (id_out != nullptr) *id_out = v;
    version_++;
    for (auto& algo : algorithms_) {
      algo->SyncVertexCount();
      algo->RecordVertexInit(version_, v);
    }
    if (change_sink_ != nullptr) {
      // Vertex birth: mirror RecordVertexInit for subscribers — a watch-all
      // subscription sees the fresh vertex appear at its init value (old ==
      // new, like the history store's synthesized record).
      for (size_t i = 0; i < algorithms_.size(); ++i) {
        uint64_t value = algorithms_[i]->Value(v);
        ModifiedRecord r{v, value, kInvalidVertex, 0};
        change_sink_->OnResultsCommitted(i, version_, {&r, 1}, {&value, 1});
      }
    }
    WalFlush();
    return version_;
  }
  /// Deletes an isolated vertex; returns kInvalidVersion if it has edges.
  VersionId DelVertex(VertexId v) {
    if (!store_.RemoveVertex(v)) return kInvalidVersion;
    WalAppend(Update::DeleteVertex(v));
    WalFlush();
    return version_;  // results are untouched by definition (Section 4)
  }

  /// Atomic batch (paper: txn_updates). The whole transaction maps to one
  /// result version.
  VersionId TxnUpdates(const std::vector<Update>& updates) {
    for (const Update& u : updates) WalAppend(u);
    VersionId ver = ApplyTxnUnsafe(updates);
    WalFlush();
    return ver;
  }

  /// Executes a read-write transaction (Section 4): `body` may interleave
  /// reads of the current results with edge writes; the whole body is atomic
  /// and isolated (single-writer lane) and maps to at most one version.
  VersionId ExecuteReadWrite(const std::function<void(RwTxn&)>& body) {
    class Txn final : public RwTxn {
     public:
      explicit Txn(RisGraph& sys) : sys_(sys) {}
      uint64_t GetValue(size_t algo, VertexId v) const override {
        return sys_.algorithms_[algo]->Value(v);
      }
      ParentEdge GetParent(size_t algo, VertexId v) const override {
        return sys_.algorithms_[algo]->Parent(v);
      }
      uint64_t EdgeCount(VertexId src, VertexId dst, Weight w) const override {
        return sys_.store_.EdgeCount(src, EdgeKey{dst, w});
      }
      void InsEdge(VertexId src, VertexId dst, Weight w) override {
        Update u = Update::InsertEdge(src, dst, w);
        sys_.WalAppend(u);
        sys_.ApplyToStoreAndEngines(u);
      }
      void DelEdge(VertexId src, VertexId dst, Weight w) override {
        Update u = Update::DeleteEdge(src, dst, w);
        sys_.WalAppend(u);
        sys_.ApplyToStoreAndEngines(u);
      }
      VertexId InsVertex() override {
        sys_.WalAppend(Update::InsertVertex(kInvalidVertex));
        VertexId v = sys_.store_.AddVertex();
        for (auto& algo : sys_.algorithms_) algo->SyncVertexCount();
        return v;
      }
      bool DelVertex(VertexId v) override {
        if (!sys_.store_.RemoveVertex(v)) return false;
        sys_.WalAppend(Update::DeleteVertex(v));
        return true;
      }

     private:
      RisGraph& sys_;
    };

    for (auto& algo : algorithms_) algo->BeginBatch();
    Txn txn(*this);
    body(txn);
    bool any = false;
    for (auto& algo : algorithms_) {
      algo->EndBatch();
      any |= !algo->LastModified().empty();
    }
    if (any) {
      version_++;
      RecordHistoryAll();
      PublishCommittedAll();
    }
    WalFlush();
    return version_;
  }

  VersionId GetCurrentVersion() const { return version_; }

  uint64_t GetValue(size_t algo, VersionId version, VertexId v) const {
    return algorithms_[algo]->HistoryValue(version, v);
  }
  uint64_t GetValue(size_t algo, VertexId v) const {
    return algorithms_[algo]->Value(v);
  }
  ParentEdge GetParent(size_t algo, VersionId version, VertexId v) const {
    return algorithms_[algo]->HistoryParent(version, v);
  }
  std::vector<VertexId> GetModifiedVertices(size_t algo,
                                            VersionId version) const {
    return algorithms_[algo]->ModifiedAt(version);
  }
  void ReleaseHistory(VersionId version) {
    for (auto& algo : algorithms_) algo->ReleaseBefore(version);
  }

  //===------------------------------------------------------------------===//
  // Classification & raw apply — primitives for the epoch loop (Section 4).
  //
  // IsUpdateSafe / IsTxnSafe (and the per-algorithm IsInsertSafe /
  // IsDeleteSafe they delegate to) are read-only over the store and the
  // engines' current results. The epoch pipeline classifies on the
  // coordinator, in claim order, during the packing phase — before any
  // update of the epoch executes — so classification never overlaps a
  // mutation.
  //===------------------------------------------------------------------===//

  /// Safe iff safe for *every* maintained algorithm ("an update is safe only
  /// when it is safe for every algorithm"). `pending_dup_delta` adjusts the
  /// duplicate count for deletions classified behind other in-epoch updates
  /// on the same key.
  bool IsUpdateSafe(const Update& u, int64_t pending_dup_delta = 0) const {
    switch (u.kind) {
      case UpdateKind::kInsertVertex:
      case UpdateKind::kDeleteVertex:
        // Result-safe by definition (category 1); the service still routes
        // them through the sequential lane because they grow per-vertex
        // arrays.
        return true;
      case UpdateKind::kInsertEdge:
        for (const auto& algo : algorithms_) {
          if (!algo->IsInsertSafe(u.edge)) return false;
        }
        return true;
      case UpdateKind::kDeleteEdge: {
        int64_t count = static_cast<int64_t>(store_.EdgeCount(
                            u.edge.src, EdgeKey{u.edge.dst, u.edge.weight})) +
                        pending_dup_delta;
        bool removes_last = count <= 1;
        for (const auto& algo : algorithms_) {
          if (!algo->IsDeleteSafe(u.edge, removes_last)) return false;
        }
        return true;
      }
    }
    return false;
  }

  /// A write transaction is safe only when all of its updates are safe,
  /// accounting for duplicate-count changes between its own updates.
  bool IsTxnSafe(const std::vector<Update>& updates) const {
    std::map<std::tuple<VertexId, VertexId, Weight>, int64_t> deltas;
    for (const Update& u : updates) {
      auto key = std::make_tuple(u.edge.src, u.edge.dst, u.edge.weight);
      int64_t delta = 0;
      if (u.kind == UpdateKind::kInsertEdge ||
          u.kind == UpdateKind::kDeleteEdge) {
        auto it = deltas.find(key);
        if (it != deltas.end()) delta = it->second;
      }
      if (!IsUpdateSafe(u, delta)) return false;
      if (u.kind == UpdateKind::kInsertEdge) deltas[key] = delta + 1;
      if (u.kind == UpdateKind::kDeleteEdge) deltas[key] = delta - 1;
    }
    return true;
  }

  /// Applies a safe edge update to the store only, timed per call. Serial
  /// callers only (the Interactive API's ApplyOne, the benchmark's serial
  /// replay): the epoch pipeline's safe phase applies through its own
  /// per-owner lanes under one phase-wide timer.
  void ApplySafeToStore(const Update& u) {
    if (u.kind == UpdateKind::kInsertEdge) {
      ScopedTimer t(upd_eng_timer_);
      store_.InsertEdge(u.edge);
    } else if (u.kind == UpdateKind::kDeleteEdge) {
      ScopedTimer t(upd_eng_timer_);
      store_.DeleteEdge(u.edge);
    }
  }

  /// Applies one update through store + engines; returns the new current
  /// version (single-writer lane).
  VersionId ApplyUnsafe(const Update& u) {
    bool changed = ApplyToStoreAndEngines(u);
    if (changed) {
      version_++;
      RecordHistoryAll();
      PublishCommittedAll();
    }
    return version_;
  }

  /// Applies a whole transaction in the single-writer lane (one version;
  /// modification sets accumulate across the batch).
  VersionId ApplyTxnUnsafe(const std::vector<Update>& updates) {
    for (auto& algo : algorithms_) algo->BeginBatch();
    for (const Update& u : updates) ApplyToStoreAndEngines(u);
    bool any = false;
    for (auto& algo : algorithms_) {
      algo->EndBatch();
      any |= !algo->LastModified().empty();
    }
    if (any) {
      version_++;
      RecordHistoryAll();
      PublishCommittedAll();
    }
    return version_;
  }

  /// WAL hooks for the epoch pipeline's group commit.
  void WalAppend(const Update& u) {
    if (wal_.IsOpen()) {
      ScopedTimer t(wal_timer_);
      wal_.Append(u);
    }
  }
  /// Appends a whole epoch's worth of records in one buffered batch (one
  /// encode pass; the physical write and optional fsync happen at WalFlush).
  void WalAppendBatch(const std::vector<Update>& updates) {
    if (wal_.IsOpen() && !updates.empty()) {
      ScopedTimer t(wal_timer_);
      wal_.AppendBatch(updates.data(), updates.size());
    }
  }
  /// Epoch commit boundary. Coupled mode (no flusher): synchronous write +
  /// optional fsync on this thread, then the version watermark advances —
  /// the legacy per-epoch group commit. Decoupled mode (flusher running):
  /// O(1) Seal handoff tagged with the committed version; the flusher
  /// advances the watermarks on its own cadence. Returns the sticky WAL
  /// status — anything but kOk means the coordinator must stop acking.
  Status WalFlush() {
    if (!wal_.IsOpen()) return Status::kOk;
    ScopedTimer t(wal_timer_);
    if (wal_.FlusherRunning()) {
      wal_.Seal(version_);
      return wal_.status();
    }
    Status st = wal_.Flush();
    if (st == Status::kOk) wal_.AdvanceDurableVersion(version_);
    return st;
  }

  /// Sticky WAL status (kOk when durability is disabled).
  Status WalStatus() const {
    return wal_.IsOpen() ? wal_.status() : Status::kOk;
  }

  /// Result-version durability watermark (see WriteAheadLog::DurableVersion;
  /// equals GetCurrentVersion() trivially when durability is disabled).
  uint64_t DurableVersion() const {
    return wal_.IsOpen() ? wal_.DurableVersion() : version_;
  }

  /// Installs (or clears, with nullptr) the result-change sink the commit
  /// points call — the subscription subsystem's tap (subscribe/change_sink.h;
  /// EpochPipeline::AttachPublisher wires it). Single-writer like the
  /// mutation entry points themselves: install before concurrent use.
  void SetChangeSink(ResultChangeSink* sink) { change_sink_ = sink; }
  ResultChangeSink* change_sink() const { return change_sink_; }

  /// Component wall-time accounting (Figure 11b).
  ComponentTimer& upd_eng_timer() { return upd_eng_timer_; }
  ComponentTimer& cmp_eng_timer() { return cmp_eng_timer_; }
  ComponentTimer& his_store_timer() { return his_store_timer_; }
  ComponentTimer& cc_timer() { return cc_timer_; }
  ComponentTimer& wal_timer() { return wal_timer_; }

  size_t MemoryBytes() const {
    size_t bytes = store_.MemoryBytes();
    for (const auto& algo : algorithms_) {
      bytes += algo->EngineMemoryBytes() + algo->HistoryMemoryBytes();
    }
    return bytes;
  }

 private:
  // Single-update path used by the Interactive API: classify to keep the
  // version semantics (safe updates do not create versions), then apply.
  VersionId ApplyOne(const Update& u) {
    WalAppend(u);
    bool safe;
    {
      ScopedTimer t(cc_timer_);
      safe = IsUpdateSafe(u);
    }
    VersionId ver;
    if (safe) {
      ApplySafeToStore(u);
      ver = version_;
    } else {
      ver = ApplyUnsafe(u);
    }
    WalFlush();
    return ver;
  }

  // Returns true if any algorithm's results changed (=> new version needed).
  bool ApplyToStoreAndEngines(const Update& u) {
    switch (u.kind) {
      case UpdateKind::kInsertEdge: {
        {
          ScopedTimer t(upd_eng_timer_);
          store_.InsertEdge(u.edge);
        }
        ScopedTimer t(cmp_eng_timer_);
        bool changed = false;
        for (auto& algo : algorithms_) {
          algo->OnInsert(u.edge);
          changed |= !algo->LastModified().empty();
        }
        return changed;
      }
      case UpdateKind::kDeleteEdge: {
        DeleteResult r;
        {
          ScopedTimer t(upd_eng_timer_);
          r = store_.DeleteEdge(u.edge);
        }
        ScopedTimer t(cmp_eng_timer_);
        bool changed = false;
        for (auto& algo : algorithms_) {
          algo->OnDelete(u.edge, r);
          changed |= !algo->LastModified().empty();
        }
        return changed;
      }
      case UpdateKind::kInsertVertex: {
        store_.AddVertex();
        for (auto& algo : algorithms_) algo->SyncVertexCount();
        return false;
      }
      case UpdateKind::kDeleteVertex:
        store_.RemoveVertex(u.edge.src);
        return false;
    }
    return false;
  }

  void RecordHistoryAll() {
    if (!options_.keep_history) return;
    ScopedTimer t(his_store_timer_);
    for (auto& algo : algorithms_) algo->RecordHistory(version_);
  }

  // Feeds the change sink right after a result version commits: one call per
  // algorithm whose results changed, with the committed values captured HERE
  // (still on the single-writer lane) — reading them any later would race
  // the next mutation and break notification determinism. Runs with or
  // without keep_history; subscriptions do not require the history store.
  void PublishCommittedAll() {
    if (change_sink_ == nullptr) return;
    for (size_t i = 0; i < algorithms_.size(); ++i) {
      const std::vector<ModifiedRecord>& recs = algorithms_[i]->LastModified();
      if (recs.empty()) continue;
      sink_values_.clear();
      sink_values_.reserve(recs.size());
      for (const ModifiedRecord& r : recs) {
        sink_values_.push_back(algorithms_[i]->Value(r.vertex));
      }
      change_sink_->OnResultsCommitted(i, version_, recs, sink_values_);
    }
  }

  RisGraphOptions options_;
  Store store_;
  std::vector<std::unique_ptr<AlgorithmInstance>> algorithms_;
  VersionId version_ = 0;
  WriteAheadLog wal_;
  /// Commit tap for the subscription subsystem (nullptr = disabled).
  ResultChangeSink* change_sink_ = nullptr;
  /// Scratch for PublishCommittedAll's committed-value capture (reused).
  std::vector<uint64_t> sink_values_;

  ComponentTimer upd_eng_timer_;
  ComponentTimer cmp_eng_timer_;
  ComponentTimer his_store_timer_;
  ComponentTimer cc_timer_;
  ComponentTimer wal_timer_;
};

}  // namespace risgraph

#endif  // RISGRAPH_RUNTIME_RISGRAPH_H_

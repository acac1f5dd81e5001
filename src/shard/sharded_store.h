#ifndef RISGRAPH_SHARD_SHARDED_STORE_H_
#define RISGRAPH_SHARD_SHARDED_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "shard/shard_router.h"
#include "storage/graph_store.h"

namespace risgraph {

/// N vertex-partitioned graph-store instances behind one stitched store
/// concept — the shard layer's coordinator view (see the architecture doc in
/// shard/shard_router.h).
///
/// Every partition is a full-width partition-aware GraphStore
/// (StoreOptions::partition = {s, N}): it allocates per-vertex slots for the
/// whole id space but holds adjacency entries only for the halves it owns —
/// vertex v's entire out-list and in-list live on OwnerOf(v). Per-vertex
/// reads (ForEachOut/In, EdgeCount, degrees, raw slots) therefore delegate
/// to exactly one partition and observe bit-identical content and iteration
/// order at any shard count; the stitched mutations apply the out-half on
/// OwnerOf(src) and the in-half on OwnerOf(dst).
///
/// Vertex management (AddVertex / RemoveVertex and the recycled-id pool) is
/// centralized here so the partitions stay in lock step and id assignment
/// matches the unsharded store exactly.
///
/// Thread-safety matches GraphStore: one writer per vertex, no locks. The
/// stitched mutations are for single-writer callers (the sequential lane,
/// vertex ops); the epoch pipeline's safe phase and the partitioned WAL
/// replay hand each partition to one worker via ApplyToShard, so workers
/// never touch each other's adjacency lists at all.
///
/// Construction mirrors GraphStore — (num_vertices, StoreOptions) — so
/// RisGraph<ShardedGraphStore<>> drops in; the shard count is
/// StoreOptions::partition.num_shards (keep it equal to
/// ServiceOptions::ingest_shards; the epoch pipeline aligns its ring default
/// to this count). N = 1 behaves exactly like the unsharded store.
template <typename Store = DefaultGraphStore>
class ShardedGraphStore {
 public:
  using Partition = Store;
  using Adjacency = typename Store::Adjacency;
  static constexpr bool kHasRawSlots = Store::kHasRawSlots;

  explicit ShardedGraphStore(uint64_t num_vertices = 0,
                             StoreOptions options = {})
      : options_(options),
        router_(options.partition.num_shards < 1
                    ? 1u
                    : options.partition.num_shards,
                options.keep_transpose, options.partition.map) {
    shards_.reserve(router_.num_shards());
    for (uint32_t s = 0; s < router_.num_shards(); ++s) {
      StoreOptions shard_options = options;
      shard_options.partition = router_.OwnershipOf(s);
      shards_.push_back(
          std::make_unique<Store>(num_vertices, shard_options));
    }
  }

  ShardedGraphStore(const ShardedGraphStore&) = delete;
  ShardedGraphStore& operator=(const ShardedGraphStore&) = delete;

  const StoreOptions& options() const { return options_; }
  const ShardRouter& router() const { return router_; }
  uint32_t num_shards() const { return router_.num_shards(); }
  Store& shard(uint32_t s) { return *shards_[s]; }
  const Store& shard(uint32_t s) const { return *shards_[s]; }

  /// Swaps the ownership map. Legal only while the store holds no edges —
  /// placed halves embody the old map (see the PartitionMap contract in
  /// shard_router.h). Recovery uses this to install the persisted map before
  /// replaying; returns false (and changes nothing) if edges exist already.
  bool InstallPartitionMap(std::shared_ptr<const PartitionMap> map) {
    if (NumEdges() != 0) return false;
    router_ = ShardRouter(router_.num_shards(), options_.keep_transpose, map);
    options_.partition.map = map;
    for (uint32_t s = 0; s < router_.num_shards(); ++s) {
      shards_[s]->SetPartition(router_.OwnershipOf(s));
    }
    return true;
  }

  //===------------------------------------------------------------------===//
  // Vertex management (centralized: partitions move in lock step)
  //===------------------------------------------------------------------===//

  uint64_t NumVertices() const { return shards_[0]->NumVertices(); }

  void EnsureVertices(uint64_t n) {
    for (auto& s : shards_) s->EnsureVertices(n);
  }

  /// Allocates a vertex id — recycled-pool-first, exactly like the unsharded
  /// store, so id assignment is shard-count-invariant. Thread-safe.
  VertexId AddVertex() {
    std::lock_guard<std::mutex> g(vertex_mu_);
    if (!recycled_.empty()) {
      VertexId v = recycled_.back();
      recycled_.pop_back();
      return v;
    }
    VertexId v = NumVertices();
    for (auto& s : shards_) s->EnsureVertices(v + 1);
    return v;
  }

  /// Deletes an isolated vertex (both of its adjacency lists live on its
  /// owner); false if it still has edges.
  bool RemoveVertex(VertexId v) {
    if (v >= NumVertices()) return false;
    Store& owner = *shards_[router_.shard_of(v)];
    if (owner.OutDegree(v) != 0 || owner.InDegree(v) != 0) return false;
    std::lock_guard<std::mutex> g(vertex_mu_);
    recycled_.push_back(v);
    return true;
  }

  //===------------------------------------------------------------------===//
  // Edge mutations (stitched: each partition applies the halves it owns)
  //===------------------------------------------------------------------===//

  bool InsertEdge(const Edge& e) {
    bool fresh = false;
    bool first = true;  // ForEachOwningShard visits the src owner first
    router_.ForEachOwningShard(e, [&](uint32_t s) {
      bool f = shards_[s]->InsertEdge(e);  // applies only the owned halves
      if (first) fresh = f;
      first = false;
    });
    return fresh;
  }

  DeleteResult DeleteEdge(const Edge& e) {
    DeleteResult r = DeleteResult::kNotFound;
    bool first = true;
    router_.ForEachOwningShard(e, [&](uint32_t s) {
      if (first) {
        r = shards_[s]->DeleteEdge(e);  // out-half verdict
        first = false;
      } else if (r != DeleteResult::kNotFound) {
        shards_[s]->DeleteEdge(e);  // in-half mirrors the src owner's verdict
      }
    });
    return r;
  }

  /// Applies one edge update's halves owned by partition `s` — THE one
  /// per-shard apply used by both the epoch pipeline's lane workers and the
  /// partitioned WAL replay (the partition-aware store ignores halves it
  /// does not own; non-edge kinds are no-ops here — vertex ops go through
  /// the centralized allocator above).
  void ApplyToShard(uint32_t s, const Update& u) {
    if (u.kind == UpdateKind::kInsertEdge) {
      shards_[s]->InsertEdge(u.edge);
    } else if (u.kind == UpdateKind::kDeleteEdge) {
      shards_[s]->DeleteEdge(u.edge);
    }
  }

  uint64_t EdgeCount(VertexId src, EdgeKey key) const {
    return shards_[router_.shard_of(src)]->EdgeCount(src, key);
  }

  //===------------------------------------------------------------------===//
  // Analysis accessors — delegate to the owning partition (a vertex's whole
  // adjacency lives there, in the same order as the unsharded store's)
  //===------------------------------------------------------------------===//

  template <typename Fn>
  void ForEachOut(VertexId v, Fn&& fn) const {
    shards_[router_.shard_of(v)]->ForEachOut(v, fn);
  }
  template <typename Fn>
  void ForEachIn(VertexId v, Fn&& fn) const {
    shards_[router_.shard_of(v)]->ForEachIn(v, fn);
  }

  uint64_t OutDegree(VertexId v) const {
    return shards_[router_.shard_of(v)]->OutDegree(v);
  }
  uint64_t InDegree(VertexId v) const {
    return shards_[router_.shard_of(v)]->InDegree(v);
  }

  size_t RawOutSize(VertexId v) const {
    return shards_[router_.shard_of(v)]->RawOutSize(v);
  }
  const AdjEntry& RawOutEntry(VertexId v, size_t i) const {
    return shards_[router_.shard_of(v)]->RawOutEntry(v, i);
  }
  size_t RawInSize(VertexId v) const {
    return shards_[router_.shard_of(v)]->RawInSize(v);
  }
  const AdjEntry& RawInEntry(VertexId v, size_t i) const {
    return shards_[router_.shard_of(v)]->RawInEntry(v, i);
  }

  /// Total directed edges including duplicates (each partition counts its
  /// owned-src edges, so the sum is exact).
  uint64_t NumEdges() const {
    uint64_t n = 0;
    for (const auto& s : shards_) n += s->NumEdges();
    return n;
  }

  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const auto& s : shards_) bytes += s->MemoryBytes();
    return bytes;
  }

 private:
  StoreOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Store>> shards_;

  std::mutex vertex_mu_;
  std::vector<VertexId> recycled_;
};

/// The sharded configuration over the default store (IA_Hash partitions).
using DefaultShardedStore = ShardedGraphStore<DefaultGraphStore>;

}  // namespace risgraph

#endif  // RISGRAPH_SHARD_SHARDED_STORE_H_

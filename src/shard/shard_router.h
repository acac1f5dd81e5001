#ifndef RISGRAPH_SHARD_SHARD_ROUTER_H_
#define RISGRAPH_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "common/types.h"

namespace risgraph {

/// # The shard layer (src/shard/)
///
/// Partitions the graph store into N vertex-owned slices so the epoch
/// pipeline's safe phase can mutate N adjacency partitions in parallel
/// without any two workers ever touching the same partition — the
/// multi-shard seam the ingest subsystem (PR 1-2) was built to unlock
/// (paper Section 5, Figure 11a: scalability past one mutation domain).
///
/// ## Ownership map
///
/// Vertex v is owned by shard `OwnerOf(v)` (VertexPartition in
/// common/types.h — the one definition every layer injects): `v % N` by
/// default, or whatever a pluggable PartitionMap (partition_map.h) says when
/// one is installed. A vertex's *entire* out-list and its entire in-list
/// (transpose) live on its owning shard, so per-vertex adjacency iteration
/// order is identical at every shard count — the property the bit-identical
/// shard-count-invariance guarantee rests on. An edge (src, dst) therefore
/// has its out-half on OwnerOf(src) and its in-half on OwnerOf(dst):
///
///   * shard-local  — both halves resolve to the same partition for the
///     active dependency direction (OwnerOf(src) == OwnerOf(dst), or the
///     store keeps no transpose, in which case only the out-half exists and
///     every edge update is local to OwnerOf(src));
///   * cross-shard  — the halves live on two partitions. This is the new
///     "unsafe" *locality* class: it is the only update whose mutation spans
///     two partitions, and its share of the stream (cross_shard_ops on the
///     epoch pipeline) is the scaling lever — `(N-1)/N` of a uniform
///     stream at N shards (src and dst hash to the same partition with
///     probability 1/N), less for locality-aware placement.
///
/// ## How each layer uses the map
///
///   storage   GraphStore (StoreOptions::partition) becomes a partition-aware
///             handle: InsertEdge/DeleteEdge apply only the halves the
///             partition owns, NumEdges counts owned-src edges, so N
///             partitions sum to exactly the unsharded store.
///   shard     ShardedGraphStore (sharded_store.h) owns the N partitions
///             plus this router and stitches them back into one full store
///             concept — the coordinator view. Engines, checkpoints and the
///             sequential unsafe lane read/mutate through the stitched view
///             and observe bit-identical state at any N.
///   ingest    EpochPipeline's safe phase uses the partitions as its apply
///             lanes: each shard's lane applies, in claim order, the
///             shard-local updates it owns plus its half of each
///             cross-shard update — workers never touch another shard's
///             adjacency lists, and per-vertex apply order stays the claim
///             order, so results (and classification verdicts, which read
///             dependency parents) are bit-identical across shard counts.
///             (An unpartitioned store gets the same lanes from a modulo
///             router over a multiple of the pool width.)
///             EVERY safe update rides the lanes, including cross-shard
///             ones and the updates of safe spanning transactions (safe
///             updates change no result and their store effects commute,
///             so half-splitting is unobservable — no reader runs inside
///             the safe phase). What keeps draining through the sequential
///             coordinator lane, against the stitched view, is everything
///             classification-unsafe: unsafe updates wherever their halves
///             live, unsafe transactions, read-write transactions, and
///             vertex operations.
///   core      IncrementalEngine (EngineOptions::ownership) groups parallel
///             frontier processing by owning shard so a pool worker streams
///             one partition's adjacency arrays instead of striding across
///             all of them.
///   runtime   GetResult/history reads go through the router implicitly:
///             engine state is global (propagation is one deterministic
///             walk over the stitched view), store reads (EdgeCount,
///             ForEach*) delegate to the owning partition.
///   wal       One log; recovery (wal/recovery.h) partitions the replay by
///             ownership and replays the per-shard half-streams in
///             parallel, with vertex operations as ordering barriers.
///
/// ## PartitionMap contract
///
/// Ownership is pluggable: a PartitionMap (common/types.h; implementations
/// in partition_map.h) installed on the VertexPartition replaces the modulo
/// assignment everywhere at once, because every layer resolves ownership
/// through copies of the same VertexPartition value. Rules:
///
///   * who may call OwnerOf, when — any thread, any time after the map is
///     constructed. Maps are immutable pure functions of (v, num_shards);
///     they must resolve every vertex id, including ids allocated after the
///     map was built (TablePartitionMap falls back to modulo past its
///     table). No layer may cache OwnerOf results across a map change.
///   * when the map may change — only while the store is empty, via
///     ShardedGraphStore::InstallPartitionMap (recovery does this before
///     replay). Once any edge half has been placed, the placement *is* the
///     map; swapping maps on a populated store would orphan halves.
///   * durability — a table-backed map must outlive the process: the WAL is
///     a headerless fixed-record stream, so runtime/risgraph.h persists the
///     map as a CRC'd `<wal_path>.pmap` sidecar (the logical WAL header)
///     and wal/recovery.h installs it before replaying half-streams. A
///     sidecar built for a different shard count than the recovering store
///     is ignored: the recovered *state* is ownership-invariant (that is
///     the shard-invariance guarantee), only the half placement moves.
///   * invariance anchor — the bit-identical shard-count-invariance tests
///     (tests/test_shard.cc) must hold under any map. A map only decides
///     *where* halves live, never *what* they contain or the claim order
///     they apply in.
///
/// N comes from the same `ServiceOptions::ingest_shards` knob that sizes the
/// ingest rings (the store is built first, via StoreOptions::partition; the
/// pipeline aligns its ring default to the store's shard count). At N = 1
/// the router degenerates to a single always-local shard: one partition,
/// one safe-phase lane.
/// Detection for the shard layer's stitched store concept (exposes the
/// router and per-partition access — ShardedGraphStore in
/// sharded_store.h). One definition: the epoch pipeline's per-partition
/// safe-phase lanes and the WAL replay's partitioned branch must flip
/// together, or a store satisfying one but not the other would fan live
/// applies per shard while recovery replays through a different path.
template <typename Store>
inline constexpr bool kIsShardedStore =
    requires(Store& s, uint32_t i) { s.router(); s.shard(i); };

class ShardRouter {
 public:
  explicit ShardRouter(uint32_t num_shards = 1, bool keep_transpose = true,
                       std::shared_ptr<const PartitionMap> map = nullptr)
      : partition_{0, num_shards < 1 ? 1u : num_shards, std::move(map)},
        keep_transpose_(keep_transpose) {}

  uint32_t num_shards() const { return partition_.num_shards; }
  bool Partitioned() const { return partition_.Partitioned(); }
  uint32_t shard_of(VertexId v) const { return partition_.OwnerOf(v); }
  const std::shared_ptr<const PartitionMap>& map() const {
    return partition_.map;
  }

  /// The ownership predicate for partition `shard` — what gets injected into
  /// StoreOptions::partition / EngineOptions::ownership. Carries the
  /// installed map so every consumer resolves the same ownership.
  VertexPartition OwnershipOf(uint32_t shard) const {
    return VertexPartition{shard, partition_.num_shards, partition_.map};
  }

  /// Invokes fn(shard) once per partition that owns a half of this edge:
  /// OwnerOf(src) for the out-half, then OwnerOf(dst) for the in-half when
  /// the store keeps a transpose and it lives elsewhere. THE one definition
  /// of half placement — the safe phase's lanes, the partitioned WAL
  /// replay, and ShardedGraphStore's stitched mutations must all agree on
  /// it or the bit-identical shard-count-invariance guarantee drifts.
  template <typename Fn>
  void ForEachOwningShard(const Edge& e, Fn&& fn) const {
    uint32_t s = shard_of(e.src);
    fn(s);
    if (keep_transpose_) {
      uint32_t d = shard_of(e.dst);
      if (d != s) fn(d);
    }
  }

 private:
  VertexPartition partition_;  // shard field unused: this is the full map
  bool keep_transpose_;
};

}  // namespace risgraph

#endif  // RISGRAPH_SHARD_SHARD_ROUTER_H_

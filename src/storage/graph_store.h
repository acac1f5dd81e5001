#ifndef RISGRAPH_STORAGE_GRAPH_STORE_H_
#define RISGRAPH_STORAGE_GRAPH_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/stable_vector.h"
#include "common/types.h"
#include "index/hash_index.h"
#include "storage/adjacency_list.h"

namespace risgraph {

/// Graph store configuration.
struct StoreOptions {
  /// Degree above which a per-vertex edge index is built (Section 5: "in our
  /// implementations, the threshold is 512").
  uint32_t index_threshold = 512;
  /// Keep a transpose (in-edge) graph. Required by the incremental model's
  /// deletion path; can be disabled for ingest-only microbenchmarks.
  bool keep_transpose = true;
  /// Partition-aware handle (src/shard/): which vertex-ownership slice this
  /// store instance holds. Edge mutations apply only the halves the
  /// partition owns — the out-half when it owns src, the in-half when it
  /// owns dst — and NumEdges counts owned-src edges, so the N partitions of
  /// a ShardedGraphStore sum to exactly the unsharded store. The default
  /// (num_shards = 1) owns everything: today's behavior, unchanged.
  VertexPartition partition;
};

/// The in-memory graph store: one Indexed Adjacency List per vertex for
/// out-edges plus (optionally) one for in-edges (the transpose required by
/// the incremental model, Section 5).
///
/// Thread-safety: the store takes no per-vertex lock. Each vertex's out-list
/// and in-list must have one writer at a time; edge mutations on disjoint
/// vertices may run concurrently (NumEdges is atomic). Parallel safe-update
/// execution (Section 4) gets there by ownership, not locking: the epoch
/// pipeline splits every edge update into its out-half and in-half and hands
/// each half to the one apply lane that owns its vertex (ApplyOwned), in
/// claim order. Readers of the adjacency lists must not run concurrently with
/// writers; RisGraph's epoch loop guarantees that by separating the parallel
/// safe phase from analysis.
template <typename IndexT = HashIndex, bool kIndexOnly = false,
          typename EdgeArray = std::vector<AdjEntry>>
class GraphStore {
 public:
  using Adjacency = AdjacencyList<IndexT, kIndexOnly, EdgeArray>;

  explicit GraphStore(uint64_t num_vertices = 0, StoreOptions options = {})
      : options_(options) {
    EnsureVertices(num_vertices);
  }

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  const StoreOptions& options() const { return options_; }
  const VertexPartition& partition() const { return options_.partition; }

  /// Re-points this handle at a (possibly map-carrying) ownership slice.
  /// Only ShardedGraphStore::InstallPartitionMap calls this, and only while
  /// the store is empty (see the PartitionMap contract in shard_router.h).
  void SetPartition(VertexPartition partition) {
    options_.partition = std::move(partition);
  }

  //===------------------------------------------------------------------===//
  // Vertex management
  //===------------------------------------------------------------------===//

  uint64_t NumVertices() const { return out_.size(); }

  /// Grows the vertex set to at least n vertices (bulk-load path).
  void EnsureVertices(uint64_t n) {
    size_t old = out_.size();
    out_.Resize(n);
    if (options_.keep_transpose) in_.Resize(n);
    for (size_t v = old; v < n; ++v) {
      out_[v].SetIndexThreshold(options_.index_threshold);
      if (options_.keep_transpose) {
        in_[v].SetIndexThreshold(options_.index_threshold);
      }
    }
  }

  /// Allocates a vertex ID — recycled from the deleted pool when available,
  /// fresh otherwise (Section 5). Thread-safe.
  VertexId AddVertex() {
    std::lock_guard<std::mutex> g(vertex_mu_);
    if (!recycled_.empty()) {
      VertexId v = recycled_.back();
      recycled_.pop_back();
      return v;
    }
    size_t v = out_.EmplaceBack();
    if (options_.keep_transpose) in_.EmplaceBack();
    out_[v].SetIndexThreshold(options_.index_threshold);
    if (options_.keep_transpose) {
      in_[v].SetIndexThreshold(options_.index_threshold);
    }
    return v;
  }

  /// Deletes a vertex. Valid only for isolated vertices (the paper requires
  /// users to delete incident edges first); returns false otherwise.
  bool RemoveVertex(VertexId v) {
    if (v >= out_.size()) return false;
    if (out_[v].LiveKeys() != 0) return false;
    if (options_.keep_transpose && in_[v].LiveKeys() != 0) return false;
    std::lock_guard<std::mutex> g(vertex_mu_);
    recycled_.push_back(v);
    return true;
  }

  //===------------------------------------------------------------------===//
  // Edge mutations (one writer per vertex; see the class comment)
  //===------------------------------------------------------------------===//

  /// Inserts one directed edge; returns true if a new (dst, weight) key was
  /// created (false = duplicate count bump, or a partition that does not own
  /// src). A partitioned handle applies only the halves it owns.
  bool InsertEdge(const Edge& e) { return InsertOwned(options_.partition, e); }

  /// Deletes one directed edge (one duplicate). When the partition owns src,
  /// kNotFound short-circuits before the in-half (the halves always move in
  /// lock step, so an absent out-half implies an absent in-half); a
  /// partition owning only dst trusts the src owner's verdict and applies
  /// its in-half unconditionally (a no-op when the key is absent).
  DeleteResult DeleteEdge(const Edge& e) {
    return DeleteOwned(options_.partition, e);
  }

  /// Applies the halves of one edge update that `owner` owns, in place of
  /// the store's own ownership: the out-half when `owner` owns src, the
  /// in-half when it owns dst. The epoch pipeline's apply lanes over an
  /// unpartitioned store pass {lane, width}, so each vertex has exactly one
  /// writer and the lanes need no lock. Vertex operations are no-ops here
  /// (they run on the sequential lane).
  void ApplyOwned(const VertexPartition& owner, const Update& u) {
    if (u.kind == UpdateKind::kInsertEdge) {
      InsertOwned(owner, u.edge);
    } else if (u.kind == UpdateKind::kDeleteEdge) {
      DeleteOwned(owner, u.edge);
    }
  }

  /// Duplicate count of an edge key (0 = absent).
  uint64_t EdgeCount(VertexId src, EdgeKey key) const {
    return out_[src].Count(key);
  }

  //===------------------------------------------------------------------===//
  // Analysis accessors (single-writer phases only)
  //===------------------------------------------------------------------===//

  /// Visits every distinct out-edge of v as fn(dst, weight, dup_count).
  template <typename Fn>
  void ForEachOut(VertexId v, Fn&& fn) const {
    out_[v].ForEach(fn);
  }

  /// Visits every distinct in-edge of v as fn(src, weight, dup_count).
  template <typename Fn>
  void ForEachIn(VertexId v, Fn&& fn) const {
    in_[v].ForEach(fn);
  }

  uint64_t OutDegree(VertexId v) const { return out_[v].LiveKeys(); }
  uint64_t InDegree(VertexId v) const {
    return options_.keep_transpose ? in_[v].LiveKeys() : 0;
  }

  /// Raw adjacency slot access for edge-parallel push (IA mode only).
  static constexpr bool kHasRawSlots = Adjacency::kHasRawSlots;
  size_t RawOutSize(VertexId v) const { return out_[v].RawSize(); }
  const AdjEntry& RawOutEntry(VertexId v, size_t i) const {
    return out_[v].RawEntry(i);
  }
  size_t RawInSize(VertexId v) const { return in_[v].RawSize(); }
  const AdjEntry& RawInEntry(VertexId v, size_t i) const {
    return in_[v].RawEntry(i);
  }

  /// Total directed edges including duplicates.
  uint64_t NumEdges() const {
    return num_edges_.load(std::memory_order_relaxed);
  }

  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (size_t v = 0; v < out_.size(); ++v) bytes += out_[v].MemoryBytes();
    if (options_.keep_transpose) {
      for (size_t v = 0; v < in_.size(); ++v) bytes += in_[v].MemoryBytes();
    }
    return bytes + out_.MemoryBytes() +
           (options_.keep_transpose ? in_.MemoryBytes() : 0);
  }

 private:
  bool InsertOwned(const VertexPartition& owner, const Edge& e) {
    bool fresh = false;
    if (owner.Owns(e.src)) {
      fresh = out_[e.src].Insert(EdgeKey{e.dst, e.weight});
      num_edges_.fetch_add(1, std::memory_order_relaxed);
    }
    if (options_.keep_transpose && owner.Owns(e.dst)) {
      in_[e.dst].Insert(EdgeKey{e.src, e.weight});
    }
    return fresh;
  }

  DeleteResult DeleteOwned(const VertexPartition& owner, const Edge& e) {
    DeleteResult r = DeleteResult::kNotFound;
    bool owns_src = owner.Owns(e.src);
    if (owns_src) {
      r = out_[e.src].Delete(EdgeKey{e.dst, e.weight});
      if (r == DeleteResult::kNotFound) return r;
      num_edges_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (options_.keep_transpose && owner.Owns(e.dst)) {
      DeleteResult in_r = in_[e.dst].Delete(EdgeKey{e.src, e.weight});
      if (!owns_src) r = in_r;  // in-half-only handle: report the in side
    }
    return r;
  }

  StoreOptions options_;
  StableVector<Adjacency> out_;
  StableVector<Adjacency> in_;
  std::atomic<uint64_t> num_edges_{0};

  std::mutex vertex_mu_;
  std::vector<VertexId> recycled_;
};

/// The configuration RisGraph ships by default: Indexed Adjacency Lists with
/// a hash index ("IA_Hash", the winner of Table 8).
using DefaultGraphStore = GraphStore<HashIndex, false>;

}  // namespace risgraph

#endif  // RISGRAPH_STORAGE_GRAPH_STORE_H_

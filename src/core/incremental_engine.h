#ifndef RISGRAPH_CORE_INCREMENTAL_ENGINE_H_
#define RISGRAPH_CORE_INCREMENTAL_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/spinlock.h"
#include "common/timer.h"
#include "common/types.h"
#include "core/algorithm_api.h"
#include "core/classifier_trainer.h"
#include "core/hybrid_parallel.h"
#include "core/sparse_array.h"
#include "parallel/thread_pool.h"
#include "storage/graph_store.h"

namespace risgraph {

/// A vertex's parent link in the dependency tree: the graph edge whose
/// relaxation produced the vertex's current value (paper Section 2,
/// "dependency tree"). Stored bottom-up as a parent pointer tree (Section 5).
struct ParentEdge {
  VertexId parent = kInvalidVertex;  // kInvalidVertex = root / unreached
  Weight weight = 0;
};

/// One entry of an update's modification set: the vertex plus its pre-update
/// state. The history store turns these into version-chain entries so that
/// get_value(old_version, v) stays answerable after the update.
struct ModifiedRecord {
  VertexId vertex = kInvalidVertex;
  uint64_t old_value = 0;
  VertexId old_parent = kInvalidVertex;
  Weight old_parent_weight = 0;
};

/// Engine tuning knobs.
struct EngineOptions {
  /// Classifier choosing vertex- vs edge-parallel per push step.
  HybridClassifier classifier{};
  /// Force a single mode (Figure 13 ablations); kHybrid = use the classifier.
  ParallelMode mode = ParallelMode::kHybrid;
  /// Frontiers whose edge total is below this run inline on the calling
  /// thread — per-update affected areas are usually a handful of vertices and
  /// fork-join overhead would dominate (localized data access, Section 3).
  uint64_t sequential_edge_threshold = 2048;
  /// Record (active vertices, active edges, mode, nanos) per push step.
  bool record_push_samples = false;
  /// Ablation switch (Section 3.2): replace the sparse active-vertex arrays
  /// with a dense bitmap frontier, paying O(|V|) per push iteration to fill,
  /// scan and clear it — the mechanism the paper measures at 90.3% of
  /// KickStarter's BFS computation time. Results are identical; only the
  /// active-set representation changes. See bench_ablation_frontier.
  bool use_dense_frontier = false;
  /// Optional online classifier training (the paper's Section 5 future
  /// work): when set and mode == kHybrid, every push step above the
  /// sequential threshold consults the trainer (which may explore) and
  /// reports its duration back. Not owned; must outlive the engine.
  OnlineClassifierTrainer* online_trainer = nullptr;
  /// Injected vertex-ownership predicate (the shard layer's map; see
  /// shard/shard_router.h). When the graph store is partitioned
  /// (ownership.num_shards > 1), parallel frontier steps group active
  /// vertices by owning shard so a pool worker streams one partition's
  /// adjacency arrays instead of striding across all of them. Grouping only
  /// permutes the processing order of an already order-free parallel step;
  /// on a 1-thread pool the step stays in frontier order, keeping
  /// single-threaded runs bit-identical across shard counts.
  /// RisGraph::AddAlgorithm wires this automatically from a sharded store.
  VertexPartition ownership;
};

/// Incrementally maintains one monotonic algorithm over an evolving graph —
/// the paper's graph computing engine (Sections 2, 3.2) plus the
/// safe/unsafe update classification it feeds (Section 4).
///
/// State per vertex: current value, parent edge (dependency tree). Edge
/// insertions relax forward from the destination; deletions of tree edges
/// invalidate the dependency subtree, re-approximate it from unaffected
/// neighbours (KickStarter's trimmed approximation), and re-propagate.
/// All data access is localized: only the affected area is touched, active
/// vertices live in per-thread sparse arrays, and nothing is ever scanned or
/// cleared per update.
///
/// Thread-safety contract (mirrors RisGraph's epoch loop): mutation entry
/// points (OnInsert / OnDelete / Reset / SyncVertexCount) are single-writer;
/// internally they fan out over the thread pool. The read-only classification
/// helpers (IsInsertSafe / IsDeleteSafe) run on the epoch coordinator between
/// mutations, never during one.
template <MonotonicAlgorithm Algo, typename Store = DefaultGraphStore>
class IncrementalEngine {
 public:
  using Algorithm = Algo;

  IncrementalEngine(Store& store, VertexId root, EngineOptions options = {},
                    ThreadPool* pool = nullptr)
      : store_(store),
        pool_(pool != nullptr ? pool : &ThreadPool::Global()),
        options_(options),
        root_(root),
        frontier_(pool_->num_threads()),
        queued_(0),
        modified_marks_(0),
        modified_buf_(pool_->num_threads()),
        invalid_marks_(0) {
    Reset(root);
  }

  IncrementalEngine(const IncrementalEngine&) = delete;
  IncrementalEngine& operator=(const IncrementalEngine&) = delete;

  VertexId root() const { return root_; }
  const EngineOptions& options() const { return options_; }
  EngineOptions& mutable_options() { return options_; }

  //===------------------------------------------------------------------===//
  // Queries
  //===------------------------------------------------------------------===//

  uint64_t Value(VertexId v) const {
    return values_[v].load(std::memory_order_relaxed);
  }
  ParentEdge Parent(VertexId v) const {
    return ParentEdge{parent_[v], parent_weight_[v]};
  }
  bool IsReached(VertexId v) const { return Algo::IsReached(Value(v)); }
  uint64_t NumVertices() const { return values_.size(); }

  /// Vertices whose value or parent changed during the last mutation, with
  /// their pre-update state (each vertex appears at most once). Sorted by
  /// vertex id: the order is deterministic and shard/thread-count invariant
  /// whatever worker scheduling produced the records — history replay and
  /// the subscription subsystem's notification streams depend on it.
  const std::vector<ModifiedRecord>& LastModified() const { return modified_; }

  /// Convenience: just the ids of the last modification set.
  std::vector<VertexId> LastModifiedVertices() const {
    std::vector<VertexId> out;
    out.reserve(modified_.size());
    for (const ModifiedRecord& r : modified_) out.push_back(r.vertex);
    return out;
  }

  /// Push-step observations (enable via options().record_push_samples).
  const std::vector<PushSample>& push_samples() const { return push_samples_; }
  void ClearPushSamples() { push_samples_.clear(); }

  //===------------------------------------------------------------------===//
  // Safe/unsafe classification (paper Section 4) — read-only.
  //
  // Both helpers only read the results arrays and the store; the ingest
  // packer calls them in claim order before the epoch executes, never while
  // a mutation entry point below is running.
  //===------------------------------------------------------------------===//

  /// An insertion is safe iff it cannot produce a better value for its
  /// destination (category 3 in Section 4).
  bool IsInsertSafe(const Edge& e) const {
    if (Improves(e.src, e.dst, e.weight)) return false;
    if constexpr (Algo::kUndirected) {
      if (Improves(e.dst, e.src, e.weight)) return false;
    }
    return true;
  }

  /// A deletion is safe iff the edge is not on the dependency tree (category
  /// 2). `removes_last_duplicate` tells whether this deletion removes the
  /// final duplicate of its (dst, weight) key: while duplicates remain, the
  /// tree edge survives and the deletion is safe.
  bool IsDeleteSafe(const Edge& e, bool removes_last_duplicate) const {
    if (!removes_last_duplicate) return true;
    if (IsTreeEdge(e.src, e.dst, e.weight)) return false;
    if constexpr (Algo::kUndirected) {
      if (IsTreeEdge(e.dst, e.src, e.weight)) return false;
    }
    return true;
  }

  //===------------------------------------------------------------------===//
  // Mutations — single-writer.
  //===------------------------------------------------------------------===//

  /// Full (re)initialization: init_val everywhere, then propagate from every
  /// initially-reached vertex. Used at load time and by Reset.
  void Reset(VertexId root) {
    root_ = root;
    uint64_t n = store_.NumVertices();
    ResizeState(n);
    pool_->ParallelFor(n, 4096, [this](size_t, uint64_t b, uint64_t e) {
      for (uint64_t v = b; v < e; ++v) {
        values_[v].store(Algo::InitValue(v, root_), std::memory_order_relaxed);
        parent_[v] = kInvalidVertex;
        parent_weight_[v] = 0;
      }
    });
    BeginTracking();
    // Seed the frontier with every vertex whose initial value can propagate.
    for (uint64_t v = 0; v < n; ++v) {
      if (Algo::IsReached(values_[v].load(std::memory_order_relaxed)) &&
          queued_.Claim(v)) {
        frontier_.Append(0, v, DegreeOf(v));
      }
    }
    Propagate();
    EndTracking();
    modified_.clear();  // a reset is not an update; don't report the world
  }

  /// Engine maintenance after the store applied an edge insertion.
  void OnInsert(const Edge& e) {
    BeginTracking();
    SeedRelax(e.src, e.dst, e.weight);
    if constexpr (Algo::kUndirected) {
      SeedRelax(e.dst, e.src, e.weight);
    }
    Propagate();
    EndTracking();
  }

  /// Engine maintenance after the store applied an edge deletion.
  void OnDelete(const Edge& e, DeleteResult result) {
    BeginTracking();
    if (result == DeleteResult::kRemoved) {
      if (IsTreeEdge(e.src, e.dst, e.weight)) {
        InvalidateAndRepair(e.dst);
      } else if constexpr (Algo::kUndirected) {
        if (IsTreeEdge(e.dst, e.src, e.weight)) InvalidateAndRepair(e.src);
      }
    }
    EndTracking();
  }

  /// Grows per-vertex state to match the store after vertex insertions.
  /// Single-writer (the epoch loop routes vertex ops through the sequential
  /// lane; see EpochExecutor).
  void SyncVertexCount() {
    uint64_t n = store_.NumVertices();
    uint64_t old = values_.size();
    if (n <= old) return;
    ResizeState(n);
    for (uint64_t v = old; v < n; ++v) {
      values_[v].store(Algo::InitValue(v, root_), std::memory_order_relaxed);
      parent_[v] = kInvalidVertex;
      parent_weight_[v] = 0;
    }
  }

  size_t MemoryBytes() const {
    return values_.size() * (sizeof(std::atomic<uint64_t>) + sizeof(VertexId) +
                             sizeof(Weight) + sizeof(SpinLock)) +
           sizeof(*this);
  }

 private:
  //===------------------------------------------------------------------===//
  // Classification internals
  //===------------------------------------------------------------------===//

  bool Improves(VertexId src, VertexId dst, Weight w) const {
    uint64_t sv = values_[src].load(std::memory_order_relaxed);
    if (!Algo::IsReached(sv)) return false;
    uint64_t cand = Algo::GenNext(w, sv);
    return Algo::NeedUpdate(values_[dst].load(std::memory_order_relaxed),
                            cand);
  }

  bool IsTreeEdge(VertexId src, VertexId dst, Weight w) const {
    return parent_[dst] == src && parent_weight_[dst] == w &&
           Algo::IsReached(values_[dst].load(std::memory_order_relaxed));
  }

  //===------------------------------------------------------------------===//
  // Modified-vertex tracking (sparse, per paper Section 3.2: "we use sparse
  // arrays to track updates on results")
  //===------------------------------------------------------------------===//

 public:
  /// Transaction scope: between BeginBatch and EndBatch, the modification
  /// sets of successive mutations accumulate (each vertex recorded once with
  /// its pre-transaction state), so an atomic batch maps to one history
  /// version (paper Section 4, "classify and process updates of a
  /// transaction as a whole").
  void BeginBatch() {
    batch_mode_ = true;
    modified_.clear();
    modified_marks_.NextGeneration();
  }
  void EndBatch() { batch_mode_ = false; }

 private:
  void BeginTracking() {
    if (!batch_mode_) {
      modified_.clear();
      modified_marks_.NextGeneration();
    }
    // Fresh frontier-claim generation: without this, a vertex queued in the
    // final round of the previous update could not be re-seeded.
    queued_.NextGeneration();
  }

  // Records v's first modification within this update, capturing the
  // pre-update state (`old_*` must be read before the overwrite).
  void MarkModified(size_t tid, VertexId v, uint64_t old_value,
                    VertexId old_parent, Weight old_parent_weight) {
    if (modified_marks_.Claim(v)) {
      modified_buf_[tid].push_back(
          ModifiedRecord{v, old_value, old_parent, old_parent_weight});
    }
  }

  void EndTracking() {
    for (auto& buf : modified_buf_) {
      modified_.insert(modified_.end(), buf.begin(), buf.end());
      buf.clear();
    }
    // Deterministic exposure order. The per-thread buffers concatenate in a
    // worker-scheduling-dependent order; downstream consumers (history
    // record/GetModified, and the subscription subsystem's notification
    // streams) require LastModified() to be a pure function of the committed
    // state, shard- and thread-count invariant. Each vertex appears at most
    // once (modified_marks_), so sorting by id is a total order.
    std::sort(modified_.begin(), modified_.end(),
              [](const ModifiedRecord& a, const ModifiedRecord& b) {
                return a.vertex < b.vertex;
              });
  }

  //===------------------------------------------------------------------===//
  // Push propagation
  //===------------------------------------------------------------------===//

  uint64_t DegreeOf(VertexId v) const {
    uint64_t d = store_.OutDegree(v);
    if constexpr (Algo::kUndirected) d += store_.InDegree(v);
    return d;
  }

  // Relaxes (src -> dst, w) from the sequential entry path, seeding the
  // frontier with dst on success.
  void SeedRelax(VertexId src, VertexId dst, Weight w) {
    uint64_t sv = values_[src].load(std::memory_order_relaxed);
    if (!Algo::IsReached(sv)) return;
    uint64_t cand = Algo::GenNext(w, sv);
    uint64_t old = values_[dst].load(std::memory_order_relaxed);
    if (!Algo::NeedUpdate(old, cand)) return;
    MarkModified(0, dst, old, parent_[dst], parent_weight_[dst]);
    values_[dst].store(cand, std::memory_order_relaxed);
    parent_[dst] = src;
    parent_weight_[dst] = w;
    if (queued_.Claim(dst)) frontier_.Append(0, dst, DegreeOf(dst));
  }

  // The hot relaxation: candidate from (from -> to, w) given from's value at
  // read time. Lock-guarded recheck keeps (value, parent) consistent under
  // intra-update parallelism; monotonicity makes lost races self-heal (the
  // better value re-activates the vertex).
  void Relax(size_t tid, VertexId from, VertexId to, Weight w,
             uint64_t from_val) {
    uint64_t cand = Algo::GenNext(w, from_val);
    if (!Algo::NeedUpdate(values_[to].load(std::memory_order_relaxed), cand))
      return;
    {
      SpinLockGuard g(value_locks_[to]);
      uint64_t old = values_[to].load(std::memory_order_relaxed);
      if (!Algo::NeedUpdate(old, cand)) return;
      MarkModified(tid, to, old, parent_[to], parent_weight_[to]);
      values_[to].store(cand, std::memory_order_relaxed);
      parent_[to] = from;
      parent_weight_[to] = w;
    }
    if (queued_.Claim(to)) frontier_.Append(tid, to, DegreeOf(to));
  }

  void ProcessVertexEdges(size_t tid, VertexId x) {
    uint64_t xv = values_[x].load(std::memory_order_relaxed);
    if (!Algo::IsReached(xv)) return;
    store_.ForEachOut(x, [&](VertexId dst, Weight w, uint64_t) {
      Relax(tid, x, dst, w, xv);
    });
    if constexpr (Algo::kUndirected) {
      store_.ForEachIn(x, [&](VertexId src, Weight w, uint64_t) {
        Relax(tid, x, src, w, xv);
      });
    }
  }

  // Fixpoint loop: repeatedly drain the frontier and push, choosing
  // vertex-parallel or edge-parallel per step (Hybrid Parallel Mode).
  void Propagate() {
    if (options_.use_dense_frontier) {
      DensePropagate();
      return;
    }
    std::vector<VertexId>& cur = scratch_frontier_;
    uint64_t cur_edges = frontier_.Drain(cur);
    while (!cur.empty()) {
      queued_.NextGeneration();
      WallTimer step_timer;
      bool sequential =
          cur_edges + cur.size() <= options_.sequential_edge_threshold;
      bool ask_trainer = !sequential && options_.online_trainer != nullptr &&
                         options_.mode == ParallelMode::kHybrid &&
                         Store::kHasRawSlots;
      ParallelMode mode =
          ask_trainer ? options_.online_trainer->ChooseMode(cur.size(),
                                                            cur_edges)
                      : ChooseMode(cur.size(), cur_edges);
      if (sequential) {
        for (VertexId x : cur) ProcessVertexEdges(0, x);
      } else if (mode == ParallelMode::kEdgeParallel) {
        EdgeParallelStep(cur);
      } else {
        VertexParallelStep(cur);
      }
      if (ask_trainer) {
        options_.online_trainer->Observe(cur.size(), cur_edges, mode,
                                         step_timer.ElapsedNanos());
      }
      if (options_.record_push_samples) {
        push_samples_.push_back(PushSample{cur.size(), cur_edges, mode,
                                           step_timer.ElapsedNanos()});
      }
      cur_edges = frontier_.Drain(cur);
    }
  }

  // Dense-bitmap fixpoint loop (ablation; see EngineOptions). Activations
  // still flow through the per-thread buffers, but each iteration converts
  // them into a bitmap, scans the ENTIRE vertex set for set bits, and clears
  // the whole bitmap — the per-iteration O(|V|) costs that localized data
  // access removes.
  void DensePropagate() {
    uint64_t n = values_.size();
    if (dense_active_.size() != n) dense_active_ = Bitmap(n);
    std::vector<VertexId>& cur = scratch_frontier_;
    frontier_.Drain(cur);
    while (!cur.empty()) {
      queued_.NextGeneration();
      WallTimer step_timer;
      dense_active_.Clear();
      dense_active_.FillFrom(cur);
      uint64_t active = cur.size();
      pool_->ParallelFor(n, 4096, [this](size_t tid, uint64_t b, uint64_t e) {
        for (uint64_t v = b; v < e; ++v) {
          if (dense_active_.Get(v)) ProcessVertexEdges(tid, v);
        }
      });
      if (options_.record_push_samples) {
        push_samples_.push_back(PushSample{active, 0,
                                           ParallelMode::kVertexParallel,
                                           step_timer.ElapsedNanos()});
      }
      frontier_.Drain(cur);
    }
  }

  ParallelMode ChooseMode(uint64_t nv, uint64_t ne) const {
    if constexpr (!Store::kHasRawSlots) {
      return ParallelMode::kVertexParallel;  // IO mode: no raw slot access
    }
    switch (options_.mode) {
      case ParallelMode::kVertexParallel:
        return ParallelMode::kVertexParallel;
      case ParallelMode::kEdgeParallel:
        return ParallelMode::kEdgeParallel;
      case ParallelMode::kHybrid:
        return options_.classifier.Decide(nv, ne);
    }
    return ParallelMode::kVertexParallel;
  }

  void VertexParallelStep(const std::vector<VertexId>& cur) {
    // Partitioned store: group the frontier by owning shard (stable counting
    // sort into reused scratch) so contiguous ranges — and hence pool
    // workers — stay within one partition's adjacency arrays.
    const std::vector<VertexId>& work =
        options_.ownership.Partitioned() && pool_->num_threads() > 1
            ? GroupFrontierByOwner(cur)
            : cur;
    uint64_t grain =
        std::max<uint64_t>(1, work.size() / (pool_->num_threads() * 8));
    pool_->ParallelFor(work.size(), grain,
                       [this, &work](size_t tid, uint64_t b, uint64_t e) {
                         for (uint64_t i = b; i < e; ++i) {
                           ProcessVertexEdges(tid, work[i]);
                         }
                       });
  }

  const std::vector<VertexId>& GroupFrontierByOwner(
      const std::vector<VertexId>& cur) {
    const VertexPartition& own = options_.ownership;
    owner_offsets_.assign(own.num_shards + 1, 0);
    for (VertexId v : cur) owner_offsets_[own.OwnerOf(v) + 1]++;
    for (uint32_t s = 0; s < own.num_shards; ++s) {
      owner_offsets_[s + 1] += owner_offsets_[s];
    }
    grouped_frontier_.resize(cur.size());
    for (VertexId v : cur) {
      grouped_frontier_[owner_offsets_[own.OwnerOf(v)]++] = v;
    }
    return grouped_frontier_;
  }

  // Edge-parallel: partition the concatenated raw adjacency slots of the
  // active set across threads (Figure 6, right). Hubs are split across many
  // threads, which is what wins on few-vertex/many-edge frontiers.
  void EdgeParallelStep(const std::vector<VertexId>& cur) {
    if constexpr (Store::kHasRawSlots) {
      EdgeParallelPass(cur, /*transpose=*/false);
      if constexpr (Algo::kUndirected) {
        EdgeParallelPass(cur, /*transpose=*/true);
      }
    }
  }

  void EdgeParallelPass(const std::vector<VertexId>& cur, bool transpose) {
    offsets_.resize(cur.size() + 1);
    offsets_[0] = 0;
    for (size_t i = 0; i < cur.size(); ++i) {
      uint64_t slots =
          transpose ? store_.RawInSize(cur[i]) : store_.RawOutSize(cur[i]);
      offsets_[i + 1] = offsets_[i] + slots;
    }
    uint64_t total = offsets_.back();
    if (total == 0) return;
    uint64_t grain =
        std::max<uint64_t>(64, total / (pool_->num_threads() * 8));
    pool_->ParallelFor(
        total, grain, [this, &cur, transpose](size_t tid, uint64_t b,
                                              uint64_t e) {
          // Locate the active vertex containing slot b, then walk runs.
          size_t vi = static_cast<size_t>(
              std::upper_bound(offsets_.begin(), offsets_.end(), b) -
              offsets_.begin() - 1);
          uint64_t pos = b;
          while (pos < e && vi < cur.size()) {
            VertexId x = cur[vi];
            uint64_t xv = values_[x].load(std::memory_order_relaxed);
            uint64_t run_end = std::min<uint64_t>(e, offsets_[vi + 1]);
            if (Algo::IsReached(xv)) {
              for (uint64_t s = pos; s < run_end; ++s) {
                const AdjEntry& entry =
                    transpose ? store_.RawInEntry(x, s - offsets_[vi])
                              : store_.RawOutEntry(x, s - offsets_[vi]);
                if (entry.count > 0) {
                  Relax(tid, x, entry.dst, entry.weight, xv);
                }
              }
            }
            pos = run_end;
            vi++;
          }
        });
  }

  //===------------------------------------------------------------------===//
  // Deletion path: subtree invalidation + trimmed approximation (Section 2,
  // "trimmed approximation technique proposed by KickStarter")
  //===------------------------------------------------------------------===//

  void InvalidateAndRepair(VertexId start) {
    // 1. Collect the dependency subtree under `start` (children of x are
    //    graph-neighbours whose parent pointer names x) — localized: only the
    //    affected area is walked.
    invalid_marks_.NextGeneration();
    invalid_list_.clear();
    invalid_list_.push_back(start);
    invalid_marks_.Claim(start);
    for (size_t head = 0; head < invalid_list_.size(); ++head) {
      VertexId x = invalid_list_[head];
      auto visit_child = [&](VertexId y, Weight w) {
        if (parent_[y] == x && parent_weight_[y] == w &&
            invalid_marks_.Claim(y)) {
          invalid_list_.push_back(y);
        }
      };
      store_.ForEachOut(x, [&](VertexId y, Weight w, uint64_t) {
        visit_child(y, w);
      });
      if constexpr (Algo::kUndirected) {
        store_.ForEachIn(x, [&](VertexId y, Weight w, uint64_t) {
          visit_child(y, w);
        });
      }
    }

    // 2. Trim: re-approximate every invalidated vertex from its unaffected
    //    neighbours. Each vertex is written by exactly one loop iteration.
    uint64_t n_invalid = invalid_list_.size();
    auto trim_one = [this](size_t tid, uint64_t i) {
      VertexId y = invalid_list_[i];
      uint64_t best = Algo::InitValue(y, root_);
      VertexId best_parent = kInvalidVertex;
      Weight best_weight = 0;
      auto consider = [&](VertexId u, Weight w) {
        if (invalid_marks_.IsClaimed(u)) return;  // still invalid: skip
        uint64_t uv = values_[u].load(std::memory_order_relaxed);
        if (!Algo::IsReached(uv)) return;
        uint64_t cand = Algo::GenNext(w, uv);
        if (Algo::NeedUpdate(best, cand)) {
          best = cand;
          best_parent = u;
          best_weight = w;
        }
      };
      store_.ForEachIn(y, [&](VertexId u, Weight w, uint64_t) {
        consider(u, w);
      });
      if constexpr (Algo::kUndirected) {
        store_.ForEachOut(y, [&](VertexId u, Weight w, uint64_t) {
          consider(u, w);
        });
      }
      uint64_t old = values_[y].load(std::memory_order_relaxed);
      if (old != best || parent_[y] != best_parent ||
          parent_weight_[y] != best_weight) {
        MarkModified(tid, y, old, parent_[y], parent_weight_[y]);
      }
      values_[y].store(best, std::memory_order_relaxed);
      parent_[y] = best_parent;
      parent_weight_[y] = best_weight;
    };
    if (n_invalid <= 256) {
      for (uint64_t i = 0; i < n_invalid; ++i) trim_one(0, i);
    } else {
      pool_->ParallelFor(n_invalid, 64,
                         [&](size_t tid, uint64_t b, uint64_t e) {
                           for (uint64_t i = b; i < e; ++i) trim_one(tid, i);
                         });
    }

    // 3. Re-propagate within/out of the trimmed region. Activate every
    //    invalidated vertex that still holds a usable value; vertices trimmed
    //    to unreached get re-activated by Relax if a path returns.
    queued_.NextGeneration();
    for (VertexId y : invalid_list_) {
      if (Algo::IsReached(values_[y].load(std::memory_order_relaxed)) &&
          queued_.Claim(y)) {
        frontier_.Append(0, y, DegreeOf(y));
      }
    }
    Propagate();
  }

  void ResizeState(uint64_t n) {
    // values_ holds atomics (non-movable): grow via explicit copy.
    if (values_.size() < n) {
      std::vector<std::atomic<uint64_t>> bigger(n);
      for (size_t i = 0; i < values_.size(); ++i) {
        bigger[i].store(values_[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      }
      values_ = std::move(bigger);
      std::vector<SpinLock> locks(n);
      value_locks_ = std::move(locks);
    }
    parent_.resize(n, kInvalidVertex);
    parent_weight_.resize(n, 0);
    queued_.Grow(n);
    modified_marks_.Grow(n);
    invalid_marks_.Grow(n);
  }

  Store& store_;
  ThreadPool* pool_;
  EngineOptions options_;
  VertexId root_;

  std::vector<std::atomic<uint64_t>> values_;
  std::vector<VertexId> parent_;
  std::vector<Weight> parent_weight_;
  std::vector<SpinLock> value_locks_;

  SparseFrontier frontier_;
  std::vector<VertexId> scratch_frontier_;
  std::vector<VertexId> grouped_frontier_;
  std::vector<uint64_t> owner_offsets_;
  std::vector<uint64_t> offsets_;
  GenerationMarks queued_;
  Bitmap dense_active_{0};

  GenerationMarks modified_marks_;
  std::vector<std::vector<ModifiedRecord>> modified_buf_;
  std::vector<ModifiedRecord> modified_;

  GenerationMarks invalid_marks_;
  std::vector<VertexId> invalid_list_;

  std::vector<PushSample> push_samples_;
  bool batch_mode_ = false;
};

}  // namespace risgraph

#endif  // RISGRAPH_CORE_INCREMENTAL_ENGINE_H_

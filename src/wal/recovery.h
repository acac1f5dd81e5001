#ifndef RISGRAPH_WAL_RECOVERY_H_
#define RISGRAPH_WAL_RECOVERY_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "parallel/thread_pool.h"
#include "runtime/risgraph.h"
#include "shard/partition_map.h"
#include "shard/shard_router.h"
#include "wal/checkpoint.h"
#include "wal/wal.h"

namespace risgraph {

/// Checkpoint + log-tail recovery and log compaction for a durable RisGraph
/// instance. Ties together WriteAheadLog (wal.h) and the graph-store
/// snapshot format (checkpoint.h) into the classic flow:
///
///   crash recovery:  load checkpoint -> replay WAL records with
///                    lsn >= checkpoint LSN -> continue the LSN sequence
///   compaction:      write checkpoint at the current LSN -> truncate the WAL
///
/// Usage after a crash (paths as before the crash):
///
///   RisGraphOptions opt;
///   opt.wal_path = wal_path;                 // reopened for appending
///   RisGraph<> sys(0, opt);
///   RecoveryResult r = RecoverRisGraph(sys, ckpt_path, wal_path);
///   sys.AddAlgorithm<Bfs>(root);             // register algorithms *after*
///   sys.InitializeResults();                 // recovery, then recompute
struct RecoveryResult {
  bool checkpoint_loaded = false;
  uint64_t replayed_records = 0;
  /// First LSN new appends will use (continues the pre-crash sequence).
  uint64_t next_lsn = 0;
  /// Torn/corrupt tail accounting (WalReplayStats passthrough): recovery
  /// truncates the tail away and reports what it dropped — callers that
  /// tracked a durability watermark can assert nothing durable was lost.
  uint64_t dropped_bytes = 0;
  uint64_t dropped_records = 0;
  bool tail_truncated = false;
};

/// Rebuilds `sys`'s graph store from the checkpoint (when present and
/// intact) plus the WAL tail, and repositions the system's WAL LSN. Must run
/// before algorithms are registered; results are recomputed from the
/// recovered store by InitializeResults.
///
/// One log, per-shard replay partitions: under a sharded store
/// (shard/sharded_store.h) the replay splits each edge record into the
/// halves the partitions own — the out-half to OwnerOf(src)'s stream, the
/// in-half to OwnerOf(dst)'s — and applies the per-shard streams in
/// parallel on `pool` (default: the global pool). Each stream is the log
/// order filtered to one partition's halves, so every adjacency list is
/// rebuilt in exactly the sequential-replay order and the recovered state
/// is bit-identical at any shard count. Vertex records are ordering
/// barriers: they flush the pending streams, then apply through the
/// stitched store's centralized vertex allocator (id recycling must see
/// edge effects in log order).
template <typename Store>
RecoveryResult RecoverRisGraph(RisGraph<Store>& sys,
                               const std::string& checkpoint_path,
                               const std::string& wal_path,
                               ThreadPool* pool = nullptr) {
  constexpr bool kSharded = kIsShardedStore<Store>;  // shard/shard_router.h
  RecoveryResult result;

  // Pluggable ownership: if the pre-crash system ran under a table-backed
  // PartitionMap, its sidecar (the logical WAL header, partition_map.h) must
  // be installed *before* any half is placed — the checkpoint entries and the
  // replayed half-streams embody that ownership. A sidecar built for a
  // different shard count is ignored: recovered state is ownership-invariant
  // (the shard-invariance guarantee), so replay under the default map is
  // still correct — only the half placement moves.
  if constexpr (kSharded) {
    PartitionMapFile pmap =
        LoadPartitionMap(PartitionMapSidecarPath(wal_path));
    if (pmap.ok && pmap.num_shards == sys.store().num_shards() &&
        sys.store().router().map() == nullptr) {
      sys.store().InstallPartitionMap(pmap.map);
    }
  }

  uint64_t floor_lsn = 0;
  CheckpointInfo info = LoadCheckpoint(sys.store(), checkpoint_path);
  if (info.ok) {
    result.checkpoint_loaded = true;
    floor_lsn = info.last_lsn;
  }
  result.next_lsn = floor_lsn;

  if constexpr (kSharded) {
    auto& store = sys.store();
    const uint32_t n_shards = store.num_shards();
    ThreadPool* replay_pool = pool != nullptr ? pool : &ThreadPool::Global();
    // Bounded staging: unlike the streaming unsharded path, the partitioned
    // replay stages half-records, so cap the buffered total — a huge
    // edge-only tail must not materialize in memory during crash recovery.
    // Flushing early cannot change the result: each per-shard stream stays
    // the log order filtered to that partition's halves.
    constexpr size_t kMaxStagedHalves = size_t{1} << 20;
    std::vector<std::vector<Update>> streams(n_shards);
    size_t staged = 0;
    auto flush = [&] {
      replay_pool->ParallelFor(
          n_shards, 1, [&](size_t, uint64_t b, uint64_t e) {
            for (uint64_t s = b; s < e; ++s) {
              for (const Update& u : streams[s]) {
                // One per-shard apply definition, shared with the epoch
                // pipeline's lane workers (applies only the owned halves).
                store.ApplyToShard(static_cast<uint32_t>(s), u);
              }
              streams[s].clear();
            }
          });
      staged = 0;
    };
    WalReplayStats rs = WriteAheadLog::ReplayEx(wal_path, [&](const WalRecord& r) {
      result.next_lsn = std::max(result.next_lsn, r.lsn + 1);
      if (r.lsn < floor_lsn) return;  // already inside the checkpoint
      result.replayed_records++;
      switch (r.update.kind) {
        case UpdateKind::kInsertEdge:
        case UpdateKind::kDeleteEdge:
          // One definition of half placement: ShardRouter routes the
          // out-half and (cross-shard) in-half to their owners' streams.
          store.router().ForEachOwningShard(r.update.edge, [&](uint32_t s) {
            streams[s].push_back(r.update);
            ++staged;
          });
          if (staged >= kMaxStagedHalves) flush();
          break;
        case UpdateKind::kInsertVertex:
          flush();  // barrier: id assignment depends on prior edge effects
          store.AddVertex();
          break;
        case UpdateKind::kDeleteVertex:
          flush();  // barrier: the isolation check needs prior deletes
          store.RemoveVertex(r.update.edge.src);
          break;
      }
    }, /*repair=*/true);
    flush();
    result.dropped_bytes = rs.dropped_bytes;
    result.dropped_records = rs.dropped_records;
    result.tail_truncated = rs.torn;
  } else {
    (void)pool;
    WalReplayStats rs = WriteAheadLog::ReplayEx(wal_path, [&](const WalRecord& r) {
      result.next_lsn = std::max(result.next_lsn, r.lsn + 1);
      if (r.lsn < floor_lsn) return;  // already inside the checkpoint
      result.replayed_records++;
      switch (r.update.kind) {
        case UpdateKind::kInsertEdge:
          sys.store().InsertEdge(r.update.edge);
          break;
        case UpdateKind::kDeleteEdge:
          sys.store().DeleteEdge(r.update.edge);
          break;
        case UpdateKind::kInsertVertex:
          sys.store().AddVertex();
          break;
        case UpdateKind::kDeleteVertex:
          sys.store().RemoveVertex(r.update.edge.src);
          break;
      }
    }, /*repair=*/true);
    result.dropped_bytes = rs.dropped_bytes;
    result.dropped_records = rs.dropped_records;
    result.tail_truncated = rs.torn;
  }

  sys.wal().SetNextLsn(result.next_lsn);
  return result;
}

/// Compacts the log: snapshots the current store at the current LSN, then
/// truncates the WAL. After CompactWal, recovery needs only the (much
/// shorter) log written since. Call from a quiesced system (no in-flight
/// updates) — e.g. between service epochs or from the embedded API thread.
///
/// With the background flusher running and a segmented log, compaction
/// switches to *background retirement*: closed segments fully below the
/// checkpoint floor are truncated by the flusher between passes, and the
/// active segment keeps appending (no quiesce of the write path beyond the
/// drain that makes the checkpoint's LSN floor durable). A single-file log
/// has no closed segments to retire, so it is truncated like in coupled
/// mode (TruncateAfterCheckpoint quiesces the flusher itself).
template <typename Store>
bool CompactWal(RisGraph<Store>& sys, const std::string& checkpoint_path) {
  WriteAheadLog& wal = sys.wal();
  if (!wal.IsOpen()) return false;
  if (wal.Flush() != Status::kOk) return false;  // drain; fail-stop on error
  uint64_t floor_lsn = wal.NextLsn();
  if (!WriteCheckpoint(sys.store(), floor_lsn, checkpoint_path)) {
    return false;
  }
  if (wal.FlusherRunning() && wal.Segmented()) {
    wal.RetireSegmentsBefore(floor_lsn);
    return wal.status() == Status::kOk;
  }
  return wal.TruncateAfterCheckpoint() == Status::kOk;
}

}  // namespace risgraph

#endif  // RISGRAPH_WAL_RECOVERY_H_

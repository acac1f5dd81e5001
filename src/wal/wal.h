#ifndef RISGRAPH_WAL_WAL_H_
#define RISGRAPH_WAL_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "wal/wal_backend.h"

namespace risgraph {

/// One durable log record: an update plus its log sequence number.
struct WalRecord {
  uint64_t lsn = 0;
  Update update;
};

/// CRC32 (Castagnoli polynomial, software table) over a byte range.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

/// Append-only write-ahead log (paper Section 2: "RisGraph provides
/// durability with write-ahead logs").
///
/// Records are fixed-size and CRC-protected; a torn tail (partial final
/// record or CRC mismatch) is detected during replay, dropped, and —
/// under `ReplayEx(..., repair=true)` — truncated away so the log is
/// append-clean again. Appends are buffered on the coordinator thread.
///
/// Two durability modes:
///   - *Coupled* (no flusher): `Flush()` writes + syncs on the caller
///     thread, one group commit per epoch — the paper's Optane assumption.
///   - *Decoupled* (StartFlusher): the coordinator only `Seal`s the buffer
///     at epoch end; a background flusher writes and fsyncs on its own
///     time/byte-adaptive cadence and advances the durability watermarks
///     (`DurableUpto()` in LSNs — the source of truth — and
///     `DurableVersion()` for reporting). Execution acks no longer wait
///     for fsync; durability acks ride the watermark.
///
/// Error handling is fail-stop and sticky: the first write/fsync failure
/// latches `status() == kWalError`, the watermarks freeze, and every later
/// mutation reports the error — callers must stop acking (the epoch
/// pipeline rejects further ingest instead of executing it).
///
/// When `segment_bytes > 0` the log is a chain of segment files
/// `<path>.0000`, `<path>.0001`, … rotated as each fills; retired segments
/// (fully below a checkpoint's LSN floor) are truncated to zero length in
/// the background so the chain stays contiguous for replay without a
/// directory scan. `segment_bytes == 0` keeps the legacy single file at
/// `path` exactly as before.
struct WalOptions {
  bool fsync_on_flush = false;  // benches keep this off; the paper's Optane
                                // device makes syncs cheap anyway
  /// Rotate to a new segment file once the active one reaches this many
  /// bytes (chunks are never split, so segments may overshoot by one
  /// chunk). 0 = single legacy file at `path`.
  uint64_t segment_bytes = 0;
  /// Storage substrate; nullptr = an internal FileWalBackend. Not owned,
  /// and must outlive the log — Close() (and thus the destructor) still
  /// calls into it to release the active file. Tests inject
  /// FaultInjectingWalBackend here.
  WalBackend* backend = nullptr;
};

/// Flusher-side counters (snapshot; zeros in coupled mode except flushes).
struct WalFlushStats {
  uint64_t flushes = 0;        // write+sync passes that hit the backend
  uint64_t flushed_bytes = 0;  // payload bytes written
  uint64_t syncs = 0;          // fsync-inclusive syncs issued
  uint64_t rotations = 0;      // segment files opened beyond the first
  uint64_t retired_segments = 0;
};

/// What a replay found (see ReplayEx).
struct WalReplayStats {
  uint64_t records = 0;        // intact records delivered to fn
  uint64_t dropped_bytes = 0;  // torn/corrupt bytes past the intact prefix
  uint64_t dropped_records = 0;  // full record frames inside dropped_bytes
  uint64_t next_lsn = 0;       // lsn after the last intact record
  bool torn = false;           // a tear/corruption was found (and, with
                               // repair, truncated away)
};

class WriteAheadLog {
 public:
  using Options = WalOptions;

  /// On-disk frame size: lsn(8) kind(1) src(8) dst(8) weight(8) crc(4),
  /// serialized packed, independent of struct layout.
  static constexpr size_t kRecordBytes = 8 + 1 + 8 + 8 + 8 + 4;

  /// Background flusher cadence: flush when `flush_bytes` are pending or
  /// `interval_micros` elapsed since the last flush with anything pending,
  /// whichever comes first — decoupled from epoch boundaries.
  struct FlusherOptions {
    uint64_t interval_micros = 2000;
    uint64_t flush_bytes = 256 * 1024;
  };

  WriteAheadLog() = default;
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens (creating or appending to) the log at `path`. In segmented mode
  /// this probes the existing `<path>.000N` chain and appends to its tip.
  bool Open(const std::string& path, WalOptions options = WalOptions());
  void Close();
  bool IsOpen() const { return open_; }
  /// True when the log is a segment chain (WalOptions::segment_bytes > 0).
  bool Segmented() const { return options_.segment_bytes > 0; }

  /// Buffers one record; returns its LSN. Coordinator thread only.
  uint64_t Append(const Update& update);

  /// Group commit: buffers `n` records with a single buffer grow and one
  /// encode pass (the epoch pipeline appends a whole epoch at once instead
  /// of per-update). Returns the first LSN of the batch, or NextLsn() when
  /// n == 0. Coordinator thread only.
  uint64_t AppendBatch(const Update* updates, size_t n);

  /// Coupled mode: writes the buffer through the backend (and fsyncs when
  /// configured) on the caller thread, then advances DurableUpto().
  /// Decoupled mode: seals the buffer and *blocks* until the flusher has
  /// made everything appended so far durable (quiesce — checkpointing and
  /// shutdown use this). Either way returns the sticky status.
  Status Flush();

  /// Sticky fail-stop status; anything but kOk means the log is dead.
  Status status() const { return status_.load(std::memory_order_acquire); }

  uint64_t NextLsn() const { return next_lsn_.load(std::memory_order_acquire); }

  /// Continues the LSN sequence after recovery (a reopened log would
  /// otherwise restart at 0 and emit duplicate LSNs). See recovery.h.
  void SetNextLsn(uint64_t lsn) {
    next_lsn_.store(lsn, std::memory_order_release);
    durable_upto_.store(lsn, std::memory_order_release);
  }

  /// Truncates the log (every segment in the chain) after a checkpoint
  /// captured everything up to NextLsn(): subsequent appends continue the
  /// LSN sequence in a fresh file, so checkpoint + log tail stays a
  /// complete recovery pair while the log stops growing without bound.
  /// Quiesces the flusher first; synchronous.
  Status TruncateAfterCheckpoint();

  // --- Decoupled durability (the async group-commit plane) ---

  /// Starts the background flusher; no-op (false) if already running or the
  /// log is closed. After this, Append/Seal never touch the backend.
  bool StartFlusher(FlusherOptions options);
  bool StartFlusher() { return StartFlusher(FlusherOptions{}); }
  /// Drains pending chunks (best effort — a dead log drops them) and joins
  /// the flusher thread.
  void StopFlusher();
  bool FlusherRunning() const {
    return flusher_running_.load(std::memory_order_acquire);
  }

  /// Epoch-seal handoff (coordinator thread): moves the append buffer into
  /// the flush queue tagged with the result version the epoch committed.
  /// O(1) — no I/O. With nothing pending at all, the version watermark
  /// advances immediately (an all-read epoch is durable by definition).
  void Seal(uint64_t version);

  /// Durability watermark in LSNs: every record with lsn < DurableUpto()
  /// has been written *and synced*. This is the precise contract; the
  /// version watermark below is derived from it.
  uint64_t DurableUpto() const {
    return durable_upto_.load(std::memory_order_acquire);
  }

  /// Monotonic result-version watermark: every update whose epoch sealed
  /// with version <= DurableVersion() is durable. Safe updates do not bump
  /// the version, so this is reporting-grade — per-request precision comes
  /// from LSN markers (WaitDurableLsn / the RPC kDurable corr ranges).
  uint64_t DurableVersion() const {
    return durable_version_.load(std::memory_order_acquire);
  }

  /// Blocks until DurableUpto() >= lsn_exclusive, the log dies, or the
  /// timeout (micros; <0 = forever) expires. True iff durable.
  bool WaitDurableLsn(uint64_t lsn_exclusive, int64_t timeout_micros = -1);

  /// Blocks until DurableUpto() advances past `seen` (a previous
  /// DurableUpto() reading), the log dies, or the timeout expires — the
  /// push-loop park primitive. True iff it advanced.
  bool WaitDurablePast(uint64_t seen, int64_t timeout_micros);

  /// Coupled-mode version-watermark bump: callers that just saw a
  /// successful Flush() record the version it covered. No-op once dead.
  void AdvanceDurableVersion(uint64_t version);

  /// Requests background retirement of closed segments whose records all
  /// fall below `lsn` (a checkpoint floor): the flusher truncates them to
  /// zero length between passes, keeping the chain contiguous. Synchronous
  /// when no flusher is running. No-op in legacy single-file mode.
  void RetireSegmentsBefore(uint64_t lsn);

  WalFlushStats stats() const;

  /// Replays a log (single file or segment chain), invoking fn for every
  /// intact record in order. Stops at the first torn or corrupt record;
  /// with `repair`, truncates the torn file at the tear and zeroes any
  /// later segments so the log is append-clean.
  static WalReplayStats ReplayEx(const std::string& path,
                                 const std::function<void(const WalRecord&)>& fn,
                                 bool repair = false);

  /// Legacy wrapper: record count only, no repair.
  static uint64_t Replay(const std::string& path,
                         const std::function<void(const WalRecord&)>& fn);

 private:
  struct Chunk {
    std::vector<uint8_t> bytes;
    uint64_t end_lsn = 0;  // exclusive: lsn after the chunk's last record
    uint64_t version = 0;  // result version of the sealing epoch
  };
  struct ClosedSegment {
    uint32_t index = 0;
    uint64_t end_lsn = 0;  // exclusive
  };

  std::string SegmentPath(uint32_t index) const;
  /// Writes one chunk through the backend, rotating first if the active
  /// segment is full. io_mu_ must be held.
  Status WriteChunkLocked(const uint8_t* data, size_t len, uint64_t end_lsn);
  Status SyncLocked();
  void RetireLocked(uint64_t before_lsn);
  void Die();  // latch kWalError + wake every waiter
  void NotifyDurable();
  void FlusherMain(FlusherOptions options);
  /// Writes + syncs one batch of dequeued chunks and advances the
  /// watermarks; false latches the log dead.
  bool FlushQueuedChunksFrom(std::deque<Chunk>& work);

  WalBackend* backend_ = nullptr;  // == &owned_backend_ unless injected
  FileWalBackend owned_backend_;
  Options options_;
  std::string path_;
  bool open_ = false;
  std::atomic<uint64_t> next_lsn_{0};
  std::vector<uint8_t> buffer_;  // coordinator-thread append staging

  // Segment state (io_mu_).
  uint32_t segment_index_ = 0;
  uint64_t segment_written_ = 0;
  uint64_t active_end_lsn_ = 0;  // exclusive lsn of the active segment's tip
  std::vector<ClosedSegment> closed_segments_;
  std::string active_path_;  // cached SegmentPath(segment_index_) or path_

  // Serializes backend/segment access between the caller-side paths
  // (coupled Flush, truncate, close) and the flusher.
  std::mutex io_mu_;

  // Flush queue (queue_mu_): sealed chunks waiting for the flusher.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;  // flusher wakeup
  std::deque<Chunk> queue_;
  uint64_t queued_bytes_ = 0;
  bool stop_flusher_ = false;
  bool drain_ = false;  // quiesce request: flush now, regardless of cadence
  std::thread flusher_;
  std::atomic<bool> flusher_running_{false};

  // Durability watermarks + waiter parking.
  std::atomic<uint64_t> durable_upto_{0};
  std::atomic<uint64_t> durable_version_{0};
  std::atomic<Status> status_{Status::kOk};
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;

  // Retirement request (atomic max of checkpoint floors seen so far).
  std::atomic<uint64_t> retire_before_{0};

  // Stats (relaxed counters; stats() snapshots).
  std::atomic<uint64_t> stat_flushes_{0};
  std::atomic<uint64_t> stat_flushed_bytes_{0};
  std::atomic<uint64_t> stat_syncs_{0};
  std::atomic<uint64_t> stat_rotations_{0};
  std::atomic<uint64_t> stat_retired_{0};
};

}  // namespace risgraph

#endif  // RISGRAPH_WAL_WAL_H_

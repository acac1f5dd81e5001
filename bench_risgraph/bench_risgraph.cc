// The RisGraph benchmark: one workload per process.
//
//   bench_risgraph --workload <name> [--seed S] [--seconds T] [--trace 0|1]
//                  [--quick] [--out DIR]
//
// Workloads (README.md gives the reason for each):
//   safe_stream    twitter_sim, BFS, unpartitioned store: ~1% unsafe updates
//   unsafe_stream  usa_road, SSSP: ~15% unsafe updates, large affected areas
//   durable_feed   twitter_sim, SSSP, 4 store partitions, coupled WAL and
//                  10^4 standing queries drained by one consumer thread
//   rpc_mixed      twitter_sim, BFS behind RpcServer: 2 closed-loop
//                  connections issuing 3 Submit to 1 GetValue
//
// The process sets the system up kSetupRepeats times, or once per graph when
// a workload splits its work over several (setup_s is the median), drives it
// from one load-generating thread while the thread pool
// gets the other nproc - 1 cores, checks every maintained value against
// ReferenceCompute (and, for durable_feed, the notification streams against
// the final values), and prints one `<workload>.<metric> <value> <unit>`
// line per metric. The last line is one JSON object: end-to-end metrics, or
// per-layer metrics with --trace 1, which also writes a Chrome trace to
// DIR/trace_<workload>.json.
//
// Exit codes: 0 ok; 1 a failed check, a failed operation or a setup error;
// 2 the open-loop generator ran late (gen.late_p99_us > 1000), which makes
// the run invalid.

#include <sched.h>
#include <stdlib.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "core/algorithm_api.h"
#include "core/reference.h"
#include "ingest/epoch_pipeline.h"
#include "inputs.h"
#include "loadgen.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "parallel/thread_pool.h"
#include "report.h"
#include "runtime/client.h"
#include "runtime/risgraph.h"
#include "runtime/service.h"
#include "shard/sharded_store.h"
#include "subscribe/publisher.h"
#include "subscribe/registry.h"
#include "trace.h"

namespace risgraph::rgbench {
namespace {

constexpr size_t kSessions = 64;
constexpr size_t kSetupRepeats = 3;
constexpr uint32_t kStoreShards = 4;
constexpr size_t kWatchedPerQuery = 8;
constexpr size_t kRpcConnections = 2;
constexpr uint64_t kReplayUpdates = 100000;
constexpr uint64_t kReplayBatch = 256;
const uint64_t kHistoryWindow = ServiceOptions{}.history_window;
constexpr uint64_t kPingCalls = 20000;
constexpr double kMaxLateP99Us = 1000;
constexpr size_t kEpochSpans = 1 << 16;
// Latency is split into at most kMaxWindows windows of at least
// kMinWindowSamples samples, so a window's p99 rests on >= 10 samples.
constexpr size_t kMaxWindows = 50;
constexpr uint64_t kMinWindowSamples = 1000;
constexpr double kMiB = 1024.0 * 1024.0;

struct WorkloadSpec {
  const char* name;
  const char* dataset;
  bool sharded;           // ShardedGraphStore, kStoreShards modulo partitions
  bool wal;               // WAL file in the run's temp dir, no fsync
  bool async_durability;  // group commit on the WAL flusher thread
  size_t queries;         // standing queries of kWatchedPerQuery vertices
  uint64_t saturated;     // fixed saturated prefix (in-process workloads)
  double rate;            // open-loop updates per second
  uint64_t rpc_calls;     // closed-loop calls per connection (rpc_mixed)
  size_t graphs;          // independently seeded graphs the work is split over
};

constexpr WorkloadSpec kWorkloads[] = {
    {"safe_stream", "twitter_sim", false, false, false, 0, 1000000, 50000, 0,
     1},
    // A 128x128 lattice offers only ~6.7K deletions per seed, and a few of
    // them (tree edges near the root) dominate the cost; 16 graphs per run
    // keep one seed's heavy tail from deciding the run.
    {"unsafe_stream", "usa_road", false, false, false, 0, 320000, 5000, 0, 16},
    {"durable_feed", "twitter_sim", true, true, false, 10000, 600000, 50000,
     0, 1},
    {"rpc_mixed", "twitter_sim", false, true, true, 0, 0, 0, 130000, 1},
};

class CpuSplit;

struct Config {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  size_t pool_threads = 1;
  const CpuSplit* cpus = nullptr;
  int64_t origin_ns = 0;  // trace timestamps are relative to this
  std::string tmp_dir;
  std::string out_dir = ".bench_build/results";

  /// --quick divides every length by 10 (smoke runs only).
  uint64_t Scaled(uint64_t n) const { return quick ? n / 10 : n; }
  double Seconds() const { return quick ? seconds / 10 : seconds; }
  /// A fresh path in the run's temp dir (WAL files, the socket).
  std::string TmpPath(const char* stem) const {
    static int next = 0;
    return tmp_dir + "/" + stem + std::to_string(next++);
  }
};

/// What a run reports besides its metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool generator_late = false;
};

void Fail(Outcome* out, const std::string& what) {
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
  out->correct = false;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

size_t Windows(uint64_t expected_samples) {
  return static_cast<size_t>(std::clamp<uint64_t>(
      expected_samples / kMinWindowSamples, 1, kMaxWindows));
}

/// Median over the windows of a per-window statistic.
template <typename Stat>
double WindowMedian(WindowedLatency& lat, Stat stat) {
  std::vector<double> v;
  for (Samples& w : lat.windows) {
    if (w.size() > 0) v.push_back(stat(w));
  }
  return Median(v);
}

/// The latency metrics of one phase: window medians of the mean and p90 end
/// to end; p50, p99 and whole-phase values as info. On a shared 4-vCPU
/// host, p50 of durable_feed (one pool fork-join per epoch, so a
/// cross-CPU wakeup per update) and p99 of every workload drift between
/// runs by more than the widest bound allowed, so they are not gated.
void ReportLatency(Report& rep, WindowedLatency& lat) {
  rep.EndToEnd("lat_mean_us",
               WindowMedian(lat, [](Samples& w) { return w.MeanMicros(); }),
               "us");
  rep.EndToEnd("lat_p90_us", WindowMedian(lat, [](Samples& w) {
                 return w.PercentileMicros(0.9);
               }), "us");
  rep.Info("lat_p50_us", WindowMedian(lat, [](Samples& w) {
             return w.PercentileMicros(0.5);
           }), "us");
  rep.Info("lat_p99_us", WindowMedian(lat, [](Samples& w) {
             return w.PercentileMicros(0.99);
           }), "us");
  rep.Info("gen.samples", lat.all.size(), "count");
  rep.Info("gen.windows", lat.windows.size(), "count");
  rep.Info("lat_run_mean_us", lat.all.MeanMicros(), "us");
  rep.Info("lat_run_p99_us", lat.all.PercentileMicros(0.99), "us");
  rep.Info("lat_run_p999_us", lat.all.PercentileMicros(0.999), "us");
  rep.Info("gen.beyond_run_p999", lat.all.Beyond(0.999), "count");
  rep.Info("lat_run_max_us", lat.all.PercentileMicros(1.0), "us");
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// The process's CPUs split in two: the last one for the load-generating
/// thread, the others for everything the system starts. Threads inherit
/// their creator's affinity, so the main thread holds the system set while
/// it builds a system and moves to the load CPU only while it drives one
/// (LoadPin). Pinning is best effort; with one CPU both sets are that CPU.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&system_);
    CPU_ZERO(&load_);
    if (sched_getaffinity(0, sizeof(system_), &system_) != 0) {
      nproc_ = std::max(1u, std::thread::hardware_concurrency());
      return;
    }
    nproc_ = CPU_COUNT(&system_);
    int last = 0;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &system_)) last = c;
    }
    CPU_SET(last, &load_);
    if (nproc_ > 1) CPU_CLR(last, &system_);
  }

  size_t nproc() const { return nproc_; }
  void PinSystem() const { sched_setaffinity(0, sizeof(system_), &system_); }
  void PinLoad() const { sched_setaffinity(0, sizeof(load_), &load_); }

 private:
  size_t nproc_ = 1;
  cpu_set_t system_;
  cpu_set_t load_;
};

/// Moves the calling thread to the load CPU for its scope.
class LoadPin {
 public:
  explicit LoadPin(const CpuSplit& cpus) : cpus_(cpus) { cpus_.PinLoad(); }
  ~LoadPin() { cpus_.PinSystem(); }
  LoadPin(const LoadPin&) = delete;
  LoadPin& operator=(const LoadPin&) = delete;

 private:
  const CpuSplit& cpus_;
};

/// Removes the run's temp dir (WAL files, socket) on every exit path.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string tmpl = parent + "/rgXXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + parent);
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Number of maintained values that differ from a from-scratch fixpoint of
/// the final store.
template <typename Algo, typename Store>
uint64_t ReferenceMismatches(const RisGraph<Store>& sys, VertexId root) {
  std::vector<uint64_t> ref = ReferenceCompute<Algo>(sys.store(), root);
  uint64_t bad = ref.size() == sys.store().NumVertices() ? 0 : 1;
  for (VertexId v = 0; v < ref.size(); ++v) bad += sys.GetValue(0, v) != ref[v];
  return bad;
}

/// The graph system of a workload: store, one maintained algorithm, the
/// preload and initial results. An empty `wal_path` means no WAL.
template <typename Store, typename Algo>
std::unique_ptr<RisGraph<Store>> BuildGraph(const WorkloadSpec& spec,
                                            const Inputs& in,
                                            const std::string& wal_path) {
  RisGraphOptions opt;
  if (spec.sharded) opt.store.partition.num_shards = kStoreShards;
  opt.wal_path = wal_path;
  auto sys = std::make_unique<RisGraph<Store>>(in.num_vertices, opt);
  if (!wal_path.empty() && !sys->wal().IsOpen()) {
    throw std::runtime_error("cannot open WAL " + wal_path);
  }
  sys->template AddAlgorithm<Algo>(in.root);
  sys->LoadGraph(in.preload);
  sys->InitializeResults();
  return sys;
}

/// Per-layer counters every workload reads off its system and pipeline.
template <typename Store>
void ReportLayers(Report& rep, RisGraph<Store>& sys, EpochPipeline<Store>& p,
                  double submit_ms) {
  double safe = p.safe_ops();
  double unsafe = p.unsafe_ops();
  rep.Layer("ingest.safe_ops", safe, "count");
  rep.Layer("ingest.unsafe_ops", unsafe, "count");
  rep.Layer("ingest.unsafe_share", Ratio(unsafe, safe + unsafe), "ratio");
  std::vector<double> per_epoch;
  std::vector<double> threshold;
  uint64_t timeouts = 0;
  for (const EpochStat& e : p.epoch_stats()) {
    per_epoch.push_back(static_cast<double>(e.safe_ops + e.unsafe_ops));
    threshold.push_back(static_cast<double>(e.threshold));
    timeouts += e.timeouts;
  }
  rep.Layer("ingest.epochs", per_epoch.size(), "count");
  rep.Layer("ingest.updates_per_epoch_p50", Median(per_epoch), "count");
  rep.Layer("ingest.threshold_p50", Median(threshold), "count");
  rep.Layer("ingest.timeouts", timeouts, "count");
  rep.Layer("ingest.pack_ms", p.network_timer().TotalMillis(), "ms");
  rep.Layer("ingest.sched_ms", p.sched_timer().TotalMillis(), "ms");
  rep.Layer("ingest.submit_blocked_ms", submit_ms, "ms");
  rep.Layer("core.classify_ms", sys.cc_timer().TotalMillis(), "ms");
  rep.Layer("core.compute_ms", sys.cmp_eng_timer().TotalMillis(), "ms");
  rep.Layer("core.engine_mb", sys.algorithm(0).EngineMemoryBytes() / kMiB,
            "MB");
  rep.Layer("storage.apply_ms", sys.upd_eng_timer().TotalMillis(), "ms");
  rep.Layer("storage.mb", sys.store().MemoryBytes() / kMiB, "MB");
  rep.Layer("history.record_ms", sys.his_store_timer().TotalMillis(), "ms");
  rep.Layer("history.mb", sys.algorithm(0).HistoryMemoryBytes() / kMiB, "MB");
  double records = sys.wal().IsOpen() ? sys.wal().NextLsn() : 0;
  double flushes = sys.wal().IsOpen() ? sys.wal().stats().flushes : 0;
  rep.Layer("wal.flushes", flushes, "count");
  rep.Layer("wal.mb_written", records * WriteAheadLog::kRecordBytes / kMiB,
            "MB");
  rep.Layer("wal.records_per_flush", Ratio(records, flushes), "count");
  rep.Info("wal.ms", sys.wal_timer().TotalMillis(), "ms");
  double cross = p.cross_shard_ops();
  rep.Layer("shard.cross_shard_ops", cross, "count");
  rep.Layer("shard.cross_share", Ratio(cross, safe), "ratio");
  rep.Layer("runtime.mb", sys.MemoryBytes() / kMiB, "MB");
}

/// The subscription layer's counters; zeros for a workload without one.
void ReportSubscribeLayers(Report& rep, const ChangePublisher* publisher,
                           const SubscriptionRegistry* registry,
                           uint64_t notifications) {
  double batches = publisher ? publisher->matched_batches() : 0;
  double cand = registry ? registry->candidate_pairs() : 0;
  double scan = registry ? registry->scan_equivalent_pairs() : 0;
  double matched = registry ? registry->matched() : 0;
  double coalesced = registry ? registry->coalesced() : 0;
  rep.Layer("subscribe.batches", batches, "count");
  rep.Layer("subscribe.selectivity", Ratio(cand, scan), "ratio");
  rep.Layer("subscribe.coalesced_share", Ratio(coalesced, matched), "ratio");
  rep.Layer("subscribe.notifications", notifications, "count");
}

/// Epochs rebuilt from epoch_stats() as spans between consecutive epoch ends
/// (the first epoch has no start and is skipped).
template <typename Store>
void TraceEpochs(const EpochPipeline<Store>& p, SpanBuffer* trace) {
  const auto& stats = p.epoch_stats();
  for (size_t i = 1; i < stats.size(); ++i) {
    trace->Add("epoch", "ingest", stats[i - 1].end_ns, stats[i].end_ns, i);
  }
}

/// Serial replay of the stream prefix at pool width 1 on a fresh system:
/// IsUpdateSafe, then ApplySafeToStore or ApplyUnsafe, with WalAppendBatch +
/// WalFlush and ReleaseHistory once per kReplayBatch updates. The replay
/// always runs with a WAL, so every workload reports the WAL layer's cost.
/// ApplyUnsafe's span is split into storage, engine and history self time
/// by the deltas of their component timers.
template <typename Store, typename Algo>
void Replay(const WorkloadSpec& spec, const Config& cfg, Report& rep,
            SpanBuffer* trace) {
  ThreadPool::ResetGlobal(1);
  Inputs in = MakeInputs(spec.dataset, cfg.seed);
  auto sys = BuildGraph<Store, Algo>(spec, in, cfg.TmpPath("replay-wal"));
  struct Cost {
    int64_t ns = 0;
    uint64_t calls = 0;
    void Add(int64_t begin, int64_t end) {
      ns += end - begin;
      ++calls;
    }
  };
  Cost classify, safe, unsafe, wal, release;
  int64_t storage_ns = 0, engine_ns = 0, history_ns = 0;
  std::vector<Update> batch;
  batch.reserve(kReplayBatch);
  const uint64_t n = cfg.Scaled(kReplayUpdates);
  for (uint64_t i = 0; i < n; ++i) {
    const Update u = in.At(i);
    const bool sampled = i % LoadGen::kTraceEvery == 0;
    int64_t t0 = WallTimer::NowNanos();
    bool is_safe = sys->IsUpdateSafe(u);
    int64_t t1 = WallTimer::NowNanos();
    classify.Add(t0, t1);
    if (sampled) trace->Add("IsUpdateSafe", "core", t0, t1, i);
    if (is_safe) {
      sys->ApplySafeToStore(u);
      int64_t t2 = WallTimer::NowNanos();
      safe.Add(t1, t2);
      if (sampled) trace->Add("ApplySafeToStore", "storage", t1, t2, i);
    } else {
      int64_t s0 = sys->upd_eng_timer().TotalNanos();
      int64_t e0 = sys->cmp_eng_timer().TotalNanos();
      int64_t h0 = sys->his_store_timer().TotalNanos();
      sys->ApplyUnsafe(u);
      int64_t t2 = WallTimer::NowNanos();
      int64_t ds = sys->upd_eng_timer().TotalNanos() - s0;
      int64_t de = sys->cmp_eng_timer().TotalNanos() - e0;
      int64_t dh = sys->his_store_timer().TotalNanos() - h0;
      unsafe.Add(t1, t2);
      storage_ns += ds;
      engine_ns += de;
      history_ns += dh;
      if (sampled) {
        trace->Add("ApplyUnsafe", "core", t1, t2, i);
        trace->Add("storage", "storage", t1, t1 + ds, i);
        trace->Add("engine", "core", t1 + ds, t1 + ds + de, i);
        trace->Add("history", "history", t1 + ds + de, t1 + ds + de + dh, i);
      }
    }
    batch.push_back(u);
    if (batch.size() == kReplayBatch) {
      t0 = WallTimer::NowNanos();
      sys->WalAppendBatch(batch);
      sys->WalFlush();
      t1 = WallTimer::NowNanos();
      wal.Add(t0, t1);
      trace->Add("WalAppendBatch+WalFlush", "wal", t0, t1, i);
      VersionId cur = sys->GetCurrentVersion();
      sys->ReleaseHistory(cur > kHistoryWindow ? cur - kHistoryWindow : 0);
      int64_t t2 = WallTimer::NowNanos();
      release.Add(t1, t2);
      trace->Add("ReleaseHistory", "history", t1, t2, i);
      batch.clear();
    }
  }
  rep.Layer("core.classify_ns_per_op", Ratio(classify.ns, classify.calls),
            "ns");
  rep.Layer("core.unsafe_us_per_op", Ratio(unsafe.ns, unsafe.calls) / 1e3,
            "us");
  rep.Layer("storage.safe_apply_ns_per_op", Ratio(safe.ns, safe.calls), "ns");
  rep.Layer("history.release_us_per_call",
            Ratio(release.ns, release.calls) / 1e3, "us");
  rep.Layer("wal.replay_us_per_batch", Ratio(wal.ns, wal.calls) / 1e3, "us");
  rep.Info("replay.unsafe_storage_share", Ratio(storage_ns, unsafe.ns),
           "ratio");
  rep.Info("replay.unsafe_engine_share", Ratio(engine_ns, unsafe.ns), "ratio");
  rep.Info("replay.unsafe_history_share", Ratio(history_ns, unsafe.ns),
           "ratio");
}

//===--- In-process workloads: safe_stream, unsafe_stream, durable_feed ---===//

/// An in-process workload's system: the graph, an epoch pipeline with
/// kSessions pipelined sessions and, for durable_feed, the publisher, the
/// registry and the standing queries with their consumer.
template <typename Store, typename Algo>
class StreamSystem {
 public:
  StreamSystem(const WorkloadSpec& spec, const Config& cfg,
               size_t pool_threads, bool record_epoch_stats) {
    ThreadPool::ResetGlobal(pool_threads);
    inputs_ = MakeInputs(spec.dataset, cfg.seed);
    sys_ = BuildGraph<Store, Algo>(spec, inputs_,
                                   spec.wal ? cfg.TmpPath("wal") : "");
    ServiceOptions so;
    so.record_epoch_stats = record_epoch_stats;
    so.async_durability = spec.async_durability;
    pipeline_ = std::make_unique<EpochPipeline<Store>>(*sys_, so);
    if (spec.queries > 0) Subscribe(spec.queries, cfg.seed);
    for (size_t i = 0; i < kSessions; ++i) {
      sessions_.push_back(pipeline_->OpenSession());
    }
    pipeline_->Start();
  }

  ~StreamSystem() { Stop(); }
  StreamSystem(const StreamSystem&) = delete;
  StreamSystem& operator=(const StreamSystem&) = delete;

  const Inputs& inputs() const { return inputs_; }
  RisGraph<Store>& sys() { return *sys_; }
  EpochPipeline<Store>& pipeline() { return *pipeline_; }
  const std::vector<Session*>& sessions() const { return sessions_; }

  /// Starts the consumer thread (durable_feed only): WaitNotification, then
  /// PollNotifications, each poll timed when `trace` is set.
  void StartConsumer(SpanBuffer* trace) {
    if (consumer_ == nullptr) return;
    consumer_thread_ = std::thread([this, trace] {
      while (!consumer_done_.load(std::memory_order_acquire)) {
        if (consumer_->WaitNotification(2000)) Drain(trace);
      }
    });
  }

  /// Quiesces: stops the pipeline (every epoch sealed), waits until the
  /// publisher delivered everything, then stops the consumer and drains
  /// what is left.
  void Stop() {
    pipeline_->Stop();
    if (publisher_ == nullptr) return;
    publisher_->WaitIdle();
    consumer_done_.store(true, std::memory_order_release);
    if (consumer_thread_.joinable()) consumer_thread_.join();
    Drain(nullptr);
  }

  /// Every (query, vertex) pair that was notified must have last seen the
  /// vertex's final value. Returns the number of notified pairs, or -1 on a
  /// mismatch or a notification the consumer cannot place.
  int64_t NotifiedPairsMatching() {
    if (stray_ > 0) return -1;
    int64_t pairs = 0;
    for (size_t i = 0; i < watched_.size(); ++i) {
      if (!notified_[i]) continue;
      if (last_value_[i] != sys_->GetValue(0, watched_[i])) return -1;
      ++pairs;
    }
    return pairs;
  }

  void ReportSubscribe(Report& rep) {
    ReportSubscribeLayers(rep, publisher_.get(), registry_.get(),
                          notifications_);
    if (publisher_ == nullptr) return;
    rep.Info("subscribe.match_us_per_batch",
             Ratio(publisher_->match_timer().TotalNanos() / 1e3,
                   publisher_->matched_batches()),
             "us");
    rep.Info("subscribe.poll_us_p50", poll_ns_.PercentileMicros(0.5), "us");
    rep.Info("subscribe.poll_us_p99", poll_ns_.PercentileMicros(0.99), "us");
  }

 private:
  void Subscribe(size_t count, uint64_t seed) {
    registry_ = std::make_unique<SubscriptionRegistry>();
    publisher_ = std::make_unique<ChangePublisher>(*registry_);
    pipeline_->AttachPublisher(publisher_.get());
    consumer_ = std::make_unique<SessionClient<Store>>(*sys_, *pipeline_);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    for (size_t q = 0; q < count; ++q) {
      std::vector<VertexId> vs =
          DistinctVertices(rng, inputs_.num_vertices, kWatchedPerQuery);
      std::sort(vs.begin(), vs.end());
      uint64_t id =
          consumer_->Subscribe(SubscriptionFilter::WatchVertices(0, vs));
      if (id == 0) throw std::runtime_error("Subscribe refused");
      query_of_[id] = static_cast<uint32_t>(q);
      watched_.insert(watched_.end(), vs.begin(), vs.end());
    }
    last_value_.assign(watched_.size(), 0);
    notified_.assign(watched_.size(), 0);
  }

  // Polls once and folds the notifications into the last-value table.
  void Drain(SpanBuffer* trace) {
    buf_.clear();
    int64_t t0 = WallTimer::NowNanos();
    consumer_->PollNotifications(&buf_);
    if (trace != nullptr) {
      int64_t t1 = WallTimer::NowNanos();
      poll_ns_.Add(t1 - t0);
      trace->Add("PollNotifications", "subscribe", t0, t1, poll_ns_.size());
    }
    notifications_ += buf_.size();
    for (const Notification& n : buf_) {
      auto it = query_of_.find(n.subscription_id);
      if (it == query_of_.end()) {
        ++stray_;
        continue;
      }
      auto first = watched_.begin() + it->second * kWatchedPerQuery;
      auto last = first + kWatchedPerQuery;
      auto pos = std::find(first, last, n.vertex);
      if (pos == last) {
        ++stray_;
        continue;
      }
      size_t slot = static_cast<size_t>(pos - watched_.begin());
      last_value_[slot] = n.new_value;
      notified_[slot] = 1;
    }
  }

  Inputs inputs_;
  std::unique_ptr<RisGraph<Store>> sys_;
  std::unique_ptr<SubscriptionRegistry> registry_;
  std::unique_ptr<ChangePublisher> publisher_;
  std::unique_ptr<EpochPipeline<Store>> pipeline_;
  std::unique_ptr<SessionClient<Store>> consumer_;
  std::vector<Session*> sessions_;

  // Standing queries: query q watches watched_[q * kWatchedPerQuery ...].
  std::unordered_map<uint64_t, uint32_t> query_of_;
  std::vector<VertexId> watched_;
  std::vector<uint64_t> last_value_;
  std::vector<uint8_t> notified_;
  std::vector<Notification> buf_;
  uint64_t notifications_ = 0;
  uint64_t stray_ = 0;
  Samples poll_ns_;
  std::atomic<bool> consumer_done_{false};
  std::thread consumer_thread_;  // last: uses every member above
};

struct StreamRun {
  double saturated_s = 0;  // first submission to last ack of the prefix
  OpenLoopResult open;
  uint64_t sent = 0;
  int64_t submit_ns = 0;
};

/// The saturated prefix of `saturated` updates, then an open loop at `rate`
/// for `seconds` (none when 0), then quiesce.
template <typename Store, typename Algo>
StreamRun Drive(StreamSystem<Store, Algo>& s, const Config& cfg,
                uint64_t saturated, double rate, double seconds,
                SpanBuffer* load_trace, SpanBuffer* poll_trace) {
  StreamRun r;
  s.StartConsumer(poll_trace);
  LoadGen gen(s.sessions(), s.inputs(), load_trace);
  {
    LoadPin pin(*cfg.cpus);
    r.saturated_s = gen.Saturated(saturated);
    if (seconds > 0) {
      uint64_t expected = static_cast<uint64_t>(rate * seconds);
      r.open = gen.OpenLoop(rate, seconds, Windows(expected));
    }
  }
  s.Stop();
  r.sent = gen.cursor();
  r.submit_ns = gen.submit_ns();
  return r;
}

/// After a drive: completed == submitted, every value equals
/// ReferenceCompute, and (durable_feed) every notified (query, vertex) pair
/// last saw the vertex's final value.
template <typename Store, typename Algo>
void CheckStream(StreamSystem<Store, Algo>& s, const WorkloadSpec& spec,
                 uint64_t sent, Outcome* out) {
  uint64_t completed = s.pipeline().completed_ops();
  out->attempted += sent;
  out->failed += sent - std::min(completed, sent);
  if (completed != sent) {
    Fail(out, "completed " + std::to_string(completed) + " of " +
                  std::to_string(sent) + " submitted updates");
  }
  uint64_t bad = ReferenceMismatches<Algo>(s.sys(), s.inputs().root);
  if (bad != 0) {
    Fail(out, std::to_string(bad) + " values differ from ReferenceCompute");
  }
  if (spec.queries > 0) {
    int64_t pairs = s.NotifiedPairsMatching();
    if (pairs < 0) {
      Fail(out, "a notification stream disagrees with the final values");
    } else if (pairs == 0) {
      Fail(out, "no standing query was notified");
    }
  }
}

/// Graph g of a run: a workload with several graphs splits its work evenly
/// over that many independently seeded inputs (seeds never shared between
/// runs), so one run averages over several graphs.
Config GraphConfig(const Config& cfg, const WorkloadSpec& spec, size_t g) {
  Config gc = cfg;
  gc.seed = spec.graphs == 1 ? cfg.seed : cfg.seed * spec.graphs + g;
  return gc;
}

template <typename Store, typename Algo>
double SaturatedOnly(const WorkloadSpec& spec, const Config& cfg,
                     uint64_t saturated, size_t pool_threads) {
  StreamSystem<Store, Algo> s(spec, cfg, pool_threads, false);
  return saturated /
         Drive(s, cfg, saturated, 0, 0, nullptr, nullptr).saturated_s;
}

template <typename Store, typename Algo>
Outcome RunStream(const WorkloadSpec& spec, const Config& cfg, Report& rep) {
  Outcome out;
  const uint64_t saturated = cfg.Scaled(spec.saturated) / spec.graphs;
  const double seconds = cfg.Seconds() / spec.graphs;
  std::vector<double> setup_s;
  double saturated_s = 0;
  WindowedLatency latency;
  Samples late;
  for (size_t g = 0; g < spec.graphs; ++g) {
    const Config gc = GraphConfig(cfg, spec, g);
    std::unique_ptr<StreamSystem<Store, Algo>> s;
    for (size_t i = 0; i < (spec.graphs == 1 ? kSetupRepeats : 1); ++i) {
      s.reset();
      WallTimer t;
      s = std::make_unique<StreamSystem<Store, Algo>>(spec, gc,
                                                      cfg.pool_threads, false);
      setup_s.push_back(t.ElapsedSeconds());
    }
    StreamRun run =
        Drive(*s, gc, saturated, spec.rate, seconds, nullptr, nullptr);
    CheckStream(*s, spec, run.sent, &out);
    saturated_s += run.saturated_s;
    latency.Append(run.open.latency);
    late.Append(run.open.late);
  }
  double late_p99 = late.PercentileMicros(0.99);
  out.generator_late = late_p99 > kMaxLateP99Us;
  rep.EndToEnd("setup_s", Median(setup_s), "s");
  rep.EndToEnd("throughput_ops_s", saturated * spec.graphs / saturated_s,
               "ops/s");
  ReportLatency(rep, latency);
  rep.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  rep.Info("gen.late_p99_us", late_p99, "us");
  rep.Info("graphs", spec.graphs, "count");
  rep.Info("failed_frac", Ratio(out.failed, out.attempted), "ratio");
  return out;
}

/// The traced run of an in-process workload, on its first graph: spans and
/// counters of a traced drive, then the untraced and 1-thread saturated
/// baselines and the serial replay, each on a fresh system.
template <typename Store, typename Algo>
Outcome TraceStream(const WorkloadSpec& spec, const Config& cfg, Report& rep) {
  Outcome out;
  const Config gc = GraphConfig(cfg, spec, 0);
  const uint64_t saturated = cfg.Scaled(spec.saturated) / spec.graphs;
  const double seconds = cfg.Seconds() / spec.graphs;
  auto s = std::make_unique<StreamSystem<Store, Algo>>(spec, gc,
                                                       cfg.pool_threads, true);
  const size_t cap = 1 << 18;
  SpanBuffer load_trace(1, cap), poll_trace(2, cap);
  StreamRun run = Drive(*s, gc, saturated, spec.rate, seconds, &load_trace,
                        &poll_trace);
  CheckStream(*s, spec, run.sent, &out);
  const double traced = saturated / run.saturated_s;
  ReportLayers(rep, s->sys(), s->pipeline(), run.submit_ns / 1e6);
  s->ReportSubscribe(rep);
  rep.Layer("net.requests_served", 0, "count");
  rep.Layer("gen.samples", run.open.latency.all.size(), "count");
  SpanBuffer epoch_trace(3, kEpochSpans);
  TraceEpochs(s->pipeline(), &epoch_trace);
  s.reset();

  double untraced =
      SaturatedOnly<Store, Algo>(spec, gc, saturated, cfg.pool_threads);
  double one_thread = SaturatedOnly<Store, Algo>(spec, gc, saturated, 1);
  rep.Layer("parallel.speedup_vs_1t", Ratio(untraced, one_thread), "ratio");
  rep.Layer("trace.overhead_frac", 1 - Ratio(traced, untraced), "ratio");
  rep.Info("parallel.throughput_1t_ops_s", one_thread, "ops/s");

  SpanBuffer replay_trace(4, cap);
  Replay<Store, Algo>(spec, gc, rep, &replay_trace);
  std::string path = cfg.out_dir + "/trace_" + spec.name + ".json";
  if (!WriteChromeTrace(path, {&load_trace, &poll_trace, &epoch_trace,
                               &replay_trace},
                        cfg.origin_ns)) {
    throw std::runtime_error("cannot write " + path);
  }
  rep.Info("trace.dropped_spans",
           load_trace.dropped() + poll_trace.dropped() +
               epoch_trace.dropped() + replay_trace.dropped(),
           "count");
  return out;
}

//===--- rpc_mixed ---------------------------------------------------------===//

/// One closed-loop call as its connection saw it.
struct Call {
  int64_t end_ns;
  int64_t dur_ns;
  bool read;
  bool ok;
};

/// A closed-loop phase, split into windows of completion time like the
/// open loop's latency.
struct RpcRun {
  WindowedLatency submit;  // Submit call durations
  WindowedLatency read;    // GetValue call durations
  std::vector<double> window_throughput;  // calls completed per second
  uint64_t submits = 0;
  uint64_t reads = 0;
  uint64_t failed = 0;
  double seconds = 0;

  double throughput() const { return Median(window_throughput); }
};

/// rpc_mixed's system, configured like examples/rpc_service.cpp: WAL with
/// async durability, OverloadPolicy::kShed, no publisher; RpcServer on a
/// Unix socket with kRpcConnections connected RpcClients.
template <typename Algo>
class RpcSystem {
 public:
  RpcSystem(const WorkloadSpec& spec, const Config& cfg, size_t pool_threads,
            bool record_epoch_stats) {
    ThreadPool::ResetGlobal(pool_threads);
    inputs_ = MakeInputs(spec.dataset, cfg.seed);
    sys_ = BuildGraph<DefaultGraphStore, Algo>(spec, inputs_,
                                               cfg.TmpPath("wal"));
    ServiceOptions so;
    so.overload_policy = OverloadPolicy::kShed;
    so.async_durability = spec.async_durability;
    so.record_epoch_stats = record_epoch_stats;
    service_ = std::make_unique<RisGraphService<>>(*sys_, so);
    server_ = std::make_unique<RpcServer>(*sys_, *service_, cfg.TmpPath("s"));
    if (!server_->Start(64)) {
      throw std::runtime_error("cannot bind " + server_->socket_path());
    }
    service_->Start();
    for (size_t c = 0; c < kRpcConnections; ++c) {
      clients_.push_back(std::make_unique<RpcClient>());
      if (!clients_.back()->Connect(server_->socket_path())) {
        throw std::runtime_error("cannot connect to " + server_->socket_path());
      }
    }
  }

  ~RpcSystem() { Stop(); }
  RpcSystem(const RpcSystem&) = delete;
  RpcSystem& operator=(const RpcSystem&) = delete;

  const Inputs& inputs() const { return inputs_; }
  RisGraph<>& sys() { return *sys_; }
  EpochPipeline<>& pipeline() { return service_->pipeline(); }
  uint64_t requests_served() const { return server_->requests_served(); }

  /// Closed loop: each connection's thread issues `calls` blocking calls,
  /// every fourth a GetValue of a seeded vertex, the rest Submits of the
  /// stream (connection c takes positions c, c + kRpcConnections, ...).
  RpcRun ClosedLoop(uint64_t calls, uint64_t seed, SpanBuffer* traces,
                    const CpuSplit& cpus) {
    std::vector<std::vector<Call>> per(kRpcConnections);
    std::vector<std::thread> threads;
    LoadPin pin(cpus);  // the connection threads inherit the load CPU
    const int64_t start = WallTimer::NowNanos();
    for (size_t c = 0; c < kRpcConnections; ++c) {
      threads.emplace_back([&, c] {
        std::vector<Call>& log = per[c];
        log.reserve(calls);
        RpcClient& client = *clients_[c];
        SpanBuffer* trace = traces != nullptr ? &traces[c] : nullptr;
        Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7 + c);
        uint64_t submits = 0;
        for (uint64_t k = 0; k < calls; ++k) {
          const bool read = k % 4 == 3;
          const bool sampled = trace != nullptr && k % LoadGen::kTraceEvery < 4;
          int64_t t0 = WallTimer::NowNanos();
          bool ok;
          if (read) {
            uint64_t value = 0;
            ok = client.GetValue(0, rng.NextBounded(inputs_.num_vertices),
                                 &value);
          } else {
            ok = client.Submit(inputs_.At(submits++ * kRpcConnections + c)) !=
                 kInvalidVersion;
          }
          int64_t t1 = WallTimer::NowNanos();
          log.push_back(Call{t1, t1 - t0, read, ok});
          if (sampled) trace->Add(read ? "GetValue" : "Submit", "net", t0, t1, k);
        }
      });
    }
    for (auto& t : threads) t.join();

    RpcRun r;
    int64_t end = start + 1;
    for (const auto& log : per) {
      for (const Call& call : log) end = std::max(end, call.end_ns);
    }
    const double span = static_cast<double>(end - start);
    r.seconds = span / 1e9;
    const size_t windows = Windows(calls * kRpcConnections * 3 / 4);
    r.submit.Init(windows, calls * kRpcConnections);
    r.read.Init(windows, calls * kRpcConnections / 4 + 1);
    std::vector<uint64_t> completed(windows, 0);
    for (const auto& log : per) {
      for (const Call& call : log) {
        double frac = static_cast<double>(call.end_ns - start) / span;
        (call.read ? r.read : r.submit).Add(frac, call.dur_ns);
        ++completed[std::min(static_cast<size_t>(frac * windows), windows - 1)];
        (call.read ? r.reads : r.submits)++;
        r.failed += !call.ok;
      }
    }
    for (uint64_t n : completed) {
      r.window_throughput.push_back(n / (r.seconds / windows));
    }
    return r;
  }

  Samples Ping(uint64_t calls, const CpuSplit& cpus) {
    LoadPin pin(cpus);
    Samples s;
    s.Reserve(calls);
    for (uint64_t i = 0; i < calls; ++i) {
      int64_t t0 = WallTimer::NowNanos();
      clients_[0]->Ping();
      s.Add(WallTimer::NowNanos() - t0);
    }
    return s;
  }

  /// Closes the connections, then stops the server and the service (every
  /// counter is final afterwards).
  void Stop() {
    for (auto& c : clients_) c->Close();
    server_->Stop();
    service_->Stop();
  }

 private:
  Inputs inputs_;
  std::unique_ptr<RisGraph<>> sys_;
  std::unique_ptr<RisGraphService<>> service_;
  std::unique_ptr<RpcServer> server_;
  std::vector<std::unique_ptr<RpcClient>> clients_;
};

template <typename Algo>
double RpcThroughput(const WorkloadSpec& spec, const Config& cfg,
                     size_t pool_threads) {
  RpcSystem<Algo> s(spec, cfg, pool_threads, false);
  return s.ClosedLoop(cfg.Scaled(spec.rpc_calls), cfg.seed, nullptr, *cfg.cpus)
      .throughput();
}

template <typename Algo>
Outcome RunRpc(const WorkloadSpec& spec, const Config& cfg, Report& rep) {
  Outcome out;
  std::vector<double> setup_s;
  std::unique_ptr<RpcSystem<Algo>> s;
  for (size_t i = 0; i < (cfg.trace ? 1 : kSetupRepeats); ++i) {
    s.reset();
    WallTimer t;
    s = std::make_unique<RpcSystem<Algo>>(spec, cfg, cfg.pool_threads,
                                          cfg.trace);
    setup_s.push_back(t.ElapsedSeconds());
  }
  const size_t cap = cfg.trace ? 1 << 16 : 0;
  std::vector<SpanBuffer> traces;
  for (size_t c = 0; c < kRpcConnections; ++c) traces.emplace_back(10 + c, cap);
  RpcRun run = s->ClosedLoop(cfg.Scaled(spec.rpc_calls), cfg.seed,
                             cfg.trace ? traces.data() : nullptr, *cfg.cpus);
  Samples ping;
  if (cfg.trace) ping = s->Ping(cfg.Scaled(kPingCalls), *cfg.cpus);
  s->Stop();

  uint64_t completed = s->pipeline().completed_ops();
  out.attempted = run.submits + run.reads;
  out.failed = run.failed;
  if (run.failed != 0) Fail(&out, std::to_string(run.failed) + " calls failed");
  if (completed != run.submits) {
    Fail(&out, "completed " + std::to_string(completed) + " of " +
                   std::to_string(run.submits) + " submitted updates");
  }
  uint64_t bad = ReferenceMismatches<Algo>(s->sys(), s->inputs().root);
  if (bad != 0) {
    Fail(&out, std::to_string(bad) + " values differ from ReferenceCompute");
  }
  rep.Info("failed_frac", Ratio(out.failed, out.attempted), "ratio");
  rep.Info("read_p50_us", WindowMedian(run.read, [](Samples& w) {
             return w.PercentileMicros(0.5);
           }), "us");
  rep.Info("read_p99_us", WindowMedian(run.read, [](Samples& w) {
             return w.PercentileMicros(0.99);
           }), "us");

  if (!cfg.trace) {
    rep.EndToEnd("setup_s", Median(setup_s), "s");
    rep.EndToEnd("throughput_ops_s", run.throughput(), "ops/s");
    ReportLatency(rep, run.submit);
    rep.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
    rep.Info("throughput_total_ops_s", out.attempted / run.seconds, "ops/s");
    return out;
  }

  ReportLayers(rep, s->sys(), s->pipeline(), run.submit.all.SumMillis());
  ReportSubscribeLayers(rep, nullptr, nullptr, 0);
  rep.Layer("net.requests_served", s->requests_served(), "count");
  rep.Info("net.ping_p50_us", ping.PercentileMicros(0.5), "us");
  rep.Info("net.ping_p99_us", ping.PercentileMicros(0.99), "us");
  SpanBuffer epoch_trace(3, kEpochSpans);
  TraceEpochs(s->pipeline(), &epoch_trace);
  rep.Layer("gen.samples", run.submit.all.size(), "count");
  s.reset();

  double untraced = RpcThroughput<Algo>(spec, cfg, cfg.pool_threads);
  double one_thread = RpcThroughput<Algo>(spec, cfg, 1);
  rep.Layer("parallel.speedup_vs_1t", Ratio(untraced, one_thread), "ratio");
  rep.Layer("trace.overhead_frac", 1 - Ratio(run.throughput(), untraced),
            "ratio");
  rep.Info("parallel.throughput_1t_ops_s", one_thread, "ops/s");

  SpanBuffer replay_trace(4, cap);
  Replay<DefaultGraphStore, Algo>(spec, cfg, rep, &replay_trace);
  std::string path = cfg.out_dir + "/trace_" + spec.name + ".json";
  if (!WriteChromeTrace(path, {&traces[0], &traces[1], &epoch_trace,
                               &replay_trace},
                        cfg.origin_ns)) {
    throw std::runtime_error("cannot write " + path);
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_risgraph --workload <name> [--seed S] "
               "[--seconds T] [--trace 0|1] [--quick] [--out DIR]\n"
               "workloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 1;
}

int Main(int argc, char** argv) {
  Config cfg;
  cfg.origin_ns = WallTimer::NowNanos();
  const WorkloadSpec* spec = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      std::string name = value();
      for (const WorkloadSpec& w : kWorkloads) {
        if (name == w.name) spec = &w;
      }
      if (spec == nullptr) throw std::invalid_argument("unknown workload " + name);
    } else if (a == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (a == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (a == "--trace") {
      // Bare `--trace` means 1; an explicit 0 or 1 may follow.
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        cfg.trace = value() == "1";
      } else {
        cfg.trace = true;
      }
    } else if (a == "--quick") {
      cfg.quick = true;
    } else if (a == "--out") {
      cfg.out_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (spec == nullptr || !(cfg.seconds > 0)) return Usage();

  // The program receives only the generated inputs: no environment knob may
  // rescale the datasets or resize the pool behind the benchmark's back.
  unsetenv("RISGRAPH_SCALE");
  unsetenv("RISGRAPH_THREADS");
  const CpuSplit cpus;
  cpus.PinSystem();
  cfg.cpus = &cpus;
  const size_t nproc = cpus.nproc();
  cfg.pool_threads = nproc > 1 ? nproc - 1 : 1;
  TempDir tmp(".bench_build/tmp");
  cfg.tmp_dir = tmp.path();
  std::filesystem::create_directories(cfg.out_dir);

  Report rep(spec->name);
  rep.Info("pool_threads", cfg.pool_threads, "count");
  rep.Info("nproc", nproc, "count");
  rep.Info("hardware_concurrency", std::thread::hardware_concurrency(),
           "count");
  std::string name = spec->name;
  Outcome out;
  if (name == "safe_stream") {
    out = cfg.trace ? TraceStream<DefaultGraphStore, Bfs>(*spec, cfg, rep)
                    : RunStream<DefaultGraphStore, Bfs>(*spec, cfg, rep);
  } else if (name == "unsafe_stream") {
    out = cfg.trace ? TraceStream<DefaultGraphStore, Sssp>(*spec, cfg, rep)
                    : RunStream<DefaultGraphStore, Sssp>(*spec, cfg, rep);
  } else if (name == "durable_feed") {
    out = cfg.trace ? TraceStream<ShardedGraphStore<>, Sssp>(*spec, cfg, rep)
                    : RunStream<ShardedGraphStore<>, Sssp>(*spec, cfg, rep);
  } else {
    out = RunRpc<Bfs>(*spec, cfg, rep);
  }
  const bool ok = out.correct && out.failed == 0;
  if (ok && out.generator_late) {
    rep.PrintLines();
    std::fprintf(stderr,
                 "invalid run: the load generator ran late "
                 "(gen.late_p99_us > %.0f)\n",
                 kMaxLateP99Us);
    return 2;
  }
  rep.Print(cfg.trace, out.correct, out.attempted, out.failed);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace risgraph::rgbench

int main(int argc, char** argv) {
  try {
    return risgraph::rgbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_risgraph: %s\n", e.what());
    return 1;
  }
}

// Continuous-query subscriptions (src/subscribe/): update -> notification
// latency percentiles, and notification fan-out throughput vs subscriber
// count.
//
// The paper's headline is sub-millisecond *per-update analysis*; this bench
// asks the follow-on question the subscription subsystem exists for — how
// long until a standing query HEARS about the update (commit -> stage ->
// seal -> match -> wake), and what the fan-out costs as subscribers
// multiply. Latency is measured closed-loop (one unsafe update at a time,
// wait for its push); throughput streams the pipelined lane while N
// watch-all subscribers drain concurrently, and counter-asserts that the
// ingest pipeline completed every update regardless of subscriber count —
// the publisher is off the critical path by design.
//
// Writes BENCH_subscribe.json next to the binary for the perf trajectory
// (CI bench-smoke gate). hardware_concurrency is recorded so 1-core smoke
// runs read as box size, not regression.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/latency.h"
#include "common/timer.h"
#include "core/algorithm_api.h"
#include "runtime/client.h"
#include "runtime/risgraph.h"
#include "runtime/service.h"
#include "subscribe/publisher.h"
#include "subscribe/registry.h"

namespace risgraph {
namespace {

struct ThroughputRow {
  size_t subscribers = 0;
  uint64_t updates = 0;
  uint64_t delivered = 0;
  uint64_t coalesced = 0;
  double update_ops_per_sec = 0;
  double notify_per_sec = 0;
};

/// One system + service + publisher per configuration, torn down between
/// runs so every row starts from the same state.
class Harness {
 public:
  static constexpr uint64_t kVertices = 1 << 14;

  explicit Harness(size_t extra_clients = 0) {
    sys_ = std::make_unique<RisGraph<>>(kVertices);
    bfs_ = sys_->AddAlgorithm<Bfs>(0);
    sys_->InitializeResults();
    registry_ = std::make_unique<SubscriptionRegistry>();
    publisher_ = std::make_unique<ChangePublisher>(*registry_);
    service_ = std::make_unique<RisGraphService<>>(*sys_);
    service_->AttachPublisher(publisher_.get());
    // Client-side flow control: the fan-out phase streams all-unsafe
    // updates, and an unbounded pipelined writer can run the sequential
    // unsafe lane tens of thousands of updates ahead — the measurement
    // window would then clock enqueue speed while the flush pays the real
    // bill. A bounded in-flight window keeps the submit rate honest.
    typename SessionClient<>::Options wopt;
    wopt.window = 2048;
    writer_ = std::make_unique<SessionClient<>>(*sys_, service_->pipeline(),
                                                wopt);
    for (size_t i = 0; i < extra_clients; ++i) {
      subscribers_.push_back(
          std::make_unique<SessionClient<>>(*sys_, service_->pipeline()));
    }
    service_->Start();
  }

  ~Harness() {
    writer_.reset();
    subscribers_.clear();
    service_->Stop();
  }

  RisGraph<>& sys() { return *sys_; }
  size_t bfs() const { return bfs_; }
  SubscriptionRegistry& registry() { return *registry_; }
  ChangePublisher& publisher() { return *publisher_; }
  RisGraphService<>& service() { return *service_; }
  SessionClient<>& writer() { return *writer_; }
  SessionClient<>& subscriber(size_t i) { return *subscribers_[i]; }

 private:
  std::unique_ptr<RisGraph<>> sys_;
  size_t bfs_ = 0;
  std::unique_ptr<SubscriptionRegistry> registry_;
  std::unique_ptr<ChangePublisher> publisher_;
  std::unique_ptr<RisGraphService<>> service_;
  std::unique_ptr<SessionClient<>> writer_;
  std::vector<std::unique_ptr<SessionClient<>>> subscribers_;
};

/// Closed-loop: submit one guaranteed-unsafe update, park on the
/// subscriber's wakeup, stamp the gap. Insert (0, v) reaches v (unsafe,
/// notifies v); delete un-reaches it (unsafe, notifies v) — every update
/// produces exactly one pushed change for a fresh vertex.
LatencyRecorder MeasureLatency(double seconds, uint64_t* samples_out) {
  Harness h(/*extra_clients=*/1);
  SessionClient<>& sub = h.subscriber(0);
  uint64_t id = sub.Subscribe(SubscriptionFilter::WatchAll(h.bfs()));
  LatencyRecorder rec;
  std::vector<Notification> got;
  WallTimer window;
  uint64_t i = 0;
  while (window.ElapsedSeconds() < seconds) {
    VertexId v = 1 + (i % (Harness::kVertices - 1));
    Update u = (i / (Harness::kVertices - 1)) % 2 == 0
                   ? Update::InsertEdge(0, v, 1)
                   : Update::DeleteEdge(0, v, 1);
    int64_t t0 = WallTimer::NowNanos();
    h.writer().Submit(u);
    // The commit has already staged the change; wait for the push.
    while (!sub.WaitNotification(100000)) {
    }
    rec.RecordNanos(WallTimer::NowNanos() - t0);
    got.clear();
    sub.PollNotifications(&got);
    ++i;
  }
  (void)id;
  *samples_out = rec.count();
  return rec;
}

ThroughputRow MeasureFanout(size_t subscribers, double seconds) {
  Harness h(subscribers);
  for (size_t s = 0; s < subscribers; ++s) {
    h.subscriber(s).Subscribe(SubscriptionFilter::WatchAll(h.bfs()));
  }
  std::vector<std::thread> drains;
  std::vector<uint64_t> drained(subscribers, 0);
  std::atomic<bool> done{false};
  for (size_t s = 0; s < subscribers; ++s) {
    drains.emplace_back([&, s] {
      std::vector<Notification> buf;
      while (!done.load(std::memory_order_acquire)) {
        if (!h.subscriber(s).WaitNotification(2000)) continue;
        buf.clear();
        drained[s] += h.subscriber(s).PollNotifications(&buf);
      }
      buf.clear();
      drained[s] += h.subscriber(s).PollNotifications(&buf);
    });
  }

  WallTimer window;
  uint64_t submitted = 0;
  uint64_t i = 0;
  while (window.ElapsedSeconds() < seconds) {
    VertexId v = 1 + (i % (Harness::kVertices - 1));
    bool insert = (i / (Harness::kVertices - 1)) % 2 == 0;
    h.writer().SubmitAsync(insert ? Update::InsertEdge(0, v, 1)
                                  : Update::DeleteEdge(0, v, 1));
    ++submitted;
    ++i;
  }
  h.writer().Flush();
  double update_secs = window.ElapsedSeconds();
  h.publisher().WaitIdle();
  done.store(true, std::memory_order_release);
  for (auto& t : drains) t.join();
  double total_secs = window.ElapsedSeconds();

  ThroughputRow row;
  row.subscribers = subscribers;
  row.updates = submitted;
  for (uint64_t d : drained) row.delivered += d;
  row.coalesced = h.registry().coalesced();
  row.update_ops_per_sec = submitted / update_secs;
  row.notify_per_sec = row.delivered / total_secs;
  // The off-critical-path claim, counter-asserted like the tests do.
  if (h.service().completed_ops() != submitted) {
    std::fprintf(stderr, "FATAL: pipeline completed %llu of %llu updates\n",
                 (unsigned long long)h.service().completed_ops(),
                 (unsigned long long)submitted);
    std::exit(1);
  }
  return row;
}

//===--- Subscriber-count sweep ------------------------------------------------//

/// What does one committed batch cost to MATCH as the standing-query count
/// walks into 10^4-10^5? `count` single-vertex subscriptions spread over the
/// vertex range, then a closed update->notify loop over watched vertices.
/// Each update is one epoch => one sealed batch of one change, so
/// match-time-per-batch isolates the matcher itself: every batch probes one
/// posting list (~count/|V| entries), where a scan would walk all `count`
/// subscriptions (scan_equivalent_pairs records what that would examine).
struct SweepRow {
  size_t subscriptions = 0;
  uint64_t batches = 0;
  double match_us_per_batch = 0;
  uint64_t candidate_pairs = 0;
  uint64_t scan_equivalent_pairs = 0;
  double p50_us = 0;
  double p99_us = 0;
};

SweepRow MeasureMatchSweep(size_t count, double seconds) {
  Harness h(/*extra_clients=*/1);
  SessionClient<>& sub = h.subscriber(0);
  for (size_t i = 0; i < count; ++i) {
    VertexId v = 1 + (i % (Harness::kVertices - 1));
    if (sub.Subscribe(SubscriptionFilter::WatchVertices(h.bfs(), {v})) == 0) {
      std::fprintf(stderr, "FATAL: subscribe %zu refused\n", i);
      std::exit(1);
    }
  }
  // Cycle the writer over watched vertices only, so every update wakes the
  // subscriber (count < |V| leaves a tail of unwatched vertices).
  uint64_t span = std::min<uint64_t>(count, Harness::kVertices - 1);

  LatencyRecorder rec;
  std::vector<Notification> got;
  WallTimer window;
  uint64_t i = 0;
  while (window.ElapsedSeconds() < seconds) {
    VertexId v = 1 + (i % span);
    Update u = (i / span) % 2 == 0 ? Update::InsertEdge(0, v, 1)
                                   : Update::DeleteEdge(0, v, 1);
    int64_t t0 = WallTimer::NowNanos();
    h.writer().Submit(u);
    while (!sub.WaitNotification(100000)) {
    }
    rec.RecordNanos(WallTimer::NowNanos() - t0);
    got.clear();
    sub.PollNotifications(&got);
    ++i;
  }
  h.publisher().WaitIdle();

  SweepRow row;
  row.subscriptions = count;
  row.batches = h.publisher().matched_batches();
  row.match_us_per_batch =
      h.publisher().match_timer().TotalNanos() / 1e3 /
      std::max<uint64_t>(1, row.batches);
  row.candidate_pairs = h.registry().candidate_pairs();
  row.scan_equivalent_pairs = h.registry().scan_equivalent_pairs();
  row.p50_us = rec.P50Micros();
  row.p99_us = rec.P99Micros();
  return row;
}

}  // namespace
}  // namespace risgraph

int main() {
  using namespace risgraph;
  auto env = bench::Env::Get();
  bench::PrintTitle(
      "Continuous-query subscriptions: update->notification latency and "
      "fan-out",
      "the push-based consumption model over the paper's per-update "
      "analysis loop");

  uint64_t samples = 0;
  LatencyRecorder lat = MeasureLatency(env.seconds, &samples);
  std::printf(
      "update -> pushed notification (closed loop, 1 watch-all "
      "subscriber):\n  p50 %.1fus  p99 %.1fus  mean %.1fus  max %.2fms  "
      "(%llu samples)\n\n",
      lat.P50Micros(), lat.P99Micros(), lat.MeanMicros(), lat.MaxMillis(),
      (unsigned long long)samples);

  std::printf("%12s %12s %14s %14s %12s\n", "subscribers", "updates/s",
              "notifies/s", "delivered", "coalesced");
  std::vector<ThroughputRow> rows;
  for (size_t subscribers : {1, 4, 16, 64}) {
    ThroughputRow row = MeasureFanout(subscribers, env.seconds);
    rows.push_back(row);
    std::printf("%12zu %12s %14s %14llu %12llu\n", row.subscribers,
                bench::FmtOps(row.update_ops_per_sec).c_str(),
                bench::FmtOps(row.notify_per_sec).c_str(),
                (unsigned long long)row.delivered,
                (unsigned long long)row.coalesced);
  }
  bench::PrintRule();
  std::printf(
      "Shape check: update throughput stays flat as subscribers grow (the\n"
      "publisher matches off the coordinator's critical path; slow\n"
      "subscribers coalesce instead of backpressuring ingest), while\n"
      "delivered notifications scale with the subscriber count.\n\n");

  // The standing-query sweep: 10^4 -> 10^5 single-vertex subscriptions.
  std::printf("%10s %10s %14s %16s %10s %10s\n", "standing", "match us",
              "candidates", "scan-equiv", "p50 us", "p99 us");
  std::vector<SweepRow> sweep;
  for (size_t count : {10000, 30000, 100000}) {
    SweepRow row = MeasureMatchSweep(count, env.seconds);
    sweep.push_back(row);
    std::printf("%10zu %10.2f %14llu %16llu %10.1f %10.1f\n",
                row.subscriptions, row.match_us_per_batch,
                (unsigned long long)row.candidate_pairs,
                (unsigned long long)row.scan_equivalent_pairs, row.p50_us,
                row.p99_us);
  }
  bench::PrintRule();
  std::printf(
      "Shape check: the match cost per batch tracks the candidate count\n"
      "(postings on the changed vertex, ~count/|V| here) and stays flat as\n"
      "subscriptions grow 10x. candidates << scan-equiv (what a scan would\n"
      "examine) is the index earning its keep.\n");

  std::string json = "{\n  \"bench\": \"subscribe_latency\",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"hardware_concurrency\": %u,\n"
                "  \"parallel_speedup_meaningful\": %s,\n"
                "  \"latency\": {\"p50_us\": %.2f, \"p99_us\": %.2f, "
                "\"mean_us\": %.2f, \"max_ms\": %.3f, \"samples\": %llu},\n"
                "  \"results\": [\n",
                std::thread::hardware_concurrency(),
                std::thread::hardware_concurrency() > 1 ? "true" : "false",
                lat.P50Micros(), lat.P99Micros(), lat.MeanMicros(),
                lat.MaxMillis(), (unsigned long long)samples);
  json += buf;
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"subscribers\": %zu, \"updates\": %llu, "
                  "\"update_ops_per_sec\": %.0f, \"notify_per_sec\": %.0f, "
                  "\"delivered\": %llu, \"coalesced\": %llu}%s\n",
                  r.subscribers, (unsigned long long)r.updates,
                  r.update_ops_per_sec, r.notify_per_sec,
                  (unsigned long long)r.delivered,
                  (unsigned long long)r.coalesced,
                  i + 1 < rows.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"subscriber_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"subscriptions\": %zu, "
        "\"batches\": %llu, \"match_us_per_batch\": %.3f, "
        "\"candidate_pairs\": %llu, \"scan_equivalent_pairs\": %llu, "
        "\"p50_us\": %.2f, \"p99_us\": %.2f}%s\n",
        r.subscriptions,
        (unsigned long long)r.batches, r.match_us_per_batch,
        (unsigned long long)r.candidate_pairs,
        (unsigned long long)r.scan_equivalent_pairs, r.p50_us, r.p99_us,
        i + 1 < sweep.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  const char* path = "BENCH_subscribe.json";
  if (FILE* f = std::fopen(path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::printf("failed to write %s\n", path);
    return 1;
  }
  return 0;
}

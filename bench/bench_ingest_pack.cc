// Packing-throughput microbench: how fast does the batch former claim and
// classify an epoch, per safe/unsafe mix?
//
// Isolates the packing hot path: updates are pushed into the sharded rings,
// packed (timed), then the epoch executes outside the timed window so frozen
// sessions make progress and the deferred backlog stays bounded, exactly as
// in the real pipeline. The ring refill adapts to the claim rate for the
// same reason (a closed in-flight window, like DrivePipelined's).
// Classification cost is made realistic by maintaining all four paper
// algorithms (an update is safe only if it is safe for *every* algorithm).
//
// Each mix packs a fixed number of updates, scaled by RISGRAPH_SECONDS like
// bench_fig11b_breakdown, so every run of a mix packs the same work. The graph
// is sized so the stream holds that many updates at the mix's ratio without
// replaying itself (a replay would delete edges already gone). The run fails
// unless every pushed update is claimed.
//
// Writes BENCH_ingest_pack.json next to the binary for the perf trajectory.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/algorithm_api.h"
#include "ingest/batch_former.h"
#include "ingest/ingest_queue.h"
#include "runtime/risgraph.h"
#include "workload/rmat.h"
#include "workload/update_stream.h"

namespace risgraph {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kShardCapacity = 4096;
constexpr size_t kSessions = 64;

struct PackResult {
  double items_per_sec = 0;
  uint64_t claimed = 0;
  uint64_t unsafe = 0;
  uint64_t epochs = 0;
};

// Passes in a row that claim nothing after which the run gives up: one pass
// that only parks is normal, a run of them means updates were lost.
constexpr int kMaxIdlePasses = 64;

PackResult RunPack(const StreamWorkload& wl) {
  RisGraph<> sys(wl.num_vertices);
  sys.AddAlgorithm<Bfs>(0);
  sys.AddAlgorithm<Sssp>(0);
  sys.AddAlgorithm<Sswp>(0);
  sys.AddAlgorithm<Wcc>(0);
  sys.LoadGraph(wl.preload);
  sys.InitializeResults();

  ShardedIngestQueue queue(kShards, kShardCapacity);
  BatchFormer<DefaultGraphStore> former(sys, queue);
  std::unique_ptr<Session[]> sessions(new Session[kSessions]);
  std::vector<Update> wal;
  wal.reserve(kShards * kShardCapacity);

  const std::vector<Update>& stream = wl.updates;
  const uint64_t total = stream.size();
  uint64_t cursor = 0;
  PackResult r;
  int64_t pack_ns = 0;
  uint64_t refill_budget = 2048;
  int idle_passes = 0;
  // Parked items are claimed by a later pass, so the loop ends once every
  // pushed update has been claimed (a pass that only parks claims nothing
  // but still turns the epoch over, which unfreezes its sessions), or after
  // kMaxIdlePasses passes in a row that claim nothing.
  while (r.claimed < total && idle_passes < kMaxIdlePasses) {
    // Refill the rings (producer cost, excluded from the measurement),
    // bounded near the claim rate so the parked backlog stays a window, not
    // a flood.
    uint64_t refill_end = std::min(total, cursor + refill_budget);
    while (cursor < refill_end) {
      size_t s = cursor % kSessions;
      if (!queue.shard(s % kShards)
               .TryPush(IngestItem{IngestKind::kAsync, &sessions[s],
                                   stream[cursor]})) {
        break;
      }
      ++cursor;
    }
    int64_t t0 = WallTimer::NowNanos();
    former.BeginEpoch();
    wal.clear();
    uint64_t claimed = former.PackOnce(wal);
    pack_ns += WallTimer::NowNanos() - t0;
    r.claimed += claimed;
    idle_passes = claimed == 0 ? idle_passes + 1 : 0;
    ++r.epochs;
    refill_budget = claimed + 1024;
    // Execute the epoch outside the timed window (safe phase, then the
    // unsafe lane) so sessions unfreeze and verdicts track a live graph.
    for (auto& g : former.async_safe()) {
      for (const Update& u : g.updates) sys.ApplySafeToStore(u);
    }
    auto& unsafe_queue = former.unsafe_queue();
    r.unsafe += unsafe_queue.size();
    while (!unsafe_queue.empty()) {
      sys.ApplyUnsafe(unsafe_queue.front().async_update);
      unsafe_queue.pop_front();
    }
  }
  r.items_per_sec =
      pack_ns > 0 ? static_cast<double>(r.claimed) * 1e9 / pack_ns : 0;
  return r;
}

}  // namespace
}  // namespace risgraph

int main() {
  using namespace risgraph;
  auto env = bench::Env::Get();
  bench::PrintTitle("Epoch packing throughput",
                    "claim-order classification; paper Sections 4-5, "
                    "Figure 9");

  // Fixed work per mix; RISGRAPH_SECONDS scales it (default 1.0 = 200k).
  const uint64_t total = std::max<uint64_t>(
      10000, static_cast<uint64_t>(env.seconds * 200000));

  // Half the edges are preloaded and half are stream material, so each of
  // the insert and delete pools holds half the edges: 2 x total edges cover
  // `total` updates at any insert share.
  RmatParams rmat;
  rmat.scale = 15;
  rmat.num_edges = std::max<uint64_t>(12 * (uint64_t{1} << rmat.scale),
                                      2 * total);
  StreamOptions so;
  so.preload_fraction = 0.5;
  so.max_updates = total;

  struct Mix {
    const char* name;
    double insert_fraction;
  };
  // Deletions force a duplicate-count lookup plus per-algorithm tree checks,
  // so the mixed stream is the classification-heavy case.
  const Mix mixes[] = {{"mixed", 0.5}, {"insert_heavy", 0.9}};
  std::string json = "{\n  \"bench\": \"ingest_pack\",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"updates\": " + std::to_string(total) + ",\n  \"results\": [\n";
  std::printf("%-13s %10s %12s %8s %8s\n", "mix", "updates", "items/s",
              "unsafe%", "epochs");
  bool first = true;
  for (const Mix& mix : mixes) {
    so.insert_fraction = mix.insert_fraction;
    StreamWorkload wl = BuildStream(uint64_t{1} << rmat.scale,
                                    GenerateRmat(rmat), so);
    PackResult r = RunPack(wl);
    if (wl.updates.size() != total || r.claimed != total) {
      std::printf("%s: claimed %llu of %llu updates\n", mix.name,
                  static_cast<unsigned long long>(r.claimed),
                  static_cast<unsigned long long>(total));
      return 1;
    }
    double unsafe_share =
        static_cast<double>(r.unsafe) / static_cast<double>(r.claimed);
    std::printf("%-13s %10llu %12s %7.1f%% %8llu\n", mix.name,
                static_cast<unsigned long long>(r.claimed),
                bench::FmtOps(r.items_per_sec).c_str(), 100 * unsafe_share,
                static_cast<unsigned long long>(r.epochs));
    if (!first) json += ",\n";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mix\": \"%s\", \"items_per_sec\": %.0f, "
                  "\"claimed\": %llu, \"unsafe_share\": %.4f, "
                  "\"epochs\": %llu}",
                  mix.name, r.items_per_sec,
                  static_cast<unsigned long long>(r.claimed), unsafe_share,
                  static_cast<unsigned long long>(r.epochs));
    json += buf;
  }
  bench::PrintRule();
  json += "\n  ]\n}\n";

  const char* path = "BENCH_ingest_pack.json";
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

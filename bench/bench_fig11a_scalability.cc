// Figure 11a: multi-core scalability — peak throughput as the thread pool
// grows, and (since the shard layer landed) as the graph store is
// partitioned across per-shard engine instances. Expected shape: smooth
// scaling with cores (paper: 9.9x-17.8x at 24 physical cores, +13.5% from
// hyper-threading); the shard sweep should show >1x epoch-apply speedup at
// N=4 on a multi-core host as the safe phase fans one mutation lane per
// partition (shard/shard_router.h). On a 1-core container both sweeps
// degenerate — the JSON records hardware_concurrency so the trajectory
// tooling can tell a regression from a small box.
//
// The shard sweep runs twice: under the default modulo ownership and under
// a locality PartitionMap (shard/partition_map.h) built from the warmup
// prefix. The gap between the two cross_shard_share columns is the
// cross-shard tax the locality map removes; static partition quality
// (edge-cut fraction on the update stream, per-shard half-placement balance)
// is recorded per map and shard count in a "partition_quality" section.
//
// Writes BENCH_fig11a_scalability.json next to the binary: ops/s vs thread
// count and ops/s vs shard count (recorded, not asserted).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/algorithm_api.h"
#include "parallel/thread_pool.h"
#include "runtime/risgraph.h"
#include "service_driver.h"
#include "shard/partition_map.h"
#include "shard/sharded_store.h"
#include "workload/datasets.h"
#include "workload/update_stream.h"

namespace risgraph {
namespace {

std::string g_json;
bool g_first = true;

void EmitJson(const char* algo, const char* mode, size_t threads,
              size_t shards, const bench::DriveResult& r, double speedup) {
  if (!g_first) g_json += ",\n";
  g_first = false;
  char buf[320];
  double cross_share =
      r.total > 0 ? static_cast<double>(r.cross_shard) / r.total : 0.0;
  std::snprintf(buf, sizeof(buf),
                "    {\"algo\": \"%s\", \"mode\": \"%s\", \"threads\": %zu, "
                "\"shards\": %zu, \"ops_per_sec\": %.0f, \"speedup\": %.3f, "
                "\"cross_shard_share\": %.4f}",
                algo, mode, threads, shards, r.ops_per_sec, speedup,
                cross_share);
  g_json += buf;
}

template <typename Algo>
void RunThreads(const Dataset& d, const StreamWorkload& wl,
                const bench::Env& env,
                const std::vector<size_t>& thread_counts) {
  std::printf("%-5s", Algo::Name());
  double base = 0;
  for (size_t threads : thread_counts) {
    ThreadPool::ResetGlobal(threads);
    RisGraph<> sys(wl.num_vertices);
    sys.AddAlgorithm<Algo>(d.spec.root);
    sys.LoadGraph(wl.preload);
    sys.InitializeResults();
    size_t cursor = 0;
    // Pipelined sessions, one per pool thread with a deep window: epochs
    // pack large safe batches, which is where inter-update parallelism can
    // engage (closed-loop users would add one client thread per session and
    // oversubscribe the same box the server runs on).
    auto r = bench::DrivePipelined(sys, wl.updates, &cursor,
                                   /*sessions=*/std::max<size_t>(2, threads),
                                   /*window=*/2048, env.seconds / 2);
    if (base == 0) base = r.ops_per_sec;
    EmitJson(Algo::Name(), "threads", threads, 1, r,
             base > 0 ? r.ops_per_sec / base : 1.0);
    std::printf("  %9s(%4.1fx)", bench::FmtOps(r.ops_per_sec).c_str(),
                r.ops_per_sec / base);
  }
  std::printf("\n");
}

/// The shard sweep: fixed pool (full hardware concurrency), store partition
/// count rising — every shard feeds its own engine partition, so epoch apply
/// fans one lane per shard instead of contending on one mutation domain.
/// With `locality` set, each shard count gets a locality PartitionMap built
/// from the warmup prefix.
template <typename Algo>
void RunShards(const Dataset& d, const StreamWorkload& wl,
               const bench::Env& env,
               const std::vector<uint32_t>& shard_counts,
               bool locality = false) {
  std::printf("%-5s", Algo::Name());
  double base = 0;
  for (uint32_t shards : shard_counts) {
    RisGraphOptions opt;
    opt.store.partition.num_shards = shards;
    if (locality) {
      opt.store.partition.map =
          BuildLocalityMap(wl.num_vertices, shards, wl.preload);
    }
    RisGraph<ShardedGraphStore<>> sys(wl.num_vertices, opt);
    sys.AddAlgorithm<Algo>(d.spec.root);
    sys.LoadGraph(wl.preload);
    sys.InitializeResults();
    ServiceOptions so;
    so.ingest_shards = shards;  // one ingest ring per store shard
    size_t cursor = 0;
    auto r = bench::DrivePipelined(sys, wl.updates, &cursor,
                                   /*sessions=*/std::max<uint32_t>(2, shards),
                                   /*window=*/2048, env.seconds / 2, so);
    if (base == 0) base = r.ops_per_sec;
    EmitJson(Algo::Name(), locality ? "shards_locality" : "shards",
             ThreadPool::Global().num_threads(), shards, r,
             base > 0 ? r.ops_per_sec / base : 1.0);
    std::printf("  %9s(%4.1fx)", bench::FmtOps(r.ops_per_sec).c_str(),
                r.ops_per_sec / base);
  }
  std::printf("\n");
}

/// Static partition quality, independent of any run: the edge-cut fraction
/// over the update stream (the share of updates whose halves land on two
/// shards — the cross-shard tax a map pays at apply time) and the per-shard
/// half-placement balance (max shard load over mean; 1.0 = perfectly even).
void EmitPartitionQuality(const StreamWorkload& wl, uint32_t shards,
                          const char* name, const PartitionMap* map,
                          bool first) {
  auto owner = [&](VertexId v) -> uint32_t {
    if (shards <= 1) return 0u;
    if (map != nullptr) return map->OwnerOf(v, shards);
    return static_cast<uint32_t>(v % shards);
  };
  uint64_t cut = 0, total = 0;
  std::vector<uint64_t> load(shards, 0);
  auto place = [&](const Edge& e, bool count_cut) {
    uint32_t a = owner(e.src), b = owner(e.dst);
    load[a]++;
    load[b]++;
    if (count_cut) {
      ++total;
      if (a != b) ++cut;
    }
  };
  for (const Edge& e : wl.preload) place(e, false);
  for (const Update& u : wl.updates) {
    if (u.kind == UpdateKind::kInsertEdge ||
        u.kind == UpdateKind::kDeleteEdge) {
      place(u.edge, true);
    }
  }
  uint64_t sum = 0, peak = 0;
  for (uint64_t l : load) {
    sum += l;
    peak = std::max(peak, l);
  }
  double edge_cut = total > 0 ? static_cast<double>(cut) / total : 0.0;
  double balance =
      sum > 0 ? static_cast<double>(peak) * shards / sum : 1.0;
  if (!first) g_json += ",\n";
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "    {\"shards\": %u, \"map\": \"%s\", \"edge_cut\": %.4f, "
                "\"balance\": %.4f}",
                shards, name, edge_cut, balance);
  g_json += buf;
  std::printf("  N=%u %-8s edge_cut=%.3f balance=%.3f\n", shards, name,
              edge_cut, balance);
}

}  // namespace
}  // namespace risgraph

int main() {
  using namespace risgraph;
  auto env = bench::Env::Get();
  bench::PrintTitle("Multi-core scalability of service throughput",
                    "Figure 11a of the RisGraph paper");
  Dataset d = LoadDataset("twitter_sim");
  StreamOptions so;
  so.preload_fraction = 0.9;
  StreamWorkload wl = BuildStream(d.num_vertices, d.edges, so);

  unsigned hw = std::thread::hardware_concurrency();
  std::vector<size_t> threads = {1, 2, 4, 8};
  if (hw >= 16) threads.push_back(16);
  if (hw >= 24) threads.push_back(24);
  threads.push_back(hw);  // "hyper-threading" point

  g_json = "{\n  \"bench\": \"fig11a_scalability\",\n";
  g_json += "  \"hardware_concurrency\": " + std::to_string(hw) + ",\n";
  g_json += "  \"results\": [\n";

  std::printf("%-5s", "algo");
  for (size_t t : threads) std::printf("  %10zu thr.", t);
  std::printf("\n");
  RunThreads<Bfs>(d, wl, env, threads);
  RunThreads<Sssp>(d, wl, env, threads);
  RunThreads<Sswp>(d, wl, env, threads);
  RunThreads<Wcc>(d, wl, env, threads);

  std::vector<uint32_t> shard_counts = {1, 2, 4};
  if (hw >= 8) shard_counts.push_back(8);
  ThreadPool::ResetGlobal(hw);
  std::printf("\nShard sweep (pool fixed at %u threads; "
              "per-shard engine partitions):\n",
              hw);
  std::printf("%-5s", "algo");
  for (uint32_t s : shard_counts) std::printf("  %9u shards.", s);
  std::printf("\n");
  RunShards<Bfs>(d, wl, env, shard_counts);
  RunShards<Sssp>(d, wl, env, shard_counts);

  std::printf("\nShard sweep under the locality map:\n");
  std::printf("%-5s", "algo");
  for (uint32_t s : shard_counts) std::printf("  %9u shards.", s);
  std::printf("\n");
  RunShards<Bfs>(d, wl, env, shard_counts, /*locality=*/true);
  RunShards<Sssp>(d, wl, env, shard_counts, /*locality=*/true);
  ThreadPool::ResetGlobal(0);

  g_json += "\n  ],\n  \"partition_quality\": [\n";
  std::printf("\nPartition quality (static, over the update stream):\n");
  bool first_quality = true;
  for (uint32_t shards : shard_counts) {
    EmitPartitionQuality(wl, shards, "modulo", nullptr, first_quality);
    first_quality = false;
    auto map = BuildLocalityMap(wl.num_vertices, shards, wl.preload);
    EmitPartitionQuality(wl, shards, "locality", map.get(), false);
  }

  g_json += "\n  ]\n}\n";
  const char* path = "BENCH_fig11a_scalability.json";
  if (FILE* f = std::fopen(path, "w")) {
    std::fputs(g_json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::printf("failed to write %s\n", path);
    return 1;
  }
  std::printf("\nShape check: throughput scales with physical cores; the "
              "shard sweep shows the epoch-apply gain once shards have real "
              "cores to land on (recorded, not asserted: on a 1-core host "
              "both sweeps flatten — see hardware_concurrency in the "
              "JSON). Under the locality map, cross_shard_share at N=4 "
              "should sit well under the ~0.75 a modulo split pays on this "
              "power-law stream.\n");
  return 0;
}

#ifndef RISGRAPH_RUNTIME_SERVICE_H_
#define RISGRAPH_RUNTIME_SERVICE_H_

#include "common/latency.h"
#include "common/timer.h"
#include "ingest/epoch_pipeline.h"
#include "ingest/session.h"
#include "parallel/thread_pool.h"
#include "runtime/risgraph.h"

namespace risgraph {

/// The multi-session front end, now a thin façade of Session handles over
/// the ingest subsystem (src/ingest/): sessions push into sharded MPSC ring
/// buffers (ingest/ingest_queue.h), the batch former claims per-session FIFO
/// prefixes and splits epochs into a parallel safe batch plus a sequential
/// unsafe tail (ingest/batch_former.h), and the epoch pipeline runs the
/// WAL-group-commit → safe-phase → unsafe-lane → history/version loop
/// (ingest/epoch_pipeline.h, paper Sections 4 and 5, Figure 9).
///
/// Instantiate over ShardedGraphStore (shard/sharded_store.h) to partition
/// the graph store: the safe phase's apply lanes are then its partitions
/// (modulo lanes over the pool otherwise), a cross-shard safe update
/// applies as one half on each owner's lane, and unsafe work rides the
/// sequential lane — same API, same results (architecture:
/// shard/shard_router.h).
///
/// The RPC server (net/rpc_server.cc) and the bench drivers
/// (bench/service_driver.h) drive the same EpochPipeline — in-process and
/// remote callers share one code path.
template <typename Store = DefaultGraphStore>
class RisGraphService {
 public:
  RisGraphService(RisGraph<Store>& system, ServiceOptions options = {},
                  ThreadPool* pool = nullptr)
      : pipeline_(system, options, pool) {}

  ~RisGraphService() { Stop(); }

  /// Creates a session. Not thread-safe against a running coordinator; open
  /// all sessions before Start().
  Session* OpenSession() { return pipeline_.OpenSession(); }

  /// Appends the continuous-query publisher stage to the commit path (see
  /// EpochPipeline::AttachPublisher); wire before Start().
  void AttachPublisher(ChangePublisher* publisher) {
    pipeline_.AttachPublisher(publisher);
  }

  void Start() { pipeline_.Start(); }

  /// Stops after draining every in-flight request (join client threads
  /// first; a stopped service never answers new submissions).
  void Stop() { pipeline_.Stop(); }

  /// The underlying ingest pipeline (shared with the RPC tier).
  EpochPipeline<Store>& pipeline() { return pipeline_; }
  const EpochPipeline<Store>& pipeline() const { return pipeline_; }

  uint64_t completed_ops() const { return pipeline_.completed_ops(); }
  uint64_t safe_ops() const { return pipeline_.safe_ops(); }
  uint64_t unsafe_ops() const { return pipeline_.unsafe_ops(); }
  const LatencyRecorder& latencies() const { return pipeline_.latencies(); }
  const std::vector<EpochStat>& epoch_stats() const {
    return pipeline_.epoch_stats();
  }
  const Scheduler& scheduler() const { return pipeline_.scheduler(); }

  ComponentTimer& sched_timer() { return pipeline_.sched_timer(); }
  ComponentTimer& network_timer() { return pipeline_.network_timer(); }

 private:
  EpochPipeline<Store> pipeline_;
};

}  // namespace risgraph

#endif  // RISGRAPH_RUNTIME_SERVICE_H_

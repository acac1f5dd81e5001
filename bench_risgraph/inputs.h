#ifndef RISGRAPH_BENCH_RISGRAPH_INPUTS_H_
#define RISGRAPH_BENCH_RISGRAPH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "workload/datasets.h"
#include "workload/update_stream.h"

namespace risgraph::rgbench {

/// The generated inputs of one workload: the preload and an update stream.
///
/// The stream is the paper's Section 6.1 split (BuildStream: 90% preload,
/// alternating insertions of the newest edges and deletions sampled from the
/// preload). Past its base length it replays itself with insert and delete
/// swapped on odd passes, so every deletion hits a present edge and the graph
/// oscillates between two windows for as long as a run needs updates.
struct Inputs {
  uint64_t num_vertices = 0;
  VertexId root = 0;
  std::vector<Edge> preload;
  std::vector<Update> base;

  Update At(uint64_t i) const {
    Update u = base[i % base.size()];
    if ((i / base.size()) % 2 == 1) {
      u.kind = u.kind == UpdateKind::kInsertEdge ? UpdateKind::kDeleteEdge
                                                 : UpdateKind::kInsertEdge;
    }
    return u;
  }
};

/// Builds a dataset analog with its generator seed offset by `seed`, and
/// splits it into preload and stream with the same seed.
inline Inputs MakeInputs(const std::string& dataset, uint64_t seed) {
  DatasetSpec spec = FindDatasetSpec(dataset);
  spec.seed += seed;
  Dataset d = LoadDataset(spec);
  StreamOptions so;
  so.seed = seed;
  StreamWorkload w = BuildStream(d.num_vertices, std::move(d.edges), so);
  return Inputs{w.num_vertices, spec.root, std::move(w.preload),
                std::move(w.updates)};
}

/// `count` distinct vertices drawn uniformly from [0, n).
inline std::vector<VertexId> DistinctVertices(Rng& rng, uint64_t n,
                                              size_t count) {
  std::vector<VertexId> out;
  while (out.size() < count) {
    VertexId v = rng.NextBounded(n);
    bool dup = false;
    for (VertexId w : out) dup |= w == v;
    if (!dup) out.push_back(v);
  }
  return out;
}

}  // namespace risgraph::rgbench

#endif  // RISGRAPH_BENCH_RISGRAPH_INPUTS_H_

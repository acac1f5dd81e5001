#ifndef RISGRAPH_BENCH_RISGRAPH_LOADGEN_H_
#define RISGRAPH_BENCH_RISGRAPH_LOADGEN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "ingest/session.h"
#include "inputs.h"
#include "trace.h"

namespace risgraph::rgbench {

/// Raw latency samples in nanoseconds. Percentiles are exact order
/// statistics of the samples, not histogram buckets, so a reported time
/// carries all its digits.
class Samples {
 public:
  void Reserve(size_t n) { ns_.reserve(n); }
  void Add(int64_t ns) {
    ns_.push_back(ns);
    sorted_ = false;
  }
  size_t size() const { return ns_.size(); }
  void Append(const Samples& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
    sorted_ = false;
  }

  /// Nearest-rank percentile, q in (0, 1], in microseconds.
  double PercentileMicros(double q) {
    if (ns_.empty()) return 0;
    if (!sorted_) {
      std::sort(ns_.begin(), ns_.end());
      sorted_ = true;
    }
    double rank = std::ceil(q * static_cast<double>(ns_.size()));
    size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return ns_[std::min(i, ns_.size() - 1)] / 1e3;
  }
  double MeanMicros() const {
    if (ns_.empty()) return 0;
    double sum = 0;
    for (int64_t v : ns_) sum += static_cast<double>(v);
    return sum / static_cast<double>(ns_.size()) / 1e3;
  }
  double SumMillis() const {
    double sum = 0;
    for (int64_t v : ns_) sum += static_cast<double>(v);
    return sum / 1e6;
  }
  /// Samples strictly above the q-th percentile (the tail it rests on).
  size_t Beyond(double q) {
    double cut = PercentileMicros(q) * 1e3;
    size_t n = 0;
    for (int64_t v : ns_) n += static_cast<double>(v) > cut;
    return n;
  }

 private:
  std::vector<int64_t> ns_;
  bool sorted_ = false;
};

/// Latency of one measured phase, whole and split into equal windows of
/// time. The end-to-end latency metrics are medians over the windows: a
/// stall that hits one window moves that window only, so a run reports the
/// typical window and two runs compare like with like.
struct WindowedLatency {
  Samples all;
  std::vector<Samples> windows;

  void Init(size_t n_windows, size_t expected) {
    all.Reserve(expected);
    windows.assign(std::max<size_t>(n_windows, 1), Samples());
    for (Samples& w : windows) w.Reserve(expected / windows.size() + 1);
  }
  /// Adds another phase's samples and windows (several graphs of one run).
  void Append(const WindowedLatency& other) {
    all.Append(other.all);
    windows.insert(windows.end(), other.windows.begin(), other.windows.end());
  }
  /// Records a sample whose position in the phase is `frac` in [0, 1).
  void Add(double frac, int64_t ns) {
    all.Add(ns);
    size_t w = static_cast<size_t>(frac * static_cast<double>(windows.size()));
    windows[std::min(w, windows.size() - 1)].Add(ns);
  }
};

/// Result of one open-loop phase.
struct OpenLoopResult {
  WindowedLatency latency;  // scheduled send -> observed ack, per update
  Samples late;             // actual send - scheduled send, per update
  uint64_t sent = 0;
};

/// The single load-generating thread for the in-process workloads: submits
/// the stream round-robin over pipelined sessions (Session::SubmitAsync,
/// ring backpressure) and observes acks through each session's completion
/// counter. Per-session FIFO maps the k-th completion of a session to its
/// k-th submission.
///
/// With a span buffer attached (the traced run), every SubmitAsync is timed
/// into `submit_ns`, and 1 in 64 updates gets a send span and an ack instant
/// keyed by its stream position.
class LoadGen {
 public:
  static constexpr uint64_t kTraceEvery = 64;

  LoadGen(std::vector<Session*> sessions, const Inputs& inputs,
          SpanBuffer* trace)
      : sessions_(std::move(sessions)),
        inputs_(inputs),
        trace_(trace),
        per_session_(sessions_.size()) {}

  /// Saturated phase: submits the next `count` updates as fast as the rings
  /// accept them. Returns the seconds from the first submission until every
  /// session has acked everything.
  double Saturated(uint64_t count) {
    WallTimer timer;
    for (uint64_t k = 0; k < count; ++k) {
      size_t s = Send(WallTimer::NowNanos());
      if (trace_ != nullptr) Poll(s);
    }
    WaitAll();
    return timer.ElapsedSeconds();
  }

  /// Open-loop phase: update k is due at t0 + k / rate, whatever the system
  /// does. Latency runs from the due time to the observed ack, so a stall is
  /// charged to every update queued behind it. Latency windows split the
  /// phase by due time.
  OpenLoopResult OpenLoop(double rate, double seconds, size_t windows) {
    OpenLoopResult r;
    const uint64_t total = static_cast<uint64_t>(rate * seconds);
    r.latency.Init(windows, total);
    r.late.Reserve(total);
    open_ = &r.latency;
    const double period_ns = 1e9 / rate;
    t0_ = WallTimer::NowNanos() + 1000000;
    span_ns_ = static_cast<double>(total) * period_ns;
    uint64_t k = 0;
    while (k < total) {
      int64_t now = WallTimer::NowNanos();
      int64_t due =
          t0_ + static_cast<int64_t>(static_cast<double>(k) * period_ns);
      if (now >= due) {
        r.late.Add(now - due);
        Send(due);
        ++k;
        continue;
      }
      for (size_t s = 0; s < sessions_.size(); ++s) Poll(s);
    }
    WaitAll();
    open_ = nullptr;
    r.sent = total;
    return r;
  }

  uint64_t cursor() const { return cursor_; }
  int64_t submit_ns() const { return submit_ns_; }

 private:
  struct PerSession {
    std::vector<int64_t> due;  // scheduled send time per submission (FIFO)
    std::vector<uint64_t> id;  // stream position per submission
    size_t acked = 0;
  };

  // Submits the next stream update to its session; returns the session.
  size_t Send(int64_t due_ns) {
    uint64_t id = cursor_++;
    size_t s = id % sessions_.size();
    PerSession& ps = per_session_[s];
    ps.due.push_back(due_ns);
    ps.id.push_back(id);
    Update u = inputs_.At(id);
    if (trace_ == nullptr) {
      sessions_[s]->SubmitAsync(u);
      return s;
    }
    int64_t begin = WallTimer::NowNanos();
    sessions_[s]->SubmitAsync(u);
    int64_t end = WallTimer::NowNanos();
    submit_ns_ += end - begin;
    if (id % kTraceEvery == 0) {
      trace_->Add("SubmitAsync", "ingest", begin, end, id);
    }
    return s;
  }

  // Consumes the acks session `s` has published since the last poll.
  void Poll(size_t s) {
    PerSession& ps = per_session_[s];
    uint64_t done = sessions_[s]->async_completed();
    if (done == ps.acked) return;
    int64_t now = WallTimer::NowNanos();
    for (; ps.acked < done; ++ps.acked) {
      int64_t due = ps.due[ps.acked];
      if (open_ != nullptr) {
        open_->Add(static_cast<double>(due - t0_) / span_ns_, now - due);
      }
      if (trace_ != nullptr && ps.id[ps.acked] % kTraceEvery == 0) {
        trace_->Instant("ack", "ingest", now, ps.id[ps.acked]);
      }
    }
  }

  // Polls every session round-robin (so no ack is stamped late because
  // another session was being waited on) until all submissions are acked.
  void WaitAll() {
    bool all = false;
    while (!all) {
      all = true;
      for (size_t s = 0; s < sessions_.size(); ++s) {
        Poll(s);
        all &= per_session_[s].acked == per_session_[s].due.size();
      }
    }
  }

  std::vector<Session*> sessions_;
  const Inputs& inputs_;
  SpanBuffer* trace_;
  std::vector<PerSession> per_session_;
  WindowedLatency* open_ = nullptr;  // set during the open-loop phase
  int64_t t0_ = 0;
  double span_ns_ = 1;
  uint64_t cursor_ = 0;
  int64_t submit_ns_ = 0;
};

}  // namespace risgraph::rgbench

#endif  // RISGRAPH_BENCH_RISGRAPH_LOADGEN_H_

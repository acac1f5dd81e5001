#ifndef RISGRAPH_COMMON_TIMER_H_
#define RISGRAPH_COMMON_TIMER_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace risgraph {

/// Monotonic wall-clock timer with nanosecond resolution.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }
  double ElapsedMicros() const { return ElapsedNanos() / 1e3; }
  double ElapsedMillis() const { return ElapsedNanos() / 1e6; }
  double ElapsedSeconds() const { return ElapsedNanos() / 1e9; }

  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates wall time into a named component bucket; used by the
/// performance-breakdown experiment (Figure 11b). Each bucket is written by
/// one thread at a time (the coordinator, or the publisher's matcher for its
/// own bucket — the safe phase times itself once, on the coordinator), but
/// monitors may read it while that thread runs, hence the relaxed atomic
/// (ordering is irrelevant).
class ComponentTimer {
 public:
  void AddNanos(int64_t ns) {
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  int64_t TotalNanos() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  double TotalMillis() const { return TotalNanos() / 1e6; }
  void Reset() { total_ns_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> total_ns_{0};
};

/// RAII helper adding its scope's duration to a ComponentTimer.
class ScopedTimer {
 public:
  explicit ScopedTimer(ComponentTimer& target) : target_(target) {}
  ~ScopedTimer() { target_.AddNanos(timer_.ElapsedNanos()); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ComponentTimer& target_;
  WallTimer timer_;
};

}  // namespace risgraph

#endif  // RISGRAPH_COMMON_TIMER_H_

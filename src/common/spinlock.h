#ifndef RISGRAPH_COMMON_SPINLOCK_H_
#define RISGRAPH_COMMON_SPINLOCK_H_

#include <atomic>
#include <cstdint>

namespace risgraph {

/// One-byte test-and-test-and-set spinlock. Used as a per-vertex lock by the
/// incremental engine's parallel frontier, so the footprint matters more than
/// fairness (critical sections are a handful of cache lines).
class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() {
    while (true) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
      }
    }
  }

  bool try_lock() { return !flag_.exchange(true, std::memory_order_acquire); }

  void unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

/// RAII guard for SpinLock (std::lock_guard also works; this avoids the
/// <mutex> include in hot headers).
class SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock) : lock_(lock) { lock_.lock(); }
  ~SpinLockGuard() { lock_.unlock(); }

  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace risgraph

#endif  // RISGRAPH_COMMON_SPINLOCK_H_

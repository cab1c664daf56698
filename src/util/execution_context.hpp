// Cross-cutting execution control for long-running detection phases.
//
// The paper halted its baselines after 24 hours on the real dataset (§IV-B);
// modeling that requires stopping a phase *mid-flight*, not merely skipping
// the next one. ExecutionContext carries the two cooperative signals a phase
// needs to do that:
//
//  - a monotonic deadline (steady_clock, immune to wall-clock adjustments),
//  - an externally settable cancellation flag (request_cancel()),
//
// checked by workers at candidate-batch / region-query granularity through
// expired(). The first checkpoint that observes expiry latches interrupted(),
// which is how audit() distinguishes "phase ran to completion" from "phase
// was cut short and returned partial results".
//
// Partial-result safety: every group finder unites only *verified* pairs
// (exact distances — see method_common.hpp), so stopping early yields a
// subset of the verified pair set and therefore groups whose co-memberships
// are a subset of the complete run's — the same argument that makes
// PeriodicAccumulator's cross-run unions safe (core/periodic.hpp).
//
// Thread-safety: expired(), cancelled(), interrupted() and request_cancel()
// may be called concurrently from any thread; the context itself is
// immovable (shared by reference between the orchestrator and its workers).
#pragma once

#include <atomic>
#include <chrono>
#include <limits>

namespace rolediet::util {

class ExecutionContext {
 public:
  using clock = std::chrono::steady_clock;

  /// Unlimited: never expires unless request_cancel() is called.
  ExecutionContext() = default;

  /// Deadline `budget_seconds` from now; <= 0 means unlimited (the
  /// AuditOptions::time_budget_s convention). A budget past the clock's
  /// range (~9.2e9 s of nanosecond ticks) saturates to the farthest
  /// representable deadline instead of overflowing into the past.
  explicit ExecutionContext(double budget_seconds) {
    if (budget_seconds > 0.0) {
      has_deadline_ = true;
      const clock::time_point now = clock::now();
      // The 1 s margin absorbs the rounding of the double comparison.
      const std::chrono::duration<double> headroom = clock::time_point::max() - now;
      deadline_ = budget_seconds < headroom.count() - 1.0
                      ? now + std::chrono::duration_cast<clock::duration>(
                                  std::chrono::duration<double>(budget_seconds))
                      : clock::time_point::max();
    }
  }

  /// Absolute monotonic deadline.
  explicit ExecutionContext(clock::time_point deadline)
      : has_deadline_(true), deadline_(deadline) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Asks running work to stop at its next checkpoint.
  void request_cancel() noexcept { cancel_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancelled() const noexcept {
    return cancel_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool has_deadline() const noexcept { return has_deadline_; }

  /// Seconds until the deadline (negative once past); +infinity if unlimited.
  [[nodiscard]] double remaining_seconds() const noexcept {
    if (!has_deadline_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(deadline_ - clock::now()).count();
  }

  /// The cooperative checkpoint: true once the deadline has passed or a
  /// cancel was requested. One relaxed load plus (when a deadline is set) one
  /// clock read — cheap enough to call once per region query / candidate
  /// batch. The first observation of expiry latches interrupted().
  [[nodiscard]] bool expired() const noexcept {
    if (cancel_.load(std::memory_order_relaxed)) {
      interrupted_.store(true, std::memory_order_relaxed);
      return true;
    }
    if (has_deadline_ && clock::now() >= deadline_) {
      interrupted_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Sticky: has any expired() checkpoint observed expiry? Distinguishes a
  /// phase that completed from one that was cut short.
  [[nodiscard]] bool interrupted() const noexcept {
    return interrupted_.load(std::memory_order_relaxed);
  }

 private:
  bool has_deadline_ = false;
  clock::time_point deadline_{};
  std::atomic<bool> cancel_{false};
  mutable std::atomic<bool> interrupted_{false};
};

/// Shared never-expiring context — the default for every find_* overload that
/// does not take an explicit context. Do not request_cancel() on it.
[[nodiscard]] inline const ExecutionContext& unlimited_context() noexcept {
  static const ExecutionContext ctx;
  return ctx;
}

}  // namespace rolediet::util

// Execution-governance layer: deadlines, cooperative cancellation, resource
// budgets, declarative retries, and graceful-degradation reporting.
//
// The pipeline's heavy loops (ingestion, JOC construction, autoencoder
// epochs, SMO passes, phase-2 refinement) are unbounded in the worst case —
// adversarial inputs can make them hang or exhaust memory. Instead of dying,
// a governed run carries an ExecutionContext and:
//
//   * checks a CancellationToken at cooperative cancellation points (wired
//     to SIGINT/SIGTERM by install_signal_handlers), so an interrupted run
//     stops at the next safe boundary with its last checkpoint intact;
//   * enforces a wall-clock Deadline — hard at cancellation points (throws
//     BudgetError), soft at loop boundaries where truncation is meaningful
//     (an autoencoder stopped at epoch 7/18 is a usable model);
//   * accounts an explicit memory estimate for the large allocations (JOC
//     matrix, embeddings, composite features, SVM kernel) against a budget,
//     refusing the allocation with BudgetError instead of OOMing;
//   * records every truncated phase into a DegradationReport so a degraded
//     run is distinguishable from a complete one.
//
// Everything is single-threaded like the rest of the runtime, except
// CancellationToken, which is async-signal-safe (a lock-free atomic flag).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace fs::runtime {

// ---- Cancellation ------------------------------------------------------

/// Cooperative cancellation flag. request() is async-signal-safe.
class CancellationToken {
 public:
  void request() noexcept { requested_.store(true, std::memory_order_relaxed); }
  bool requested() const noexcept {
    return requested_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { requested_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> requested_{false};
};

/// The process-wide token signal handlers trip.
CancellationToken& global_token();

/// Routes SIGINT and SIGTERM to global_token().request(). Idempotent.
void install_signal_handlers();

/// The last signal routed to the global token (0 = none).
int last_signal() noexcept;

// ---- Heap policy -------------------------------------------------------

/// Fixes glibc's mmap threshold at 1 MiB, so every block that large is
/// mapped when allocated and unmapped when freed. By default glibc raises
/// the threshold to the size of each large block freed; blocks of that size
/// then come from the heap arenas and stay resident as fragments, and which
/// arena keeps them depends on thread timing, so a run's peak RSS varies
/// from one run to the next. Idempotent; a no-op without glibc.
void pin_heap_policy();

// ---- Deadlines ---------------------------------------------------------

/// Wall-clock deadline on the steady clock.
class Deadline {
 public:
  Deadline() = default;  // unlimited

  static Deadline after_seconds(double seconds);
  static Deadline unlimited() { return Deadline(); }

  bool is_unlimited() const { return !at_.has_value(); }
  bool expired() const;
  /// Seconds until expiry; +inf when unlimited, 0 when already expired.
  double remaining_seconds() const;

 private:
  using clock = std::chrono::steady_clock;
  std::optional<clock::time_point> at_;
};

// ---- Execution context -------------------------------------------------

/// Budgets and cancellation for one pipeline run. Default-constructed it is
/// unlimited and non-cancellable, so ungoverned callers pay nothing.
///
/// Two check flavours, by design:
///   * checkpoint(where) — a cooperative cancellation point for loops whose
///     partial output is unusable (ingestion, JOC rows). Throws
///     CancelledError on cancellation, BudgetError past the deadline.
///   * cancelled() / deadline_expired() — soft probes for loops that can
///     truncate instead (training epochs, SMO passes, refinement
///     iterations); the caller stops early and reports the degradation.
class ExecutionContext {
 public:
  ExecutionContext() = default;

  // -- cancellation --
  void set_cancellation(const CancellationToken* token) { token_ = token; }
  bool cancelled() const { return token_ != nullptr && token_->requested(); }
  /// Throws CancelledError if the token is tripped.
  void throw_if_cancelled(const char* where) const;

  // -- deadline --
  void set_deadline(Deadline deadline) { deadline_ = deadline; }
  void set_deadline_seconds(double seconds) {
    deadline_ = Deadline::after_seconds(seconds);
  }
  const Deadline& deadline() const { return deadline_; }
  bool deadline_expired() const { return deadline_.expired(); }
  double remaining_seconds() const { return deadline_.remaining_seconds(); }

  /// Hard cooperative cancellation point: CancelledError on cancellation,
  /// BudgetError past the deadline.
  void checkpoint(const char* where) const;

  // -- memory budget (estimate accounting, not an allocator hook) --
  void set_memory_limit(std::size_t bytes) { memory_limit_ = bytes; }
  std::size_t memory_limit() const { return memory_limit_; }  // 0 = unlimited
  /// Accounts `bytes` against the budget; throws BudgetError if the total
  /// would exceed the limit. Pair with release() (or use MemoryCharge).
  void charge(std::size_t bytes, const char* what);
  void release(std::size_t bytes) noexcept;
  std::size_t charged() const { return charged_; }
  std::size_t peak_charged() const { return peak_charged_; }

 private:
  const CancellationToken* token_ = nullptr;
  Deadline deadline_;
  std::size_t memory_limit_ = 0;
  std::size_t charged_ = 0;
  std::size_t peak_charged_ = 0;
};

/// RAII memory accounting against an ExecutionContext (null context = free).
/// Charges in the constructor (may throw BudgetError), releases on
/// destruction.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  MemoryCharge(ExecutionContext* context, std::size_t bytes,
               const char* what);
  ~MemoryCharge();

  MemoryCharge(MemoryCharge&& other) noexcept;
  MemoryCharge& operator=(MemoryCharge&& other) noexcept;
  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;

  std::size_t bytes() const { return bytes_; }

 private:
  ExecutionContext* context_ = nullptr;
  std::size_t bytes_ = 0;
};

/// RAII per-phase deadline: tightens the context's deadline to
/// min(current, now + budget_seconds) for the scope's lifetime, restoring
/// the outer deadline on exit. budget_seconds <= 0 leaves it unchanged.
class PhaseScope {
 public:
  PhaseScope(ExecutionContext* context, double budget_seconds);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  ExecutionContext* context_ = nullptr;
  Deadline saved_;
};

// ---- Declarative retries ----------------------------------------------

/// Bounded retries with exponential backoff and deterministic jitter; one
/// policy shape for loader I/O and trainer divergence (call sites decide
/// what "retry" means — re-open a file, reinitialize weights).
struct RetryPolicy {
  int max_attempts = 3;      // total attempts, including the first
  double backoff_ms = 1.0;   // base delay before the first retry
  double multiplier = 2.0;   // delay growth per retry
  double jitter = 0.25;      // +/- fraction applied to each delay
  std::uint64_t seed = 0x7e7e7e7eULL;  // jitter stream (determinism)
};

/// Drives one RetryPolicy instance across attempts.
class Retrier {
 public:
  explicit Retrier(const RetryPolicy& policy);

  /// Call after a failed attempt. Returns true (after sleeping the jittered
  /// exponential backoff) if another attempt is allowed, false when the
  /// attempt budget is exhausted and the caller should give up.
  bool retry();

  int failures() const { return failures_; }
  double last_delay_ms() const { return last_delay_ms_; }

  /// The delay that retry() would sleep after `failures` failed attempts
  /// (jitter applied). Exposed for tests.
  double delay_ms_for(int failures);

 private:
  RetryPolicy policy_;
  util::Rng rng_;
  int failures_ = 0;
  double last_delay_ms_ = 0.0;
};

// ---- Degradation reporting --------------------------------------------

/// One truncated/abandoned phase: which, why, and how far it got.
struct PhaseDegradation {
  std::string phase;   // e.g. "phase1.autoencoder", "phase2.refine"
  std::string reason;  // "deadline" | "memory" | "iterations" | "cancelled"
  std::string detail;  // human-readable context
  int progress = 0;    // epochs/iterations completed when truncated
  int target = 0;      // configured total (0 = open-ended)
};

/// Everything a governed run truncated instead of failing on. An empty
/// report means the run completed without giving anything up.
struct DegradationReport {
  std::vector<PhaseDegradation> phases;

  bool degraded() const { return !phases.empty(); }
  bool cancelled() const;

  void add(std::string phase, std::string reason, std::string detail,
           int progress = 0, int target = 0);

  /// One line per entry: "phase: reason (progress/target) — detail".
  std::string to_string() const;
};

}  // namespace fs::runtime

#include "util/runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <limits>
#include <sstream>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace fs::runtime {

// ---- Cancellation ------------------------------------------------------

CancellationToken& global_token() {
  static CancellationToken token;
  return token;
}

namespace {

std::atomic<int> g_last_signal{0};

extern "C" void fs_signal_handler(int signal) {
  // Only async-signal-safe operations: two lock-free atomic stores.
  g_last_signal.store(signal, std::memory_order_relaxed);
  global_token().request();
}

}  // namespace

void install_signal_handlers() {
  std::signal(SIGINT, fs_signal_handler);
  std::signal(SIGTERM, fs_signal_handler);
}

int last_signal() noexcept {
  return g_last_signal.load(std::memory_order_relaxed);
}

// ---- Heap policy -------------------------------------------------------

void pin_heap_policy() {
#if defined(__GLIBC__)
  static const int pinned = mallopt(M_MMAP_THRESHOLD, 1 << 20);
  (void)pinned;
#endif
}

// ---- Deadline ----------------------------------------------------------

Deadline Deadline::after_seconds(double seconds) {
  Deadline d;
  d.at_ = clock::now() + std::chrono::duration_cast<clock::duration>(
                             std::chrono::duration<double>(seconds));
  return d;
}

bool Deadline::expired() const {
  return at_.has_value() && clock::now() >= *at_;
}

double Deadline::remaining_seconds() const {
  if (!at_.has_value()) return std::numeric_limits<double>::infinity();
  const double remaining =
      std::chrono::duration<double>(*at_ - clock::now()).count();
  return std::max(0.0, remaining);
}

// ---- ExecutionContext --------------------------------------------------

void ExecutionContext::throw_if_cancelled(const char* where) const {
  if (cancelled())
    throw CancelledError(std::string(where) + ": cancellation requested");
}

void ExecutionContext::checkpoint(const char* where) const {
  throw_if_cancelled(where);
  if (deadline_.expired())
    throw BudgetError(std::string(where) + ": wall-clock deadline exceeded");
}

void ExecutionContext::charge(std::size_t bytes, const char* what) {
  if (memory_limit_ != 0 && charged_ + bytes > memory_limit_) {
    std::ostringstream oss;
    oss << what << ": memory budget exceeded (" << charged_ << " + " << bytes
        << " > " << memory_limit_ << " bytes)";
    throw BudgetError(oss.str());
  }
  charged_ += bytes;
  peak_charged_ = std::max(peak_charged_, charged_);
}

void ExecutionContext::release(std::size_t bytes) noexcept {
  charged_ -= std::min(bytes, charged_);
}

MemoryCharge::MemoryCharge(ExecutionContext* context, std::size_t bytes,
                           const char* what)
    : context_(context), bytes_(bytes) {
  if (context_ != nullptr) context_->charge(bytes_, what);
}

MemoryCharge::~MemoryCharge() {
  if (context_ != nullptr) context_->release(bytes_);
}

MemoryCharge::MemoryCharge(MemoryCharge&& other) noexcept
    : context_(other.context_), bytes_(other.bytes_) {
  other.context_ = nullptr;
  other.bytes_ = 0;
}

MemoryCharge& MemoryCharge::operator=(MemoryCharge&& other) noexcept {
  if (this != &other) {
    if (context_ != nullptr) context_->release(bytes_);
    context_ = other.context_;
    bytes_ = other.bytes_;
    other.context_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

PhaseScope::PhaseScope(ExecutionContext* context, double budget_seconds)
    : context_(context) {
  if (context_ == nullptr || budget_seconds <= 0.0) {
    context_ = nullptr;  // nothing to restore
    return;
  }
  saved_ = context_->deadline();
  if (budget_seconds < saved_.remaining_seconds())
    context_->set_deadline_seconds(budget_seconds);
}

PhaseScope::~PhaseScope() {
  if (context_ != nullptr) context_->set_deadline(saved_);
}

// ---- Retrier -----------------------------------------------------------

Retrier::Retrier(const RetryPolicy& policy)
    : policy_(policy), rng_(policy.seed) {}

double Retrier::delay_ms_for(int failures) {
  double delay =
      policy_.backoff_ms * std::pow(policy_.multiplier, failures - 1);
  if (policy_.jitter > 0.0)
    delay *= 1.0 + rng_.uniform(-policy_.jitter, policy_.jitter);
  return std::max(0.0, delay);
}

bool Retrier::retry() {
  ++failures_;
  if (failures_ >= policy_.max_attempts) return false;
  last_delay_ms_ = delay_ms_for(failures_);
  if (last_delay_ms_ > 0.0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(last_delay_ms_));
  return true;
}

// ---- DegradationReport -------------------------------------------------

bool DegradationReport::cancelled() const {
  for (const PhaseDegradation& p : phases)
    if (p.reason == "cancelled") return true;
  return false;
}

void DegradationReport::add(std::string phase, std::string reason,
                            std::string detail, int progress, int target) {
  phases.push_back(PhaseDegradation{std::move(phase), std::move(reason),
                                    std::move(detail), progress, target});
}

std::string DegradationReport::to_string() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseDegradation& p = phases[i];
    if (i > 0) oss << '\n';
    oss << p.phase << ": " << p.reason;
    if (p.target > 0)
      oss << " (" << p.progress << "/" << p.target << ")";
    else if (p.progress > 0)
      oss << " (at " << p.progress << ")";
    if (!p.detail.empty()) oss << " — " << p.detail;
  }
  return oss.str();
}

}  // namespace fs::runtime

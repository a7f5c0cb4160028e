#ifndef SMARTMETER_EXEC_QUERY_CONTEXT_H_
#define SMARTMETER_EXEC_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace smartmeter::exec {

/// Shared cancellation flag. One token may be observed by many worker
/// threads while a controller (client disconnect, serving-layer timeout
/// sweep) flips it once; observation is a relaxed atomic load, cheap
/// enough for per-household checks inside the task kernels.
class CancellationToken {
 public:
  void RequestCancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Admission-queue ordering for the serving layer; higher runs first.
enum class QueryPriority : int {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

std::string_view QueryPriorityName(QueryPriority priority);

/// Per-query execution context threaded from the serving layer through
/// an engine's RunTask into the task kernels' hot loops: carries the
/// cooperative cancellation token, an optional deadline, the admission
/// priority, and an observability label identifying the query in
/// metrics and trace spans.
///
/// Kernels poll ShouldStop() between units of work (one household, one
/// block of similarity query rows) and bail out with CheckNotStopped()'s
/// status, so a cancelled or timed-out query stops scanning within one
/// unit of work rather than running to completion.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  QueryContext() : token_(std::make_shared<CancellationToken>()) {}

  /// A process-lifetime context with no deadline that is never
  /// cancelled: the implicit context of batch benchmark runs.
  static const QueryContext& Background();

  // -- Identity / observability -------------------------------------------
  uint64_t query_id() const { return query_id_; }
  void set_query_id(uint64_t id) { query_id_ = id; }

  /// Short label recorded with serving metrics ("client-3/q17").
  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  // -- Priority ------------------------------------------------------------
  QueryPriority priority() const { return priority_; }
  void set_priority(QueryPriority priority) { priority_ = priority; }

  // -- Deadline ------------------------------------------------------------
  bool has_deadline() const { return deadline_.has_value(); }
  Clock::time_point deadline() const { return *deadline_; }
  void set_deadline(Clock::time_point deadline) { deadline_ = deadline; }
  /// Sets the deadline `budget` from now.
  void set_deadline_after(std::chrono::nanoseconds budget) {
    deadline_ = Clock::now() + budget;
  }
  void clear_deadline() { deadline_.reset(); }

  // -- Cancellation --------------------------------------------------------
  const std::shared_ptr<CancellationToken>& token() const { return token_; }
  /// Shares another query's token (scatter-gather children observe their
  /// parent's cancellation; cancelling any of them stops the whole fan).
  void set_token(std::shared_ptr<CancellationToken> token) {
    token_ = std::move(token);
  }
  void RequestCancel() const { token_->RequestCancel(); }
  bool cancelled() const { return token_->cancelled(); }

  /// True once the query should stop: its token was cancelled or its
  /// deadline passed. A passed deadline also trips the token so every
  /// other worker of the same query sees the cheap flag, not the clock.
  bool ShouldStop() const {
    if (token_->cancelled()) return true;
    if (deadline_.has_value() && Clock::now() >= *deadline_) {
      token_->RequestCancel();
      deadline_expired_.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

  /// OK while the query may continue; Cancelled or DeadlineExceeded once
  /// it should stop. This is what kernels return up the stack.
  Status CheckNotStopped() const;

 private:
  uint64_t query_id_ = 0;
  std::string label_;
  QueryPriority priority_ = QueryPriority::kNormal;
  std::optional<Clock::time_point> deadline_;
  std::shared_ptr<CancellationToken> token_;
  /// Distinguishes "deadline tripped the token" from an explicit cancel
  /// so CheckNotStopped reports the right code from any thread.
  mutable std::atomic<bool> deadline_expired_{false};
};

}  // namespace smartmeter::exec

#endif  // SMARTMETER_EXEC_QUERY_CONTEXT_H_

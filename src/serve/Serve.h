//===- Serve.h - Serving-engine request/response types ------------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vocabulary of the multi-tenant serving engine: a Request (a
/// compiled recursion plus bound arguments, options, an optional
/// virtual-clock deadline and a priority), the Response it resolves to,
/// and the Future handed back by Engine::submit. Results routed through
/// the engine are bit-identical to a direct CompiledRecurrence::run with
/// the same request options — the engine only changes *when and where*
/// work runs, never what it computes.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_SERVE_SERVE_H
#define PARREC_SERVE_SERVE_H

#include "exec/ExecutionBackend.h"

#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace parrec {
namespace runtime {
class CompiledRecurrence;
} // namespace runtime

namespace serve {

/// Terminal state of a request.
enum class Status {
  /// Executed; Response::Result holds the run result.
  Ok,
  /// Rejected at submission: the bounded queue was at capacity (the
  /// engine's backpressure signal) or the engine was shutting down.
  QueueFull,
  /// Shed at dequeue: the virtual clock had passed the request's
  /// deadline before a device picked it up.
  Deadline,
  /// Dropped by Engine::shutdown(Abort) before execution.
  Aborted,
  /// The request itself was invalid (bad arguments, no valid schedule).
  Failed,
};

std::string_view statusName(Status S);

/// One unit of admission: everything needed to run one problem. The
/// pointed-to recursion, sequences, models and matrices must stay alive
/// until the request's future resolves.
struct Request {
  /// Request id (trace id): allocated monotonically by Engine::submit —
  /// any caller-set value is overwritten. Carried onto the Response, the
  /// flight recorder and the exec-layer spans, and emitted as the Chrome
  /// trace flow id linking this request's enqueue -> coalesce ->
  /// dispatch -> scan slices.
  uint64_t Id = 0;
  const runtime::CompiledRecurrence *Fn = nullptr;
  std::vector<codegen::ArgValue> Args;
  /// Plan-relevant knobs (sliding window, kept table, forced schedule,
  /// AST-evaluator fallback) are honoured per request; worker counts are
  /// overridden by the engine's per-device budget.
  exec::RunOptions Options;
  /// Virtual-clock deadline (Engine::now() domain); 0 means none. An
  /// expired request is shed at dequeue with Status::Deadline instead of
  /// occupying a device.
  uint64_t DeadlineTick = 0;
  /// Higher-priority requests leave the queue first, and a busy device
  /// runs its waiting batch with the highest member priority first
  /// (the oldest first within one priority).
  int Priority = 0;
  /// Optional tenant label, for traces and diagnostics only.
  std::string Tenant;
};

/// What a request resolved to.
struct Response {
  /// The request id Engine::submit allocated (0 only for responses that
  /// never went through an engine).
  uint64_t Id = 0;
  Status St = Status::Failed;
  /// Valid only when St == Status::Ok; bit-identical to a direct run.
  /// Result.Evaluator names the evaluator that scanned the request (for
  /// a memo hit, the one that scanned the original).
  exec::RunResult Result;
  /// Virtual-clock timestamps (Engine::now() domain).
  uint64_t SubmitTick = 0;
  uint64_t CompleteTick = 0;
  /// Host wall-clock latency split: submission to batch dispatch, the
  /// batch's execution window, and end to end.
  double QueueSeconds = 0.0;
  double ExecSeconds = 0.0;
  double TotalSeconds = 0.0;
  /// Where and with whom the request ran (Ok responses only).
  unsigned Device = 0;
  uint64_t BatchId = 0;
  uint64_t BatchSize = 0;
  /// Completion order stamp (monotonic across the engine); lets tests
  /// observe dispatch ordering deterministically.
  uint64_t CompletionSeq = 0;
  /// Modelled cycle (batch-start domain, kernel launch included) at
  /// which this request's result resolved on its device. Equals the
  /// batch makespan on the barrier path; under Engine::Options::Pipeline
  /// it is the problem's own completion, strictly earlier than batch end
  /// for every non-final member. For a memo hit it is the modelled
  /// completion of the execution that populated the cache.
  uint64_t CompletionCycle = 0;
  /// True when the result was served from the engine's memo cache:
  /// Result is a bit-identical copy of the original execution's payload
  /// and no device time was spent (Device/BatchId/BatchSize are zero).
  bool Memoized = false;
  /// Diagnostic text for Failed responses.
  std::string Error;
};

namespace detail {
/// Shared completion slot between the engine and a Future.
struct FutureState {
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Ready = false;
  Response Resp;
  std::function<void(const Response &)> Callback;
};
} // namespace detail

/// Completion handle for one submitted request. Copyable; all copies
/// observe the same response. wait() blocks until the engine resolves
/// the request (rejections resolve immediately inside submit()).
class Future {
public:
  Future() = default;

  bool valid() const { return State != nullptr; }

  /// False for a default-constructed Future (no submitted request), so
  /// polling an empty handle is safe.
  bool ready() const {
    if (!State)
      return false;
    std::lock_guard<std::mutex> Lock(State->Mutex);
    return State->Ready;
  }

  /// Blocks until the response is available and returns it. Waiting on a
  /// default-constructed Future is a caller bug: there is no engine that
  /// could ever resolve it, so the wait would deadlock — assert instead.
  const Response &wait() const {
    assert(State &&
           "serve::Future::wait() on a default-constructed Future: no "
           "request was submitted, this wait can never resolve");
    std::unique_lock<std::mutex> Lock(State->Mutex);
    State->Cv.wait(Lock, [&] { return State->Ready; });
    return State->Resp;
  }

private:
  friend class Engine;
  explicit Future(std::shared_ptr<detail::FutureState> State)
      : State(std::move(State)) {}

  std::shared_ptr<detail::FutureState> State;
};

} // namespace serve
} // namespace parrec

#endif // PARREC_SERVE_SERVE_H

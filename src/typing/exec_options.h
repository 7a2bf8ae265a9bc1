#ifndef SCHEMEX_TYPING_EXEC_OPTIONS_H_
#define SCHEMEX_TYPING_EXEC_OPTIONS_H_

#include <cstddef>
#include <functional>

#include "util/status.h"
#include "util/thread_pool.h"

namespace schemex::typing {

/// Execution knobs shared by the Stage-1 algorithms, the GFP engine and
/// Stages 2-3. Every stage runs inline on the caller; the defaults never
/// cancel.
struct ExecOptions {
  /// Unread by the library; perfbench/replay.cc still compiles against it.
  size_t num_threads = 1;

  /// Unread by the library; perfbench/replay.cc still compiles against it.
  util::ThreadPool* pool = nullptr;

  /// Cooperative cancellation: polled between refinement rounds, between
  /// GFP phases, and every few thousand worklist pops. Return non-OK
  /// (typically DeadlineExceeded) to abort; the status propagates
  /// verbatim. Null = never cancel.
  std::function<util::Status()> check_cancel;

  /// Test-only: collapse every refinement signature hash to one bucket so
  /// the exact collision-verification fallback carries the whole
  /// partition. The result must not change.
  bool debug_force_hash_collisions = false;

  /// Polls check_cancel if set.
  util::Status Poll() const {
    return check_cancel ? check_cancel() : util::Status::OK();
  }
};

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_EXEC_OPTIONS_H_

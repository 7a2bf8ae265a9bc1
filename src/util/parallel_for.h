#ifndef SCHEMEX_UTIL_PARALLEL_FOR_H_
#define SCHEMEX_UTIL_PARALLEL_FOR_H_

#include <cstddef>

#include "util/thread_pool.h"

namespace schemex::util {

/// Unread by the library; perfbench/replay.cc still compiles against it.
/// Every stage runs inline, so the "pool" it hands out is always null.
class PoolRef {
 public:
  PoolRef(ThreadPool* /*external*/, size_t /*num_threads*/) {}
  ThreadPool* get() const { return nullptr; }
};

}  // namespace schemex::util

#endif  // SCHEMEX_UTIL_PARALLEL_FOR_H_

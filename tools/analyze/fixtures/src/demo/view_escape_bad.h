// Planted view-escape violations: non-owning types stored in members
// with no OWNER annotation, and a by-reference lambda capture handed to
// a thread pool's Submit.
#ifndef DEMO_VIEW_ESCAPE_BAD_H_
#define DEMO_VIEW_ESCAPE_BAD_H_

#include <functional>
#include <span>
#include <string_view>
#include <vector>

namespace demo {

// A container of views borrows just like one view: each element still
// points into bytes some other object owns, so it needs an OWNER too.
// (Line numbers below are pinned by analyze_test.py.)

struct GraphView {};

struct Pool {
  template <typename F>
  void Submit(F&& fn) { fn(); }
};

class Holder {
 public:
  explicit Holder(std::string_view text) : text_(text) {}

 private:
  std::string_view text_;  // VIOLATION line 30
  std::span<const int> window_;  // VIOLATION line 31
  GraphView g_;  // VIOLATION line 32
  std::vector<std::span<const int>> rows_;  // VIOLATION line 33
};

inline void FireAndForget(Pool& pool, int& counter) {
  pool.Submit([&counter] { ++counter; });  // VIOLATION line 37
}

}  // namespace demo

#endif  // DEMO_VIEW_ESCAPE_BAD_H_

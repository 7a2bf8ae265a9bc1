// Clean view handling: every stored view names its keep-alive with an
// OWNER annotation, submitted lambdas capture by value or shared_ptr,
// and literal-backed static views are exempt. Must produce zero
// findings.
#ifndef DEMO_VIEW_ESCAPE_GOOD_H_
#define DEMO_VIEW_ESCAPE_GOOD_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace demo {

struct Pool {
  template <typename F>
  void Submit(F&& fn) { fn(); }
};

class Parser {
 public:
  explicit Parser(std::string text) : owned_(std::move(text)), text_(owned_) {}

 private:
  std::string owned_;
  std::string_view text_;  // OWNER: owned_ — view over the member buffer
  // OWNER: owned_ — spans the same buffer as text_.
  std::span<const char> window_;
};

class Rows {
 private:
  std::vector<unsigned char> arena_;
  // OWNER: arena_ — each row is a slice of the arena.
  std::vector<std::span<const unsigned char>> rows_;
  static constexpr std::string_view kName = "rows";  // literal-backed
};

inline void SubmitByValue(Pool& pool, std::shared_ptr<int> counter) {
  pool.Submit([counter] { ++*counter; });
}

// A view as a parameter or local never escapes the frame: not flagged.
inline size_t Measure(std::string_view s) {
  std::string_view local = s;
  return local.size();
}

}  // namespace demo

#endif  // DEMO_VIEW_ESCAPE_GOOD_H_

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "json/json.h"

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values.empty()) return 0.0;
  std::vector<double> s = values;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Samples::SupportedPercentile() const {
  for (double p : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(n()) * (1.0 - p) >= 10.0) return p;
  }
  return 0.5;
}

double BlockQuantile(const Samples& s, size_t block, double q) {
  if (s.n() < block) return s.Quantile(q);
  Samples per_block;
  for (size_t b = 0; b + block <= s.n(); b += block) {
    Samples one;
    one.values.assign(s.values.begin() + b, s.values.begin() + b + block);
    per_block.Add(one.Quantile(q));
  }
  return per_block.Median();
}

double BlockRate(const std::vector<double>& done_s, size_t block) {
  if (done_s.empty()) return 0.0;
  if (done_s.size() < block) {
    return static_cast<double>(done_s.size()) / done_s.back();
  }
  Samples per_block;
  for (size_t b = 0; b + block <= done_s.size(); b += block) {
    const double begin = b == 0 ? 0.0 : done_s[b - 1];
    per_block.Add(static_cast<double>(block) / (done_s[b + block - 1] - begin));
  }
  return per_block.Median();
}

Tracer::Scope Tracer::Begin(std::string_view name) {
  Span s;
  s.name = std::string(name);
  s.request = request_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_us = NowUs();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_us = NowUs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

void Tracer::Count(const std::string& name, double value) {
  counts_.push_back({name, request_, value});
}

Samples Tracer::SpanUs(const std::string& name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (s.name == name) out.Add(s.end_us - s.start_us);
  }
  return out;
}

double Tracer::RequestMs(const std::string& name, int64_t request) const {
  double ms = 0;
  for (const Span& s : spans_) {
    if (s.name == name && s.request == request) ms += s.DurationMs();
  }
  return ms;
}

util::Status Tracer::Write(const std::string& path) const {
  using schemex::json::Value;
  std::ofstream out(path);
  if (!out) return util::Status::Internal("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::map<std::string, Value> f;
    f["span"] = Value::Number(static_cast<double>(i));
    f["name"] = Value::String(s.name);
    f["request"] = Value::Number(static_cast<double>(s.request));
    f["parent"] = Value::Number(s.parent);
    f["start_us"] = Value::Number(s.start_us);
    f["end_us"] = Value::Number(s.end_us);
    out << schemex::json::Serialize(Value::Object(std::move(f))) << "\n";
  }
  for (const CountEvent& c : counts_) {
    std::map<std::string, Value> f;
    f["count"] = Value::String(c.name);
    f["request"] = Value::Number(static_cast<double>(c.request));
    f["value"] = Value::Number(c.value);
    out << schemex::json::Serialize(Value::Object(std::move(f))) << "\n";
  }
  return out ? util::Status::OK() : util::Status::Internal("short write");
}

double SpanCostUs() {
  constexpr int kPairs = 20000;
  Samples per_span;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer t;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kPairs; ++i) {
      auto outer = t.Begin("request.query");
      auto inner = t.Begin("service.serialize");
    }
    per_span.Add(MsSince(t0) * 1e3 / (2.0 * kPairs));
  }
  return per_span.Median();
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "extract_k6_x25",
       .scale = 25,
       .extract_k = 6,
       .batches_per_s = 16},
      {.name = "extract_auto_x5",
       .scale = 5,
       .extract_k = 0,
       .batches_per_s = 150},
      {.name = "serve_delta_x25",
       .scale = 25,
       .extract_k = 6,
       .serve = true,
       .load_scale = 100,
       .batches_per_s = 16},
  };
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void Results::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Results::Merge(const Results& o) {
  extract_ms.Append(o.extract_ms);
  untimed_ms.Append(o.untimed_ms);
  query_ms.Append(o.query_ms);
  load_ms.Append(o.load_ms);
  apply_ms.Append(o.apply_ms);
  rewire_ms.Append(o.rewire_ms);
  perturb_ms.Append(o.perturb_ms);
  query_done_s.insert(query_done_s.end(), o.query_done_s.begin(),
                      o.query_done_s.end());
  query_seconds += o.query_seconds;
  batches_done += o.batches_done;
  incremental.insert(incremental.end(), o.incremental.begin(),
                     o.incremental.end());
  attempted += o.attempted;
  failed += o.failed;
  for (const std::string& f : o.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
  first_response.insert(o.first_response.begin(), o.first_response.end());
}

}  // namespace perfbench

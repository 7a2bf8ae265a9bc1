// Shared pieces of the schemexd end-to-end benchmark: sample statistics,
// the in-memory span tracer, the workload definitions and the state one
// run carries from set-up through the timed loop to the checks.
#ifndef SCHEMEX_PERFBENCH_BENCH_H_
#define SCHEMEX_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/data_graph.h"
#include "service/request.h"
#include "util/status.h"

namespace perfbench {

namespace util = schemex::util;

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Timing samples of one metric.
struct Samples {
  std::vector<double> values;

  void Add(double x) { values.push_back(x); }
  void Append(const Samples& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
  }
  size_t n() const { return values.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The highest of p50/p90/p99/p99.9 with at least ten samples beyond
  /// it, as a fraction (0.5 when fewer than 20 samples).
  double SupportedPercentile() const;
};

/// Consecutive queries per block for the robust query metrics: a block's
/// p99 has ten samples beyond it, and a transient stall of the host spoils
/// a few blocks instead of the whole run's tail.
inline constexpr size_t kQueryBlock = 1000;

/// Median over consecutive blocks of `block` samples of each block's
/// q-quantile (the pooled quantile when there is no full block).
double BlockQuantile(const Samples& s, size_t block, double q);

/// Median over consecutive blocks of `block` completions of each block's
/// completions per second; `done_s` are completion times in seconds since
/// the loop started.
double BlockRate(const std::vector<double>& done_s, size_t block);

/// One recorded span: a layer call made by the traced replay.
struct Span {
  std::string name;
  int64_t request = 0;  ///< replayed request the span belongs to
  int parent = -1;      ///< index of the enclosing span, -1 for a root
  double start_us = 0;
  double end_us = 0;
  double DurationMs() const { return (end_us - start_us) / 1e3; }
};

/// Records spans and counts in memory; written out at exit.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer* t, int index) : tracer_(t), index_(index) {}
    Scope(Scope&& o) noexcept : tracer_(o.tracer_), index_(o.index_) {
      o.tracer_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(index_);
    }

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Opens a span under the innermost open one, tagged with the current
  /// request id; it closes when the returned scope dies.
  Scope Begin(std::string_view name);
  void SetRequest(int64_t id) { request_ = id; }
  /// Records a count observed at a layer boundary of the current request.
  void Count(const std::string& name, double value);

  size_t num_spans() const { return spans_.size(); }

  /// Durations of every span named `name`, in microseconds.
  Samples SpanUs(const std::string& name) const;
  /// Summed duration of the spans named `name` within one request.
  double RequestMs(const std::string& name, int64_t request) const;

  /// Spans then counts as JSON lines.
  util::Status Write(const std::string& path) const;

 private:
  void End(int index);
  double NowUs() const;

  Clock::time_point epoch_;
  int64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
  struct CountEvent {
    std::string name;
    int64_t request;
    double value;
  };
  std::vector<CountEvent> counts_;
};

/// What one span costs the tracer (opening and closing it, two clock
/// reads and a record), in microseconds: the median over a few batches of
/// nested spans on a scratch tracer.
double SpanCostUs();

/// The three workloads; later changes refer to them by name.
struct WorkloadSpec {
  std::string name;
  int scale = 1;            ///< DBG multiplier of the served workspace
  uint64_t extract_k = 6;   ///< k of every extract request (0 = knee sweep)
  bool serve = false;       ///< whole window reader + writer; otherwise
                            ///< extracts, then reader + writer
  int load_scale = 0;       ///< DBG multiplier of the re-mapped workspace;
                            ///< 0 = re-map the served workspace's own files
  size_t batches_per_s = 0; ///< delta batches pre-generated per second
                            ///< of the window (several times what the
                            ///< writer reaches)
};

const WorkloadSpec* FindWorkload(std::string_view name);

/// One pre-generated apply_delta batch and the re_extract that follows.
struct Batch {
  bool perturb = false;
  std::vector<schemex::service::DeltaOp> ops;
  std::string apply_line;
  std::string reextract_line;
  size_t objects_added = 0;
  size_t links_added = 0;
  size_t links_deleted = 0;
  /// Complex objects the batch touches (the re_extract's dirty seed).
  std::vector<schemex::graph::ObjectId> touched;
  /// Stage-1 type count of the graph after the batch.
  size_t perfect_types_after = 0;
};

/// What the server reported in one re_extract's "incremental" block.
struct IncrementalReport {
  bool perturb = false;
  bool stage1_incremental = false;
  bool stage2_reused = false;
  uint64_t dirty_seed = 0;
  uint64_t dirty_peak = 0;
  uint64_t rounds = 0;
};

/// Client-side latencies and outcomes of every request sent.
struct Results {
  Samples extract_ms;
  Samples untimed_ms;  ///< extract latency minus its timings.total_ms
  Samples query_ms;
  Samples load_ms;
  Samples apply_ms;
  Samples rewire_ms;
  Samples perturb_ms;
  std::vector<double> query_done_s;  ///< completion times, reader clock
  double query_seconds = 0;
  size_t batches_done = 0;
  std::vector<IncrementalReport> incremental;  ///< in batch order
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log
  /// First response seen for each request line, for the replay's
  /// serialize timing.
  std::map<std::string, std::string> first_response;

  void Fail(const std::string& why);
  void Merge(const Results& other);
};

}  // namespace perfbench

#endif  // SCHEMEX_PERFBENCH_BENCH_H_

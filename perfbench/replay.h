// The traced replay: a fixed prefix of a run's requests re-executed by
// calling each layer's public functions directly, with a span around
// every call.
#ifndef SCHEMEX_PERFBENCH_REPLAY_H_
#define SCHEMEX_PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "workload.h"

namespace perfbench {

struct ReplayReport {
  double wall_ms = 0;
  /// Replayed requests whose layer costs make up the workload's focus
  /// end-to-end metric: the extract on the extract workloads, the
  /// perturb re_extracts on serve_delta_x25.
  std::vector<int64_t> focus_requests;
  /// Name of the focus requests' root span.
  std::string focus_root;
  /// Replayed re_extracts after a rewire batch.
  std::vector<int64_t> rewire_requests;
  /// Exact counts and ratios (per-layer metric name -> value).
  std::map<std::string, double> counts;
  /// Per replayed re_extract: one line of its incremental counters.
  std::vector<std::string> batch_counters;
};

/// Replays the set-up or focus extract, the first 100 reader requests and
/// the first 8 write batches. Every result is cross-checked against the
/// direct reference and the server's own responses in `e2e`; mismatches
/// are recorded in `r`.
ReplayReport Replay(const WorkloadSpec& spec, const Prepared& p,
                    const ExtractExpectation& want, const Results& e2e,
                    Tracer& tracer, Results* r);

/// Per-layer metrics of a traced replay.
std::map<std::string, double> LayerMetrics(const Tracer& tracer,
                                           const ReplayReport& report);

/// Unit of a per-layer metric, from its name's suffix.
std::string LayerUnit(const std::string& name);

}  // namespace perfbench

#endif  // SCHEMEX_PERFBENCH_REPLAY_H_

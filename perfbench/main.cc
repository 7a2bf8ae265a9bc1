// schemexd end-to-end benchmark.
//
// One process starts an in-process service::TcpServer on loopback and
// drives it with blocking service::TcpClient connections in a closed
// loop: every request is a real NDJSON line through framer -> parse ->
// pool queue -> handler -> serialize. Set-up (graph generation,
// SaveWorkspace, load_workspace over the wire, delta pre-generation) is
// timed on its own and repeated; the timed loop only sends pre-built
// lines. Correctness is checked outside the timed loop on every run. With
// --trace 1 the run also replays a fixed prefix of its requests by calling
// each layer's public functions with a span around each call, and reports
// the per-layer split and the tracer's overhead.
//
//   schemex_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--work-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

#include <malloc.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "replay.h"
#include "service/server.h"
#include "service/tcp_client.h"
#include "service/tcp_server.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 5;
/// Set-up extracts on serve_delta_x25; extract_ms is their median.
constexpr size_t kServeExtracts = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
  /// Listed under end_to_end in BENCHMARK.json, with a bound, and printed
  /// by every run. The latency and throughput figures are listed under
  /// per_layer, unbounded, as their medians move with the load of a shared
  /// host by more than a bound may allow (README, "Steadiness"); they are
  /// printed with the layer metrics and in every run's report.
  bool gated = false;
};

void PrintSamples(const char* name, const char* unit, const Samples& s) {
  const double p = s.SupportedPercentile();
  std::printf("  %-24s n=%-6zu median=%.4f %s  p%g=%.4f %s  min=%.4f\n",
              name, s.n(), s.Median(), unit, p * 100, s.Quantile(p), unit,
              s.Quantile(0));
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Run(const WorkloadSpec& spec, const Args& args) {
  const std::string work = (fs::path(args.work_dir) / spec.name).string();
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work);

  service::ServerOptions so;
  so.num_threads = 2;
  service::Server server(so);
  service::TcpServer tcp(&server);
  if (util::Status s = tcp.Start(); !s.ok()) {
    std::fprintf(stderr, "tcp server: %s\n", s.ToString().c_str());
    return 1;
  }
  auto main_conn = service::TcpClient::Connect("127.0.0.1", tcp.port());
  auto reader_conn = service::TcpClient::Connect("127.0.0.1", tcp.port());
  if (!main_conn.ok() || !reader_conn.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }

  Results res;
  // Set-up, repeated: generate, save, load over the wire, pre-generate.
  const size_t num_batches = std::max<size_t>(
      64, static_cast<size_t>(spec.batches_per_s * args.seconds));
  Samples setup_s;
  Prepared prep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto p = SetUp(spec, args.seed, num_batches, work, *main_conn, &res);
    if (!p.ok()) {
      std::fprintf(stderr, "set-up: %s\n", p.status().ToString().c_str());
      return 1;
    }
    setup_s.Add(MsSince(t0) / 1e3);
    prep = std::move(*p);
  }

  // The reference every extract response is checked against.
  auto want = DirectExtract(*prep.base, spec.extract_k);
  if (!want.ok()) {
    std::fprintf(stderr, "direct extract: %s\n",
                 want.status().ToString().c_str());
    return 1;
  }

  // Warm-up, checked and outside the timed window: one query, and on
  // serve_delta_x25 the set-up extract, run kServeExtracts times (its
  // latency is that workload's extract_ms). The extract workloads need
  // no warm-up extract: the direct reference above already ran the same
  // stages in this process, and the median hides a first-request outlier.
  const Clock::time_point never = Clock::time_point::max();
  {
    Results warm;
    if (spec.serve) {
      RunExtractLoop(*main_conn, prep.extract_line, *want, Clock::now(),
                     kServeExtracts, &res);
    }
    RunReader(*reader_conn, prep, never, 1, &warm);
    res.attempted += warm.attempted;
    res.failed += warm.failed;
    for (const std::string& f : warm.failures) res.failures.push_back(f);
    res.first_response.insert(warm.first_response.begin(),
                              warm.first_response.end());
  }

  // The timed window.
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  // The extract workloads give the first two thirds of the window to
  // their extracts alone and the rest to the serving traffic, so every
  // run reports every client figure and no extract contends with it;
  // serve_delta_x25 serves for the whole window.
  Clock::time_point serve_until = deadline;
  if (!spec.serve) {
    RunExtractLoop(*main_conn, prep.extract_line, *want,
                   start + (deadline - start) * 2 / 3, 1, &res);
    serve_until = Clock::now() + (deadline - start) / 3;
  }
  Results reader, writer;
  std::thread t([&] {
    RunReader(*reader_conn, prep, serve_until,
              std::numeric_limits<size_t>::max(), &reader);
  });
  RunWriter(*main_conn, prep, want->k, serve_until, &writer);
  t.join();
  const bool writer_exhausted = writer.batches_done == prep.batches.size();
  res.Merge(reader);
  res.Merge(writer);
  const double peak_rss_mb = PeakRssMb();

  CheckFinalState(*main_conn, prep, res.batches_done, want->k, work, &res);

  std::map<std::string, double> layers;
  std::vector<std::string> batch_counters;
  if (args.trace) {
    Tracer tracer;
    const ReplayReport traced = Replay(spec, prep, *want, res, tracer, &res);
    layers = LayerMetrics(tracer, traced);
    batch_counters = traced.batch_counters;
    layers["service.untimed_ms"] = res.untimed_ms.Median();
    // The tracer's own share of the traced replay: its calibrated
    // per-span cost times the spans it recorded. Timing a traced against
    // an untraced replay cannot show it, as a few hundred spans cost far
    // less than the run-to-run noise of the multi-second extract.
    const double tracer_ms =
        SpanCostUs() * static_cast<double>(tracer.num_spans()) / 1e3;
    layers["trace.overhead_frac"] =
        traced.wall_ms > tracer_ms ? tracer_ms / (traced.wall_ms - tracer_ms)
                                   : 0.0;
    const std::string trace_path = (fs::path(work) / "trace.jsonl").string();
    if (util::Status s = tracer.Write(trace_path); !s.ok()) {
      std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
    }
  }

  main_conn->Close();
  reader_conn->Close();
  tcp.Shutdown();

  // Human-readable report.
  graph::GraphView view(*prep.base);
  std::printf("workload %s seed %" PRIu64 ": objects=%zu edges=%zu "
              "perfect_types=%" PRIu64 " snapshot_bytes=%" PRIu64
              " load_objects=%zu k=%" PRIu64 " pool_workers=%zu\n",
              spec.name.c_str(), args.seed, view.NumObjects(),
              view.NumEdges(), want->perfect_types, prep.snapshot_bytes,
              prep.load_objects, want->k, so.num_threads);
  PrintSamples("setup_s", "s", setup_s);
  PrintSamples("extract_ms", "ms", res.extract_ms);
  PrintSamples("extract_untimed_ms", "ms", res.untimed_ms);
  PrintSamples("query_ms", "ms", res.query_ms);
  PrintSamples("load_ms", "ms", res.load_ms);
  PrintSamples("apply_delta_ms", "ms", res.apply_ms);
  PrintSamples("re_extract_rewire_ms", "ms", res.rewire_ms);
  PrintSamples("re_extract_perturb_ms", "ms", res.perturb_ms);
  std::printf("  queries=%zu in %.3f s, batches=%zu%s\n", res.query_ms.n(),
              res.query_seconds, res.batches_done,
              writer_exhausted ? " (writer used every pre-generated batch)"
                               : "");
  size_t rewire_fallbacks = 0, perturb_fallbacks = 0, reused = 0;
  std::string peaks;
  for (size_t b = 0; b < res.incremental.size(); ++b) {
    const IncrementalReport& rep = res.incremental[b];
    (rep.perturb ? perturb_fallbacks : rewire_fallbacks) +=
        rep.stage1_incremental ? 0 : 1;
    reused += rep.stage2_reused ? 1 : 0;
    if (b < 8) peaks += (peaks.empty() ? "" : ",") + std::to_string(rep.dirty_peak);
  }
  std::printf("  counters: perfect_types=%" PRIu64 " final_types=%" PRIu64
              " excess=%" PRIu64 " deficit=%" PRIu64
              " dirty_peaks[0..8)=%s rewire_fallbacks=%zu "
              "perturb_fallbacks=%zu stage2_reused=%zu/%zu\n",
              want->perfect_types, want->final_types, want->excess,
              want->deficit, peaks.c_str(), rewire_fallbacks,
              perturb_fallbacks, reused, res.incremental.size());
  for (const std::string& line : batch_counters) {
    std::printf("  replay %s\n", line.c_str());
  }
  for (const std::string& f : res.failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }
  const double failed_frac =
      res.attempted ? static_cast<double>(res.failed) / res.attempted : 1.0;
  std::printf("  failed_frac=%.6f (%zu of %zu)\n", failed_frac, res.failed,
              res.attempted);

  std::vector<Metric> metrics = {
      {"setup_s", "s", setup_s.Median(), true},
      {"peak_rss_mb", "MB", peak_rss_mb, true},
      {"extract_ms", "ms", res.extract_ms.Median()},
      {"query_ms.p50", "ms", res.query_ms.Quantile(0.5)},
      {"query_ms.p99", "ms", BlockQuantile(res.query_ms, kQueryBlock, 0.99)},
      {"query_per_s", "1/s", BlockRate(res.query_done_s, kQueryBlock)},
      {"load_ms", "ms", res.load_ms.Median()},
      {"apply_delta_ms", "ms", res.apply_ms.Median()},
      {"re_extract_rewire_ms", "ms", res.rewire_ms.Median()},
      {"re_extract_perturb_ms", "ms", res.perturb_ms.Median()},
  };
  if (!args.trace) {
    std::erase_if(metrics, [](const Metric& m) { return !m.gated; });
  }
  for (const auto& [name, value] : layers) {
    metrics.push_back({name, LayerUnit(name), value});
  }
  std::string out = "{\"correct\": ";
  out += res.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return res.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fixed malloc thresholds, so a freed buffer of 256 KiB or more goes
  // back to the system. Under glibc's default, the threshold rises after
  // the first such free, and each pool worker that ran a Stage-2 request
  // keeps its buffers in its own arena: peak_rss_mb then stepped by one
  // Stage-2 footprint (~16 MB at DBG x25) with the workers the pool queue
  // happened to pick (72.8, 89.5 and 106.3 MB in three runs of one seed).
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  mallopt(M_TRIM_THRESHOLD, 512 * 1024);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return perfbench::Run(*spec, args);
}

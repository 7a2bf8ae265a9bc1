// Set-up, closed-loop drivers and correctness checks of one benchmark run.
#ifndef SCHEMEX_PERFBENCH_WORKLOAD_H_
#define SCHEMEX_PERFBENCH_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "graph/delta_overlay.h"
#include "graph/frozen_graph.h"
#include "json/json.h"
#include "service/tcp_client.h"
#include "util/statusor.h"

namespace perfbench {

namespace service = schemex::service;
namespace graph = schemex::graph;
namespace json = schemex::json;

/// The five DBG path queries the reader cycles.
inline constexpr const char* kQueryPaths[] = {
    "project.name", "author.name", "*.email", "project_member.advisor.name",
    "degree.school"};

/// Everything set-up leaves for the timed loop: the served graph as
/// generated, the saved workspace directories, and the pre-built request
/// lines (the timed loop only sends these).
struct Prepared {
  std::shared_ptr<const graph::FrozenGraph> base;
  std::string main_dir;
  std::string load_dir;
  size_t load_objects = 0;
  uint64_t snapshot_bytes = 0;
  std::vector<Batch> batches;
  std::vector<std::string> query_lines;  ///< 5 paths x limit {0, 20}
  std::vector<uint64_t> query_limits;
  std::string load_line;
  std::string extract_line;
};

/// Generates the workload's graphs from `seed`, saves them with
/// catalog::SaveWorkspace, loads them over `client` with load_workspace,
/// and pre-generates `num_batches` delta batches.
util::StatusOr<Prepared> SetUp(const WorkloadSpec& spec, uint64_t seed,
                               size_t num_batches, const std::string& work_dir,
                               service::TcpClient& client, Results* r);

/// The reference an extract response must match: a direct
/// SchemaExtractor::Run with the same options (after the knee sweep when
/// k = 0).
struct ExtractExpectation {
  uint64_t k = 0;
  uint64_t perfect_types = 0;
  uint64_t final_types = 0;
  uint64_t excess = 0;
  uint64_t deficit = 0;
};
util::StatusOr<ExtractExpectation> DirectExtract(
    const graph::FrozenGraph& g, uint64_t k);

/// Issues `line` in a closed loop until `deadline`, and at least
/// `min_requests` times, checking each response against `want`.
void RunExtractLoop(service::TcpClient& client, const std::string& line,
                    const ExtractExpectation& want, Clock::time_point deadline,
                    size_t min_requests, Results* r);

/// The reader: cycles the query lines, one request in 50 a
/// load_workspace re-map, until `deadline` or `max_requests`.
void RunReader(service::TcpClient& client, const Prepared& p,
               Clock::time_point deadline, size_t max_requests, Results* r);

/// The writer: apply_delta then re_extract per pre-generated batch, until
/// `deadline` or the batches run out; stops only between batches.
void RunWriter(service::TcpClient& client, const Prepared& p, uint64_t k,
               Clock::time_point deadline, Results* r);

/// After the loop: the served workspace must equal a cold extraction of
/// the mirror graph mutated by the first `batches_done` batches (saved
/// artifacts byte for byte), and query counts over the wire must equal
/// direct evaluations on that graph.
void CheckFinalState(service::TcpClient& client, const Prepared& p,
                     size_t batches_done, uint64_t k,
                     const std::string& work_dir, Results* r);

/// Builds a mirror overlay from `base` with the ops of `batches[0, n)`.
util::StatusOr<std::shared_ptr<graph::DeltaOverlay>> ApplyBatches(
    std::shared_ptr<const graph::FrozenGraph> base,
    const std::vector<Batch>& batches, size_t n);

/// Applies one batch's ops to `ov` (the same calls apply_delta makes).
util::Status ApplyOps(graph::DeltaOverlay& ov,
                      const std::vector<service::DeltaOp>& ops);

/// Member `key` of a JSON object, or nullptr.
const json::Value* Field(const json::Value& v, const std::string& key);
uint64_t UintField(const json::Value& v, const std::string& key);

}  // namespace perfbench

#endif  // SCHEMEX_PERFBENCH_WORKLOAD_H_

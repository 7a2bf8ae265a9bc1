#ifndef SCHEMEX_TYPING_PERFECT_TYPING_H_
#define SCHEMEX_TYPING_PERFECT_TYPING_H_

#include <cstdint>
#include <vector>

#include "graph/graph_view.h"
#include "typing/exec_options.h"
#include "typing/gfp.h"
#include "typing/typing_program.h"
#include "util/statusor.h"

namespace schemex::typing {

/// Output of Stage 1 (§4): the minimal perfect typing program plus the
/// *home type* of every object.
struct PerfectTypingResult {
  TypingProgram program;

  /// Per object: the home type, or kInvalidType for atomic objects.
  std::vector<TypeId> home;

  /// Per type: number of objects whose home it is (the clustering weights
  /// of Stage 2).
  std::vector<uint32_t> weight;

  /// Number of complex objects typed.
  size_t NumComplexObjects() const;
};

/// The paper's §4.1 algorithm, literally:
///  1. build the candidate program Q_D with one type per complex object
///     whose rule is the object's local picture,
///  2. compute the greatest fixpoint M of Q_D,
///  3. merge candidate types with equal extents (Remark 4.1) and rewrite
///     one representative rule per equivalence class.
///
/// Exact but O(N^2)-ish; intended for small/medium databases and as the
/// reference the refinement algorithm is tested against. `options`
/// threads cancellation through the GFP engine underneath.
util::StatusOr<PerfectTypingResult> PerfectTypingViaGfp(
    graph::GraphView g, const ExecOptions& options = {});

/// Scalable Stage 1 via partition refinement (the bisimulation-style
/// computation of §4.1 "Computational Efficiency"): start with one block
/// of all complex objects and repeatedly split blocks by the set of
/// (direction, label, neighbor-block) triples until stable. Produces the
/// coarsest partition where equivalent objects have identical local
/// pictures up to the partition — the same partition PerfectTypingViaGfp
/// computes on databases where extent-equality coincides with local-
/// picture-equality (verified against the GFP method in tests).
///
/// This is the sequential reference implementation (one TypeSignature +
/// ordered-map key per object per round); production paths use
/// PerfectTypingViaHashRefinement, which is pinned bit-identical to it.
util::StatusOr<PerfectTypingResult> PerfectTypingViaRefinement(
    graph::GraphView g);

/// Allocation-lean partition refinement, the production Stage 1. Computes
/// exactly the partition (and block numbering, and program) of
/// PerfectTypingViaRefinement:
///
///  - Per round, each complex object's local picture is folded into a
///    64-bit hash combined with its previous block id — no TypeSignature
///    or std::map node is materialized. The canonical sorted/deduplicated
///    link encoding is kept in one reused arena, so hash-bucket
///    collisions are resolved by comparing the encodings exactly: the
///    partition is the exact coarsest full bisimulation regardless of
///    hash quality (options.debug_force_hash_collisions pins this).
///  - Block ids are assigned by first occurrence in object order, the
///    reference's numbering, so the result is bit-identical to it.
///  - options.check_cancel is polled between rounds, making long extracts
///    cancellable mid-Stage-1.
util::StatusOr<PerfectTypingResult> PerfectTypingViaHashRefinement(
    graph::GraphView g, const ExecOptions& options = {});

/// Convenience: extents of the result program under GFP semantics. Because
/// typing rules have no negation, extents may overlap and strictly contain
/// the home sets (§4.2): an object with *more* links than its home type
/// requires also satisfies the richer types' generalizations.
util::StatusOr<Extents> PerfectTypingExtents(const PerfectTypingResult& r,
                                             graph::GraphView g);

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_PERFECT_TYPING_H_

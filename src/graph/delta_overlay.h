#ifndef SCHEMEX_GRAPH_DELTA_OVERLAY_H_
#define SCHEMEX_GRAPH_DELTA_OVERLAY_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/data_graph.h"
#include "graph/frozen_graph.h"
#include "graph/label.h"
#include "util/status.h"

namespace schemex::graph {

/// A mutation layer over an immutable FrozenGraph snapshot.
///
/// The overlay keeps the base CSR untouched and records a delta on top:
/// new objects (complex or atomic) appended after the base id space, a
/// private copy of the label interner (base labels keep their ids; fresh
/// labels extend the table), and — for every object whose adjacency the
/// delta touches — a fully materialized merged row. The overlay is one of
/// GraphView's two read shapes (the other is FrozenGraph), so the whole
/// typing/cluster/extract pipeline works over an overlay without knowing
/// it exists: untouched objects answer straight from the base CSR
/// slices, touched objects from their materialized rows.
///
/// Mutation semantics mirror DataGraph exactly (same Status codes, same
/// invariants: atomic objects are sinks, one edge per (from, to, label),
/// rows sorted by (label, other)), so a DataGraph mutated by the same op
/// sequence is the reference model for the overlay — delta_overlay_test
/// pins the equivalence.
///
/// An overlay is a value: copying shares the base snapshot and copies
/// only O(delta) state, which is how the service keeps per-generation
/// workspace snapshots cheap. Compact() folds the delta into a fresh
/// FrozenGraph whose serialized snapshot is byte-identical to freezing
/// an equivalently mutated DataGraph (labels, objects and edges are
/// replayed in id order, and CSR layout is deterministic given that
/// order).
class DeltaOverlay {
 public:
  /// Starts an empty delta over `base` (must be non-null).
  explicit DeltaOverlay(std::shared_ptr<const FrozenGraph> base);

  // Copyable and movable; copies share the base and clone the delta.
  DeltaOverlay(const DeltaOverlay&) = default;
  DeltaOverlay& operator=(const DeltaOverlay&) = default;
  DeltaOverlay(DeltaOverlay&&) = default;
  DeltaOverlay& operator=(DeltaOverlay&&) = default;

  // -- Mutators (DataGraph-compatible semantics) ------------------------

  /// Adds a complex object after the base id space and returns its id.
  ObjectId AddComplex(std::string_view name = "");

  /// Adds an atomic object carrying `value` and returns its id.
  ObjectId AddAtomic(std::string_view value, std::string_view name = "");

  /// Adds edge link(from, to, label). Fails with InvalidArgument (id out
  /// of range), FailedPrecondition (`from` atomic) or AlreadyExists,
  /// exactly like DataGraph::AddEdge.
  util::Status AddEdge(ObjectId from, ObjectId to, LabelId label);

  /// Convenience overload interning `label` by name.
  util::Status AddEdge(ObjectId from, ObjectId to, std::string_view label);

  /// Removes edge (from, to, label) — base-resident or delta-added — if
  /// present; returns NotFound otherwise (InvalidArgument when an id is
  /// out of range).
  util::Status RemoveEdge(ObjectId from, ObjectId to, LabelId label);

  /// Intern helper: id for `name`, creating it in the private table.
  LabelId InternLabel(std::string_view name) { return labels_.Intern(name); }

  // -- Read surface (GraphView-compatible) ------------------------------

  size_t NumObjects() const { return base_objects_ + added_kind_.size(); }
  size_t NumComplexObjects() const { return num_complex_; }
  size_t NumAtomicObjects() const { return NumObjects() - num_complex_; }
  size_t NumEdges() const { return num_edges_; }

  bool IsAtomic(ObjectId o) const {
    return o < base_objects_ ? base_->IsAtomic(o)
                             : added_kind_[o - base_objects_] != 0;
  }
  bool IsComplex(ObjectId o) const { return !IsAtomic(o); }

  /// Value of an atomic object (empty for complex objects). Views into
  /// the base arena or the overlay's stable string store.
  std::string_view Value(ObjectId o) const {
    return o < base_objects_ ? base_->Value(o)
                             : std::string_view(added_value_[o - base_objects_]);
  }

  /// Display name given at creation (may be empty).
  std::string_view Name(ObjectId o) const {
    return o < base_objects_ ? base_->Name(o)
                             : std::string_view(added_name_[o - base_objects_]);
  }

  /// Outgoing half-edges of `o`, sorted by (label, other): the base CSR
  /// slice when the delta never touched `o`, the materialized merged row
  /// otherwise.
  std::span<const HalfEdge> OutEdges(ObjectId o) const {
    auto it = out_.index.find(o);
    if (it != out_.index.end()) {
      const std::vector<HalfEdge>& row = out_.rows[it->second];
      return {row.data(), row.size()};
    }
    // Added objects without a materialized row have no edges yet; the
    // base CSR only answers for ids it owns.
    if (o >= base_objects_) return {};
    return base_->OutEdges(o);
  }

  /// Incoming half-edges of `o`, sorted by (label, other).
  std::span<const HalfEdge> InEdges(ObjectId o) const {
    auto it = in_.index.find(o);
    if (it != in_.index.end()) {
      const std::vector<HalfEdge>& row = in_.rows[it->second];
      return {row.data(), row.size()};
    }
    if (o >= base_objects_) return {};
    return base_->InEdges(o);
  }

  const LabelInterner& labels() const { return labels_; }

  /// True iff the exact edge exists (binary search in the row).
  bool HasEdge(ObjectId from, ObjectId to, LabelId label) const;

  /// True iff `o` has some outgoing `label` edge to an atomic object.
  bool HasEdgeToAtomic(ObjectId o, LabelId label) const;

  /// True iff every edge goes from a complex object to an atomic object.
  bool IsBipartite() const;

  // -- Delta introspection ----------------------------------------------

  /// The immutable snapshot this overlay mutates.
  const std::shared_ptr<const FrozenGraph>& base() const { return base_; }

  size_t NumBaseObjects() const { return base_objects_; }
  size_t NumAddedObjects() const { return added_kind_.size(); }

  /// Cumulative successful link inserts / deletes (op counts, not net:
  /// adding and then removing an edge counts once on each side).
  size_t NumAddedLinks() const { return links_added_; }
  size_t NumDeletedLinks() const { return links_deleted_; }

  /// Monotone counter bumped by every successful mutation; generation 0
  /// is the pristine base. Lets callers tell overlay values apart.
  uint64_t generation() const { return generation_; }

  /// Sorted, deduplicated ids of every complex object whose local
  /// picture any mutation may have changed: endpoints of inserted and
  /// deleted links plus all added complex objects. This is the dirty-set
  /// seed for incremental Stage 1; it is conservative — an edge added
  /// and later removed still reports its endpoints.
  std::vector<ObjectId> TouchedComplexObjects() const;

  /// |TouchedComplexObjects()| / NumComplexObjects() (0 when the graph
  /// has no complex objects). The service's compaction / fallback
  /// heuristics key off this.
  double TouchedComplexFraction() const;

  /// Folds base + delta into a fresh immutable snapshot. Object ids,
  /// label ids and adjacency are preserved verbatim, so a snapshot of
  /// the compacted graph is byte-identical to one frozen from an
  /// equivalently mutated DataGraph.
  std::shared_ptr<const FrozenGraph> Compact() const;

  /// Checks overlay invariants: materialized rows sorted and unique,
  /// out/in symmetry across base and delta rows, atomic-sink rule for
  /// added objects and touched rows, edge-count bookkeeping.
  util::Status Validate() const;

  /// Approximate heap bytes held by the delta (rows, strings, label
  /// copy); the shared base is reported by base()->MemoryUsage().
  size_t MemoryUsage() const;

 private:
  /// Materialized adjacency rows for touched objects, keyed by id. The
  /// map is only ever *looked up*, never iterated — every walk that
  /// produces ordered output goes through object ids.
  struct RowStore {
    std::unordered_map<ObjectId, uint32_t> index;
    std::vector<std::vector<HalfEdge>> rows;
  };

  util::Status CheckIds(ObjectId from, ObjectId to) const;

  /// The materialized row for `o`, copying the base slice on first touch.
  std::vector<HalfEdge>& Row(RowStore& store, ObjectId o, bool out_dir);

  /// Records `o` (if complex) as touched by a mutation.
  void Touch(ObjectId o);

  std::shared_ptr<const FrozenGraph> base_;
  size_t base_objects_ = 0;   // base_->NumObjects(), cached
  LabelInterner labels_;      // private copy; base ids preserved

  // Added objects, parallel arrays indexed by (id - base_objects_).
  // deque gives the stored strings stable addresses, so the string_views
  // handed out by Value()/Name() survive later mutations.
  std::vector<uint8_t> added_kind_;  // 0 = complex, 1 = atomic
  std::deque<std::string> added_value_;
  std::deque<std::string> added_name_;

  RowStore out_;
  RowStore in_;

  std::vector<ObjectId> touched_log_;  // complex endpoints, append order
  size_t num_complex_ = 0;
  size_t num_edges_ = 0;
  size_t links_added_ = 0;
  size_t links_deleted_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace schemex::graph

#endif  // SCHEMEX_GRAPH_DELTA_OVERLAY_H_

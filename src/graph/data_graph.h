#ifndef SCHEMEX_GRAPH_DATA_GRAPH_H_
#define SCHEMEX_GRAPH_DATA_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/label.h"
#include "util/status.h"

namespace schemex::graph {

/// Dense integer id of an object (node). Complex and atomic objects share
/// the id space of a DataGraph.
using ObjectId = uint32_t;

inline constexpr ObjectId kInvalidObject = static_cast<ObjectId>(-1);

/// One labeled, directed half-edge as seen from some object: the label plus
/// the object at the other end.
struct HalfEdge {
  LabelId label;
  ObjectId other;

  friend bool operator==(const HalfEdge&, const HalfEdge&) = default;
  friend auto operator<=>(const HalfEdge&, const HalfEdge&) = default;
};

/// The paper's model of semistructured data: a labeled directed graph given
/// by relations link(From, To, Label) and atomic(Obj, Value).
///
/// DataGraph is the builder: importers, generators and tests add objects
/// and edges here, then freeze it (graph::Freeze, graph/frozen_graph.h)
/// before any algorithm reads it. Its own reads serve the freeze, the
/// builders' bookkeeping and the tests that pin FrozenGraph against it.
///
/// Invariants enforced by the mutating API (paper §2):
///  * atomic objects have no outgoing edges (link/atomic first projections
///    are disjoint);
///  * each atomic object has exactly one value (stored at creation);
///  * between any ordered pair of objects there is at most one edge with a
///    given label (duplicate AddEdge calls return AlreadyExists).
///
/// Both outgoing and incoming adjacency are indexed, since the typing
/// language describes objects by incoming as well as outgoing typed links.
class DataGraph {
 public:
  DataGraph() = default;

  // Copyable and movable; a DataGraph is a value.
  DataGraph(const DataGraph&) = default;
  DataGraph& operator=(const DataGraph&) = default;
  DataGraph(DataGraph&&) = default;
  DataGraph& operator=(DataGraph&&) = default;

  /// Adds a complex (interior) object and returns its id. `name` is a
  /// debugging/display name; it need not be unique and may be empty.
  ObjectId AddComplex(std::string_view name = "");

  /// Adds an atomic object carrying `value` and returns its id.
  ObjectId AddAtomic(std::string_view value, std::string_view name = "");

  /// Adds edge link(from, to, label). Fails with:
  ///  * InvalidArgument if either id is out of range,
  ///  * FailedPrecondition if `from` is atomic,
  ///  * AlreadyExists if the identical (from, to, label) edge exists.
  util::Status AddEdge(ObjectId from, ObjectId to, LabelId label);

  /// Convenience overload interning `label` by name.
  util::Status AddEdge(ObjectId from, ObjectId to, std::string_view label);

  /// Set-semantics insert for importers: a duplicate (from, to, label)
  /// edge collapses silently (AlreadyExists is the *expected* outcome on
  /// re-walked structures), while the real failure modes — ids out of
  /// range, atomic source — assert in debug builds. Use AddEdge when the
  /// caller can propagate a Status; use MergeEdge when duplicates are
  /// by-design benign.
  void MergeEdge(ObjectId from, ObjectId to, LabelId label);
  void MergeEdge(ObjectId from, ObjectId to, std::string_view label);

  /// Removes edge (from, to, label) if present; returns NotFound otherwise.
  util::Status RemoveEdge(ObjectId from, ObjectId to, LabelId label);

  /// True iff the exact edge exists.
  bool HasEdge(ObjectId from, ObjectId to, LabelId label) const;

  /// True iff `o` has some outgoing `label` edge to an atomic object.
  bool HasEdgeToAtomic(ObjectId o, LabelId label) const;

  size_t NumObjects() const { return kind_.size(); }
  size_t NumComplexObjects() const { return num_complex_; }
  size_t NumAtomicObjects() const { return kind_.size() - num_complex_; }
  size_t NumEdges() const { return num_edges_; }

  bool IsAtomic(ObjectId o) const { return kind_[o] == Kind::kAtomic; }
  bool IsComplex(ObjectId o) const { return kind_[o] == Kind::kComplex; }

  /// Value of an atomic object (empty for complex objects).
  const std::string& Value(ObjectId o) const { return value_[o]; }

  /// Display name given at creation (may be empty).
  const std::string& Name(ObjectId o) const { return name_[o]; }

  /// Outgoing half-edges of `o`, sorted by (label, other).
  std::span<const HalfEdge> OutEdges(ObjectId o) const {
    return {out_[o].data(), out_[o].size()};
  }

  /// Incoming half-edges of `o`, sorted by (label, other).
  std::span<const HalfEdge> InEdges(ObjectId o) const {
    return {in_[o].data(), in_[o].size()};
  }

  /// The label interner shared by all edges of this graph.
  const LabelInterner& labels() const { return labels_; }
  LabelInterner& labels() { return labels_; }

  /// Intern helper: id for `name`, creating it if needed.
  LabelId InternLabel(std::string_view name) { return labels_.Intern(name); }

  /// Checks all representation invariants (used by tests and after bulk
  /// perturbation): adjacency symmetry, sortedness, atomic-sink rule.
  util::Status Validate() const;

  /// True iff every edge goes from a complex object to an atomic object
  /// (the paper's "bipartite" special case, §5.2).
  bool IsBipartite() const;

 private:
  enum class Kind : uint8_t { kComplex, kAtomic };

  util::Status CheckIds(ObjectId from, ObjectId to) const;

  LabelInterner labels_;
  std::vector<Kind> kind_;
  std::vector<std::string> value_;  // parallel to kind_; "" for complex
  std::vector<std::string> name_;   // parallel to kind_
  std::vector<std::vector<HalfEdge>> out_;
  std::vector<std::vector<HalfEdge>> in_;
  size_t num_complex_ = 0;
  size_t num_edges_ = 0;
};

}  // namespace schemex::graph

#endif  // SCHEMEX_GRAPH_DATA_GRAPH_H_

#ifndef SCHEMEX_GRAPH_GRAPH_VIEW_H_
#define SCHEMEX_GRAPH_GRAPH_VIEW_H_

#include <span>
#include <string_view>

#include "graph/delta_overlay.h"
#include "graph/frozen_graph.h"
#include "graph/label.h"

namespace schemex::graph {

/// Non-owning read handle over the two read shapes of a database.
///
/// Every read-path algorithm (typing, extraction, clustering, query,
/// baselines) takes a GraphView, which wraps either an immutable
/// FrozenGraph (a CSR snapshot, frozen from a DataGraph or mapped from
/// disk) or a DeltaOverlay (a mutation layer over a frozen snapshot).
/// DataGraph is a builder only: freeze it (`Freeze(g)` or
/// `FrozenGraph(g)`) before handing it to any reader. Construction is
/// implicit from both shapes, so `f(*frozen)` and `f(overlay)` work at
/// call sites.
///
/// Dispatch is one predictable branch per accessor. On a FrozenGraph,
/// OutEdges/InEdges return slices of the flat CSR edge array, so hot
/// loops iterate contiguous memory; an overlay answers from the base CSR
/// for untouched objects. The view borrows the underlying graph: it must
/// not outlive it.
class GraphView {
 public:
  GraphView(const FrozenGraph& g) : frozen_(&g) {}    // NOLINT(runtime/explicit)
  GraphView(const DeltaOverlay& g) : overlay_(&g) {}  // NOLINT(runtime/explicit)

  size_t NumObjects() const {
    return frozen_ ? frozen_->NumObjects() : overlay_->NumObjects();
  }
  size_t NumComplexObjects() const {
    return frozen_ ? frozen_->NumComplexObjects()
                   : overlay_->NumComplexObjects();
  }
  size_t NumAtomicObjects() const {
    return frozen_ ? frozen_->NumAtomicObjects()
                   : overlay_->NumAtomicObjects();
  }
  size_t NumEdges() const {
    return frozen_ ? frozen_->NumEdges() : overlay_->NumEdges();
  }

  bool IsAtomic(ObjectId o) const {
    return frozen_ ? frozen_->IsAtomic(o) : overlay_->IsAtomic(o);
  }
  bool IsComplex(ObjectId o) const {
    return frozen_ ? frozen_->IsComplex(o) : overlay_->IsComplex(o);
  }

  std::string_view Value(ObjectId o) const {
    return frozen_ ? frozen_->Value(o) : overlay_->Value(o);
  }
  std::string_view Name(ObjectId o) const {
    return frozen_ ? frozen_->Name(o) : overlay_->Name(o);
  }

  std::span<const HalfEdge> OutEdges(ObjectId o) const {
    return frozen_ ? frozen_->OutEdges(o) : overlay_->OutEdges(o);
  }
  std::span<const HalfEdge> InEdges(ObjectId o) const {
    return frozen_ ? frozen_->InEdges(o) : overlay_->InEdges(o);
  }

  const LabelInterner& labels() const {
    return frozen_ ? frozen_->labels() : overlay_->labels();
  }

  bool HasEdge(ObjectId from, ObjectId to, LabelId label) const {
    return frozen_ ? frozen_->HasEdge(from, to, label)
                   : overlay_->HasEdge(from, to, label);
  }
  bool HasEdgeToAtomic(ObjectId o, LabelId label) const {
    return frozen_ ? frozen_->HasEdgeToAtomic(o, label)
                   : overlay_->HasEdgeToAtomic(o, label);
  }

  bool IsBipartite() const {
    return frozen_ ? frozen_->IsBipartite() : overlay_->IsBipartite();
  }

 private:
  const FrozenGraph* frozen_ = nullptr;
  const DeltaOverlay* overlay_ = nullptr;
};

}  // namespace schemex::graph

#endif  // SCHEMEX_GRAPH_GRAPH_VIEW_H_

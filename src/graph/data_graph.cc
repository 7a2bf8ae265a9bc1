#include "graph/data_graph.h"

#include <algorithm>
#include <cassert>

#include "util/string_util.h"

namespace schemex::graph {

namespace {

bool InsertSorted(std::vector<HalfEdge>& v, HalfEdge e) {
  auto it = std::lower_bound(v.begin(), v.end(), e);
  if (it != v.end() && *it == e) return false;
  v.insert(it, e);
  return true;
}

bool EraseSorted(std::vector<HalfEdge>& v, HalfEdge e) {
  auto it = std::lower_bound(v.begin(), v.end(), e);
  if (it == v.end() || *it != e) return false;
  v.erase(it);
  return true;
}

bool ContainsSorted(const std::vector<HalfEdge>& v, HalfEdge e) {
  return std::binary_search(v.begin(), v.end(), e);
}

}  // namespace

ObjectId DataGraph::AddComplex(std::string_view name) {
  ObjectId id = static_cast<ObjectId>(kind_.size());
  kind_.push_back(Kind::kComplex);
  value_.emplace_back();
  name_.emplace_back(name);
  out_.emplace_back();
  in_.emplace_back();
  ++num_complex_;
  return id;
}

ObjectId DataGraph::AddAtomic(std::string_view value, std::string_view name) {
  ObjectId id = static_cast<ObjectId>(kind_.size());
  kind_.push_back(Kind::kAtomic);
  value_.emplace_back(value);
  name_.emplace_back(name);
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

util::Status DataGraph::CheckIds(ObjectId from, ObjectId to) const {
  if (from >= kind_.size() || to >= kind_.size()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "object id out of range (from=%u, to=%u, n=%zu)", from, to,
        kind_.size()));
  }
  return util::Status::OK();
}

util::Status DataGraph::AddEdge(ObjectId from, ObjectId to, LabelId label) {
  SCHEMEX_RETURN_IF_ERROR(CheckIds(from, to));
  if (label >= labels_.size()) {
    return util::Status::InvalidArgument("unknown label id");
  }
  if (IsAtomic(from)) {
    return util::Status::FailedPrecondition(
        "atomic objects cannot have outgoing edges");
  }
  if (!InsertSorted(out_[from], HalfEdge{label, to})) {
    return util::Status::AlreadyExists(util::StringPrintf(
        "edge (%u -%s-> %u) already present", from,
        labels_.Name(label).c_str(), to));
  }
  InsertSorted(in_[to], HalfEdge{label, from});
  ++num_edges_;
  return util::Status::OK();
}

util::Status DataGraph::AddEdge(ObjectId from, ObjectId to,
                                std::string_view label) {
  return AddEdge(from, to, labels_.Intern(label));
}

void DataGraph::MergeEdge(ObjectId from, ObjectId to, LabelId label) {
  util::Status st = AddEdge(from, to, label);
  assert(st.ok() || st.code() == util::StatusCode::kAlreadyExists);
  static_cast<void>(st);  // consumed by the assert; duplicates are benign
}

void DataGraph::MergeEdge(ObjectId from, ObjectId to, std::string_view label) {
  MergeEdge(from, to, labels_.Intern(label));
}

util::Status DataGraph::RemoveEdge(ObjectId from, ObjectId to, LabelId label) {
  SCHEMEX_RETURN_IF_ERROR(CheckIds(from, to));
  if (!EraseSorted(out_[from], HalfEdge{label, to})) {
    return util::Status::NotFound("edge not present");
  }
  EraseSorted(in_[to], HalfEdge{label, from});
  --num_edges_;
  return util::Status::OK();
}

bool DataGraph::HasEdge(ObjectId from, ObjectId to, LabelId label) const {
  if (from >= kind_.size() || to >= kind_.size()) return false;
  return ContainsSorted(out_[from], HalfEdge{label, to});
}

bool DataGraph::HasEdgeToAtomic(ObjectId o, LabelId label) const {
  const auto& edges = out_[o];
  auto it = std::lower_bound(edges.begin(), edges.end(),
                             HalfEdge{label, static_cast<ObjectId>(0)});
  for (; it != edges.end() && it->label == label; ++it) {
    if (IsAtomic(it->other)) return true;
  }
  return false;
}

util::Status DataGraph::Validate() const {
  size_t out_count = 0;
  for (ObjectId o = 0; o < kind_.size(); ++o) {
    if (IsAtomic(o) && !out_[o].empty()) {
      return util::Status::Internal(
          util::StringPrintf("atomic object %u has outgoing edges", o));
    }
    if (!std::is_sorted(out_[o].begin(), out_[o].end()) ||
        !std::is_sorted(in_[o].begin(), in_[o].end())) {
      return util::Status::Internal(
          util::StringPrintf("adjacency of object %u not sorted", o));
    }
    out_count += out_[o].size();
    for (const HalfEdge& e : out_[o]) {
      if (e.other >= kind_.size() || e.label >= labels_.size()) {
        return util::Status::Internal("dangling edge endpoint or label");
      }
      if (!ContainsSorted(in_[e.other], HalfEdge{e.label, o})) {
        return util::Status::Internal(util::StringPrintf(
            "edge (%u,%u) missing from incoming index", o, e.other));
      }
    }
    for (const HalfEdge& e : in_[o]) {
      if (e.other >= kind_.size() ||
          !ContainsSorted(out_[e.other], HalfEdge{e.label, o})) {
        return util::Status::Internal(util::StringPrintf(
            "incoming edge of %u has no outgoing counterpart", o));
      }
    }
  }
  if (out_count != num_edges_) {
    return util::Status::Internal("edge count out of sync");
  }
  return util::Status::OK();
}

bool DataGraph::IsBipartite() const {
  for (ObjectId o = 0; o < kind_.size(); ++o) {
    for (const HalfEdge& e : out_[o]) {
      if (!IsAtomic(e.other)) return false;
    }
  }
  return true;
}

}  // namespace schemex::graph

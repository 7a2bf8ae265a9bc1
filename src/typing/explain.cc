#include "typing/explain.h"

#include "util/string_util.h"

namespace schemex::typing {

util::StatusOr<MembershipExplanation> ExplainMembership(
    const TypingProgram& program, graph::GraphView g,
    const Extents& m, graph::ObjectId o, TypeId t) {
  if (t < 0 || static_cast<size_t>(t) >= program.NumTypes()) {
    return util::Status::InvalidArgument("type id out of range");
  }
  MembershipExplanation out;
  out.object = o;
  out.type = t;
  for (const TypedLink& l : program.type(t).signature.links()) {
    graph::ObjectId witness =
        FindWitness(l, g, o, [&m](graph::ObjectId x, TypeId target) {
          return m.Contains(target, x);
        });
    if (witness == graph::kInvalidObject) {
      return util::Status::FailedPrecondition(util::StringPrintf(
          "object %u does not satisfy type %d (typed link without "
          "witness)",
          o, t));
    }
    out.witnesses.push_back(LinkWitness{l, witness});
  }
  return out;
}

std::string MembershipExplanation::ToString(
    graph::GraphView g, const TypingProgram& program) const {
  auto obj_name = [&](graph::ObjectId o) {
    std::string_view n = g.Name(o);
    return n.empty() ? util::StringPrintf("_o%u", o) : std::string(n);
  };
  std::string out = util::StringPrintf(
      "%s : %s because ", obj_name(object).c_str(),
      program.type(type).name.c_str());
  if (witnesses.empty()) {
    out += "its rule body is empty (every object qualifies)";
    return out;
  }
  for (size_t i = 0; i < witnesses.size(); ++i) {
    if (i > 0) out += ", ";
    out += TypedLinkToString(witnesses[i].link, g.labels()) + " via " +
           obj_name(witnesses[i].witness);
  }
  return out;
}

}  // namespace schemex::typing

// §6 online typing as the service runs it: arrivals are added to a
// DeltaOverlay over a frozen base and typed one by one with TypeArrival.

#include "typing/incremental.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "extract/extractor.h"
#include "gen/dbg.h"
#include "graph/delta_overlay.h"
#include "graph/frozen_graph.h"
#include "tests/test_util.h"
#include "typing/recast.h"

namespace schemex::typing {
namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;
using Refs = std::vector<std::pair<std::string, graph::ObjectId>>;

/// Adds a complex object with one atomic field per (label, value) and one
/// edge per (label, target) reference, grows `tau` over it, and types it
/// by the §6 rule. Returns the new id; `*exact` gets TypeArrival's result.
graph::ObjectId AddAndType(graph::DeltaOverlay& ov, const TypingProgram& p,
                           TypeAssignment& tau, const Fields& fields,
                           const Refs& refs, bool* exact) {
  graph::ObjectId id = ov.AddComplex();
  for (const auto& [label, value] : fields) {
    EXPECT_OK(ov.AddEdge(id, ov.AddAtomic(value), label));
  }
  for (const auto& [label, target] : refs) {
    EXPECT_OK(ov.AddEdge(id, target, label));
  }
  tau.Resize(ov.NumObjects());
  *exact = TypeArrival(p, ov, &tau, id);
  return id;
}

/// A frozen base with one typed person and a 1-type schema:
/// person = {->name^0, ->email^0}.
class IncrementalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::GraphBuilder b;
    ASSERT_OK(b.Atomic("n1", "ada"));
    ASSERT_OK(b.Atomic("e1", "ada@x"));
    ASSERT_OK(b.Edge("p1", "name", "n1"));
    ASSERT_OK(b.Edge("p1", "email", "e1"));
    util::Status st;
    graph::DataGraph base = std::move(b).Build(&st);
    ASSERT_OK(st);
    graph::LabelId name = base.labels().Find("name");
    graph::LabelId email = base.labels().Find("email");
    program_.AddType("person",
                     TypeSignature::FromLinks({TypedLink::OutAtomic(name),
                                               TypedLink::OutAtomic(email)}));
    overlay_ = std::make_unique<graph::DeltaOverlay>(graph::Freeze(base));
    tau_ = TypeAssignment(base.NumObjects());
    tau_.Assign(0, 0);
  }

  graph::ObjectId Arrive(const Fields& fields, const Refs& refs,
                         bool* exact) {
    return AddAndType(*overlay_, program_, tau_, fields, refs, exact);
  }

  TypingProgram program_;
  std::unique_ptr<graph::DeltaOverlay> overlay_;
  TypeAssignment tau_;
};

TEST_F(IncrementalFixture, ExactFitAssignedDirectly) {
  bool exact = false;
  graph::ObjectId id =
      Arrive({{"name", "grace"}, {"email", "grace@x"}}, {}, &exact);
  EXPECT_TRUE(exact);
  EXPECT_EQ(tau_.TypesOf(id), (std::vector<TypeId>{0}));
  EXPECT_EQ(overlay_->NumComplexObjects(), 2u);
}

TEST_F(IncrementalFixture, MisfitFallsBackToNearest) {
  bool exact = true;
  graph::ObjectId id = Arrive({{"name", "edsger"}}, {}, &exact);  // no email
  EXPECT_FALSE(exact);
  EXPECT_EQ(tau_.TypesOf(id), (std::vector<TypeId>{0}));
  size_t d = 0;
  EXPECT_EQ(NearestType(program_, *overlay_, tau_, id, &d), 0);
  EXPECT_EQ(d, 1u);
}

TEST_F(IncrementalFixture, ReferencesToExistingObjects) {
  // An extra link is still an exact fit: GFP semantics tolerates extra
  // edges.
  bool exact = false;
  graph::ObjectId id =
      Arrive({{"name", "x"}, {"email", "x@x"}}, {{"friend", 0}}, &exact);
  EXPECT_TRUE(exact);
  EXPECT_EQ(tau_.TypesOf(id), (std::vector<TypeId>{0}));
  // A dangling reference is rejected without touching the overlay.
  const size_t edges = overlay_->NumEdges();
  EXPECT_FALSE(overlay_->AddEdge(id, 10'000, "friend").ok());
  EXPECT_EQ(overlay_->NumEdges(), edges);
}

TEST_F(IncrementalFixture, RetypeRecommendationThreshold) {
  // 8 exact arrivals, then misfits until the fraction crosses 25%.
  size_t added = 0, fallback = 0;
  bool exact = false;
  for (int i = 0; i < 8; ++i) {
    Arrive({{"name", "n"}, {"email", "e"}}, {}, &exact);
    ++added;
    fallback += exact ? 0 : 1;
  }
  EXPECT_EQ(fallback, 0u);
  EXPECT_FALSE(RetypeRecommended(added, fallback, 0.25, 10));
  for (int i = 0; i < 4; ++i) {
    Arrive({{"nickname", "z"}}, {}, &exact);
    ++added;
    fallback += exact ? 0 : 1;
  }
  // 4 of 12 arrivals misfit (33% > 25%), and >= 10 arrivals seen.
  EXPECT_EQ(fallback, 4u);
  EXPECT_TRUE(RetypeRecommended(added, fallback, 0.25, 10));
  EXPECT_FALSE(RetypeRecommended(added, fallback, 0.50, 10));
  EXPECT_FALSE(RetypeRecommended(9, 9, 0.25, 10));  // too few arrivals
}

TEST(IncrementalTest, ChainedArrivalsSeeEachOther) {
  // An arrival can reference a previous arrival and the earlier object's
  // assigned type witnesses the later one's requirements.
  graph::DataGraph g;
  TypingProgram p;
  graph::LabelId leader = g.InternLabel("leader");
  graph::LabelId name = g.InternLabel("name");
  TypeId boss = p.AddType(
      "boss", TypeSignature::FromLinks({TypedLink::OutAtomic(name)}));
  TypeId worker = p.AddType(
      "worker", TypeSignature::FromLinks({TypedLink::Out(leader, boss)}));
  graph::DeltaOverlay ov(graph::Freeze(g));
  TypeAssignment tau;

  bool exact = false;
  graph::ObjectId b = AddAndType(ov, p, tau, {{"name", "B"}}, {}, &exact);
  ASSERT_TRUE(exact);
  ASSERT_EQ(tau.TypesOf(b), (std::vector<TypeId>{boss}));

  graph::ObjectId w = AddAndType(ov, p, tau, {}, {{"leader", b}}, &exact);
  EXPECT_TRUE(exact);
  EXPECT_EQ(tau.TypesOf(w), (std::vector<TypeId>{worker}));
}

TEST(IncrementalTest, SelfLoopArrivalTypedIndependentOfTypeOrder) {
  // A = {->loop^B}, B = {}: an arrival whose only edge is a `loop`
  // self-edge is a B, and through that same edge an A, whichever of the
  // two types the program lists first.
  for (bool a_first : {true, false}) {
    graph::DataGraph g;
    graph::LabelId loop = g.InternLabel("loop");
    TypingProgram p;
    TypeId a = a_first ? p.AddType("A", {}) : kInvalidType;
    TypeId b = p.AddType("B", {});
    if (!a_first) a = p.AddType("A", {});
    p.type(a).signature =
        TypeSignature::FromLinks({TypedLink::Out(loop, b)});
    graph::DeltaOverlay ov(graph::Freeze(g));
    graph::ObjectId id = ov.AddComplex();
    ASSERT_OK(ov.AddEdge(id, id, loop));
    TypeAssignment tau(ov.NumObjects());

    EXPECT_TRUE(TypeArrival(p, ov, &tau, id)) << "A first: " << a_first;
    EXPECT_TRUE(tau.Has(id, a)) << "A first: " << a_first;
    EXPECT_TRUE(tau.Has(id, b)) << "A first: " << a_first;
    EXPECT_EQ(tau.TypesOf(id).size(), 2u) << "A first: " << a_first;
  }
}

TEST(IncrementalTest, EndToEndWithExtractor) {
  // Extract a 6-type DBG schema, then stream a new publication-shaped
  // object at it.
  auto g = gen::MakeDbgDataset();
  auto f = graph::Freeze(*g);
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*f);
  ASSERT_TRUE(r.ok());

  graph::DeltaOverlay ov(f);
  TypeAssignment tau = r->recast.assignment;
  // Find a db_person to author the new publication.
  graph::ObjectId person = graph::kInvalidObject;
  for (graph::ObjectId o = 0; o < g->NumObjects(); ++o) {
    if (g->Name(o).substr(0, 9) == "db_person") {
      person = o;
      break;
    }
  }
  ASSERT_NE(person, graph::kInvalidObject);
  bool exact = false;
  graph::ObjectId pub = AddAndType(ov, r->final_program, tau,
                                   {{"name", "Extracting Schema"},
                                    {"conference", "SIGMOD"},
                                    {"postscript", "p.ps"}},
                                   {{"author", person}}, &exact);
  ASSERT_TRUE(exact);
  // It should land in the publication type: the one whose signature has
  // an ->author link.
  graph::LabelId author = g->labels().Find("author");
  bool in_publication_type = false;
  for (TypeId tt : tau.TypesOf(pub)) {
    for (const TypedLink& l : r->final_program.type(tt).signature.links()) {
      if (l.label == author && l.dir == Direction::kOutgoing) {
        in_publication_type = true;
      }
    }
  }
  EXPECT_TRUE(in_publication_type);
}

}  // namespace
}  // namespace schemex::typing

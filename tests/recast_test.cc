#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"

namespace schemex::typing {
namespace {

graph::ObjectId Obj(const graph::FrozenGraph& g, const char* name) {
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.Name(o) == name) return o;
  }
  return graph::kInvalidObject;
}

TEST(RecastTest, PerfectProgramRecastsExactly) {
  const graph::FrozenGraph g(test::MakeFigure4Database());
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult stage1, PerfectTypingViaGfp(g));
  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] != kInvalidType) homes[o] = {stage1.home[o]};
  }
  ASSERT_OK_AND_ASSIGN(RecastResult r, Recast(stage1.program, g, homes));
  EXPECT_EQ(r.num_exact, g.NumComplexObjects());
  EXPECT_EQ(r.num_fallback, 0u);
  EXPECT_EQ(r.num_untyped, 0u);
  // Homes are contained in the final assignment.
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    for (TypeId t : homes[o]) EXPECT_TRUE(r.assignment.Has(o, t));
  }
}

TEST(RecastTest, GfpTypesAddedBeyondHomes) {
  // o4 satisfies o2's home type as well (extra links) — recast puts it in
  // both.
  const graph::FrozenGraph g(test::MakeFigure4Database());
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult stage1, PerfectTypingViaGfp(g));
  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] != kInvalidType) homes[o] = {stage1.home[o]};
  }
  ASSERT_OK_AND_ASSIGN(RecastResult r, Recast(stage1.program, g, homes));
  graph::ObjectId o4 = Obj(g, "o4");
  EXPECT_EQ(r.assignment.TypesOf(o4).size(), 2u);

  RecastOptions no_extra;
  no_extra.add_gfp_types = false;
  ASSERT_OK_AND_ASSIGN(RecastResult r2,
                       Recast(stage1.program, g, homes, no_extra));
  EXPECT_EQ(r2.assignment.TypesOf(o4).size(), 1u);
}

TEST(RecastTest, ObjectPictureReflectsNeighborTypes) {
  const graph::FrozenGraph g(test::MakeFigure4Database());
  TypeAssignment tau(g.NumObjects());
  tau.Assign(Obj(g, "o2"), 7);
  TypeSignature pic = ObjectPicture(g, tau, Obj(g, "o1"));
  graph::LabelId a = g.labels().Find("a");
  EXPECT_TRUE(pic.Contains(TypedLink::Out(a, 7)));
  // Neighbors without assigned types contribute nothing.
  EXPECT_EQ(pic.size(), 1u);

  // o2's picture: incoming a from (unassigned) o1 is dropped; outgoing b
  // to atomic stays.
  TypeSignature pic2 = ObjectPicture(g, tau, Obj(g, "o2"));
  graph::LabelId b = g.labels().Find("b");
  EXPECT_TRUE(pic2.Contains(TypedLink::OutAtomic(b)));
  EXPECT_EQ(pic2.size(), 1u);
}

TEST(RecastTest, NearestTypeFallback) {
  // A program with a single type "has a and b"; an object with only `a`
  // fits nothing exactly and falls back to the nearest type.
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("x", "1"));
  ASSERT_OK(b.Edge("lonely", "a", "x"));
  util::Status st;
  graph::DataGraph built = std::move(b).Build(&st);
  ASSERT_OK(st);
  graph::LabelId a = built.labels().Find("a");
  graph::LabelId bb = built.InternLabel("b");
  const graph::FrozenGraph g(built);
  TypingProgram p;
  p.AddType("t", TypeSignature::FromLinks(
                     {TypedLink::OutAtomic(a), TypedLink::OutAtomic(bb)}));

  std::vector<std::vector<TypeId>> no_homes(g.NumObjects());
  graph::ObjectId lonely = Obj(g, "lonely");
  ASSERT_OK_AND_ASSIGN(RecastResult r, Recast(p, g, no_homes));
  EXPECT_EQ(r.num_exact, 0u);
  EXPECT_EQ(r.num_fallback, 1u);
  EXPECT_TRUE(r.assignment.Has(lonely, 0));

  RecastOptions strict;
  strict.nearest_type_fallback = false;
  ASSERT_OK_AND_ASSIGN(RecastResult r2, Recast(p, g, no_homes, strict));
  EXPECT_EQ(r2.num_untyped, 1u);
  EXPECT_TRUE(r2.assignment.TypesOf(lonely).empty());
}

TEST(RecastTest, NearestTypeDistanceReported) {
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("x", "1"));
  ASSERT_OK(b.Edge("o", "a", "x"));
  util::Status st;
  graph::DataGraph built = std::move(b).Build(&st);
  ASSERT_OK(st);
  graph::LabelId a = built.labels().Find("a");
  graph::LabelId c = built.InternLabel("c");
  const graph::FrozenGraph g(built);
  TypingProgram p;
  p.AddType("far", TypeSignature::FromLinks(
                       {TypedLink::OutAtomic(c)}));                 // d = 2
  p.AddType("near", TypeSignature::FromLinks(
                        {TypedLink::OutAtomic(a),
                         TypedLink::OutAtomic(c)}));                // d = 1
  TypeAssignment tau(g.NumObjects());
  size_t dist = 0;
  TypeId t = NearestType(p, g, tau, Obj(g, "o"), &dist);
  EXPECT_EQ(t, 1);
  EXPECT_EQ(dist, 1u);
}

TEST(RecastTest, NearestTypeTieBreaksLowestId) {
  graph::DataGraph g;
  g.AddComplex("o");
  graph::LabelId a = g.InternLabel("a");
  graph::LabelId b = g.InternLabel("b");
  TypingProgram p;
  p.AddType("t0", TypeSignature::FromLinks({TypedLink::OutAtomic(a)}));
  p.AddType("t1", TypeSignature::FromLinks({TypedLink::OutAtomic(b)}));
  TypeAssignment tau(1);
  EXPECT_EQ(NearestType(p, graph::FrozenGraph(g), tau, 0), 0);
}

TEST(RecastTest, EmptyProgram) {
  const graph::FrozenGraph g(test::MakeFigure2Database());
  TypingProgram empty;
  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  ASSERT_OK_AND_ASSIGN(RecastResult r, Recast(empty, g, homes));
  EXPECT_EQ(r.num_untyped, g.NumComplexObjects());
  TypeAssignment tau(g.NumObjects());
  EXPECT_EQ(NearestType(empty, g, tau, 0), kInvalidType);
}

TEST(RecastTest, HomesKeptEvenWhenUnsatisfied) {
  // An object whose home requirements are not witnessed keeps the home —
  // the gap shows up as deficit, not as a dropped assignment (§6).
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("x", "1"));
  ASSERT_OK(b.Edge("o", "a", "x"));
  util::Status st;
  graph::DataGraph built = std::move(b).Build(&st);
  ASSERT_OK(st);
  graph::LabelId a = built.labels().Find("a");
  graph::LabelId m = built.InternLabel("missing");
  const graph::FrozenGraph g(built);
  TypingProgram p;
  p.AddType("t", TypeSignature::FromLinks(
                     {TypedLink::OutAtomic(a), TypedLink::OutAtomic(m)}));
  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  graph::ObjectId o = Obj(g, "o");
  homes[o] = {0};
  ASSERT_OK_AND_ASSIGN(RecastResult r, Recast(p, g, homes));
  EXPECT_TRUE(r.assignment.Has(o, 0));
  EXPECT_EQ(r.num_exact, 0u);
  EXPECT_EQ(r.num_fallback, 0u);  // home made a fallback unnecessary
}

}  // namespace
}  // namespace schemex::typing

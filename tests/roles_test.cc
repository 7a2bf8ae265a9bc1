#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "typing/perfect_typing.h"
#include "typing/roles.h"

namespace schemex::typing {
namespace {

graph::ObjectId Obj(const graph::FrozenGraph& g, const char* name) {
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.Name(o) == name) return o;
  }
  return graph::kInvalidObject;
}

class Example43 : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = graph::FrozenGraph(test::MakeFigure5Database());
    auto stage1 = PerfectTypingViaGfp(g_);
    ASSERT_TRUE(stage1.ok()) << stage1.status();
    perfect_ = std::move(stage1).value();
    ASSERT_EQ(perfect_.program.NumTypes(), 3u);
    soccer_ = perfect_.home[Obj(g_, "o1")];
    both_ = perfect_.home[Obj(g_, "o2")];
    movie_ = perfect_.home[Obj(g_, "o3")];
  }

  graph::FrozenGraph g_;
  PerfectTypingResult perfect_;
  TypeId soccer_, both_, movie_;
};

TEST_F(Example43, GfpExtentsMatchPaper) {
  // "type1 contains o1 and o2; type2 contains o2; type3 contains o2 and
  // o3."
  ASSERT_OK_AND_ASSIGN(Extents m, PerfectTypingExtents(perfect_, g_));
  EXPECT_TRUE(m.Contains(soccer_, Obj(g_, "o1")));
  EXPECT_TRUE(m.Contains(soccer_, Obj(g_, "o2")));
  EXPECT_FALSE(m.Contains(soccer_, Obj(g_, "o3")));
  EXPECT_EQ(m.per_type[static_cast<size_t>(both_)].Count(), 1u);
  EXPECT_TRUE(m.Contains(movie_, Obj(g_, "o2")));
  EXPECT_TRUE(m.Contains(movie_, Obj(g_, "o3")));
}

TEST_F(Example43, CompositeTypeEliminated) {
  // o2's type (soccer+movie star) = union of the two simpler types, so
  // the roles pass removes it and o2 becomes a multi-role object.
  RoleDecomposition d = DecomposeRoles(perfect_.program);
  EXPECT_EQ(d.num_eliminated, 1u);
  EXPECT_EQ(d.program.NumTypes(), 2u);
  EXPECT_EQ(d.type_map[static_cast<size_t>(both_)], kInvalidType);
  ASSERT_EQ(d.covers[static_cast<size_t>(both_)].size(), 2u);

  auto homes = d.MapHomes(perfect_.home);
  EXPECT_EQ(homes[Obj(g_, "o1")].size(), 1u);
  EXPECT_EQ(homes[Obj(g_, "o2")].size(), 2u);  // both roles
  EXPECT_EQ(homes[Obj(g_, "o3")].size(), 1u);
  // o2's roles are exactly o1's and o3's home types (in new ids).
  EXPECT_EQ(homes[Obj(g_, "o2")][0], homes[Obj(g_, "o1")][0]);
  EXPECT_EQ(homes[Obj(g_, "o2")][1], homes[Obj(g_, "o3")][0]);

  ASSERT_OK(d.program.Validate());
}

TEST_F(Example43, MinCoverSizeGuardsDecomposition) {
  // Requiring covers of >= 3 types leaves everything in place.
  RoleDecomposition d = DecomposeRoles(perfect_.program, 3);
  EXPECT_EQ(d.num_eliminated, 0u);
  EXPECT_EQ(d.program.NumTypes(), 3u);
}

TEST(RolesTest, NoSpuriousDecomposition) {
  // Figure 2's two types do not cover each other: nothing is eliminated.
  const graph::FrozenGraph g(test::MakeFigure2Database());
  auto stage1 = PerfectTypingViaGfp(g);
  ASSERT_TRUE(stage1.ok());
  RoleDecomposition d = DecomposeRoles(stage1->program);
  EXPECT_EQ(d.num_eliminated, 0u);
  EXPECT_EQ(d.program.NumTypes(), 2u);
  // Surviving ids map through unchanged.
  EXPECT_EQ(d.type_map[0], 0);
  EXPECT_EQ(d.type_map[1], 1);
}

TEST(RolesTest, ReferencesToEliminatedTypeRemapped) {
  // A type pointing at the eliminated composite keeps a valid target.
  graph::LabelInterner labels;
  graph::LabelId a = labels.Intern("a");
  graph::LabelId b = labels.Intern("b");
  graph::LabelId r = labels.Intern("r");
  TypingProgram p;
  TypeId t_a = p.AddType("ta", TypeSignature::FromLinks(
                                   {TypedLink::OutAtomic(a)}));
  TypeId t_b = p.AddType("tb", TypeSignature::FromLinks(
                                   {TypedLink::OutAtomic(b)}));
  TypeId t_ab = p.AddType(
      "tab", TypeSignature::FromLinks(
                 {TypedLink::OutAtomic(a), TypedLink::OutAtomic(b)}));
  TypeId t_ref = p.AddType("tref", TypeSignature::FromLinks(
                                       {TypedLink::Out(r, t_ab)}));
  (void)t_a;
  (void)t_b;
  RoleDecomposition d = DecomposeRoles(p);
  EXPECT_EQ(d.type_map[static_cast<size_t>(t_ab)], kInvalidType);
  TypeId new_ref = d.type_map[static_cast<size_t>(t_ref)];
  ASSERT_NE(new_ref, kInvalidType);
  ASSERT_OK(d.program.Validate());
  // The reference now targets one of the cover members (both have size-1
  // signatures; the "largest" rule picks the first of equal size).
  const TypeSignature& sig = d.program.type(new_ref).signature;
  ASSERT_EQ(sig.size(), 1u);
  EXPECT_EQ(sig.links()[0].label, r);
  EXPECT_NE(sig.links()[0].target, kInvalidType);
}

TEST(RolesTest, ChainedCoversResolveTransitively) {
  // t_abc ⊃ t_ab ⊃ {t_a, t_b}; t_abc covered by {t_ab, t_c}; t_ab itself
  // covered by {t_a, t_b}. Final cover of t_abc: {t_a, t_b, t_c}.
  graph::LabelInterner labels;
  graph::LabelId a = labels.Intern("a");
  graph::LabelId b = labels.Intern("b");
  graph::LabelId c = labels.Intern("c");
  TypingProgram p;
  p.AddType("ta", TypeSignature::FromLinks({TypedLink::OutAtomic(a)}));
  p.AddType("tb", TypeSignature::FromLinks({TypedLink::OutAtomic(b)}));
  p.AddType("tc", TypeSignature::FromLinks({TypedLink::OutAtomic(c)}));
  p.AddType("tab", TypeSignature::FromLinks(
                       {TypedLink::OutAtomic(a), TypedLink::OutAtomic(b)}));
  TypeId t_abc = p.AddType(
      "tabc",
      TypeSignature::FromLinks({TypedLink::OutAtomic(a),
                                TypedLink::OutAtomic(b),
                                TypedLink::OutAtomic(c)}));
  RoleDecomposition d = DecomposeRoles(p);
  EXPECT_EQ(d.num_eliminated, 2u);  // tab and tabc
  EXPECT_EQ(d.program.NumTypes(), 3u);
  EXPECT_EQ(d.covers[static_cast<size_t>(t_abc)].size(), 3u);
}

TEST(RolesTest, SingletonSignaturesNeverEliminated) {
  graph::LabelInterner labels;
  graph::LabelId a = labels.Intern("a");
  TypingProgram p;
  p.AddType("t1", TypeSignature::FromLinks({TypedLink::OutAtomic(a)}));
  p.AddType("t2", TypeSignature::FromLinks({TypedLink::OutAtomic(a)}));
  RoleDecomposition d = DecomposeRoles(p);
  EXPECT_EQ(d.num_eliminated, 0u);
}

}  // namespace
}  // namespace schemex::typing

#include <gtest/gtest.h>

#include <algorithm>

#include "extract/extractor.h"
#include "gen/dbg.h"
#include "query/path_query.h"
#include "query/schema_guide.h"
#include "tests/test_util.h"
#include "typing/defect.h"
#include "typing/perfect_typing.h"

namespace schemex::query {
namespace {

TEST(ParsePathQueryTest, Steps) {
  ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery("author.name"));
  ASSERT_EQ(q.steps.size(), 2u);
  EXPECT_EQ(q.steps[0].kind, PathStep::Kind::kLabel);
  EXPECT_EQ(q.steps[0].label, "author");

  ASSERT_OK_AND_ASSIGN(PathQuery q2, ParsePathQuery("*.%.name"));
  EXPECT_EQ(q2.steps[0].kind, PathStep::Kind::kAnyOne);
  EXPECT_EQ(q2.steps[1].kind, PathStep::Kind::kAnyStar);

  EXPECT_FALSE(ParsePathQuery("").ok());
  EXPECT_FALSE(ParsePathQuery("a..b").ok());
  EXPECT_FALSE(ParsePathQuery("  ").ok());
}

class Figure2Query : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = graph::FrozenGraph(test::MakeFigure2Database());
  }

  graph::ObjectId Obj(const char* name) {
    for (graph::ObjectId o = 0; o < g_.NumObjects(); ++o) {
      if (g_.Name(o) == name) return o;
    }
    return graph::kInvalidObject;
  }

  graph::FrozenGraph g_;
};

TEST_F(Figure2Query, SingleLabel) {
  ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery("is-manager-of"));
  auto hits = EvaluatePathQuery(g_, q);
  EXPECT_EQ(hits,
            (std::vector<graph::ObjectId>{Obj("m"), Obj("a")}));
}

TEST_F(Figure2Query, TwoStepPath) {
  ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery("is-manager-of.name"));
  auto hits = EvaluatePathQuery(g_, q);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(g_.Value(hits[0]), "Microsoft");
  EXPECT_EQ(g_.Value(hits[1]), "Apple");
}

TEST_F(Figure2Query, ExplicitStartSet) {
  ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery("name"));
  auto hits = EvaluatePathQuery(g_, q, {Obj("g")});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(g_.Value(hits[0]), "Gates");
}

TEST_F(Figure2Query, WildcardsAndClosure) {
  ASSERT_OK_AND_ASSIGN(PathQuery star, ParsePathQuery("*"));
  // One step of any label from anywhere: all objects with incoming edges.
  EXPECT_EQ(EvaluatePathQuery(g_, star).size(), 8u);

  ASSERT_OK_AND_ASSIGN(PathQuery closure, ParsePathQuery("%"));
  // Zero-or-more from every complex object: everything reachable
  // including the starts.
  EXPECT_EQ(EvaluatePathQuery(g_, closure).size(), 8u);

  ASSERT_OK_AND_ASSIGN(PathQuery combo, ParsePathQuery("%.name"));
  EXPECT_EQ(EvaluatePathQuery(g_, combo).size(), 4u);
}

TEST_F(Figure2Query, MissingLabelShortCircuits) {
  ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery("nope.name"));
  QueryStats stats;
  EXPECT_TRUE(EvaluatePathQuery(g_, q, {}, &stats).empty());
}

TEST(SchemaGuideTest, PerfectTypingPruningIsExact) {
  // Zero-excess assignment => pruned evaluation returns exactly the
  // unpruned result, while visiting fewer objects.
  auto g = graph::Freeze(*gen::MakeDbgDataset());
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaGfp(*g));
  // Assignment = homes (complete, zero excess by construction).
  typing::TypeAssignment tau(g->NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] != typing::kInvalidType) {
      tau.Assign(static_cast<graph::ObjectId>(o), stage1.home[o]);
    }
  }
  ASSERT_EQ(
      typing::ComputeExcess(stage1.program, *g, tau, false, nullptr), 0u);

  SchemaGuide guide(stage1.program, tau);
  for (const char* text : {"author.name", "advisor.email", "birthday.month",
                           "project_member.name", "author.%"}) {
    ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery(text));
    QueryStats full_stats, pruned_stats;
    auto full = EvaluatePathQuery(*g, q, {}, &full_stats);
    auto pruned = guide.Evaluate(*g, q, &pruned_stats);
    EXPECT_EQ(full, pruned) << text;
    EXPECT_LE(pruned_stats.objects_visited, full_stats.objects_visited)
        << text;
  }
}

TEST(SchemaGuideTest, StartTypesFollowSchemaEdges) {
  // person = {->pet^dog}; dog = {->name^0}: "pet.name" starts at person
  // only.
  graph::LabelInterner labels;
  graph::DataGraph g;
  graph::ObjectId p = g.AddComplex("p");
  graph::ObjectId d = g.AddComplex("d");
  graph::ObjectId v = g.AddAtomic("rex");
  (void)g.AddEdge(p, d, "pet");
  (void)g.AddEdge(d, v, "name");

  typing::TypingProgram program;
  typing::TypeId dog = program.AddType("dog", {});
  typing::TypeId person = program.AddType("person", {});
  program.type(person).signature = typing::TypeSignature::FromLinks(
      {typing::TypedLink::Out(g.labels().Find("pet"), dog)});
  program.type(dog).signature = typing::TypeSignature::FromLinks(
      {typing::TypedLink::OutAtomic(g.labels().Find("name"))});
  typing::TypeAssignment tau(g.NumObjects());
  tau.Assign(p, person);
  tau.Assign(d, dog);
  const graph::FrozenGraph f(g);

  SchemaGuide guide(program, tau);
  ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery("pet.name"));
  EXPECT_EQ(guide.StartTypes(f, q), (std::vector<typing::TypeId>{person}));
  EXPECT_EQ(guide.StartCandidates(f, q),
            (std::vector<graph::ObjectId>{p}));
  auto hits = guide.Evaluate(f, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(f.Value(hits[0]), "rex");

  // Incoming typed links also induce schema edges: if dog instead
  // declares <-pet^person, the same start types result.
  typing::TypingProgram program2;
  typing::TypeId dog2 = program2.AddType("dog", {});
  typing::TypeId person2 = program2.AddType("person", {});
  program2.type(dog2).signature = typing::TypeSignature::FromLinks(
      {typing::TypedLink::In(g.labels().Find("pet"), person2),
       typing::TypedLink::OutAtomic(g.labels().Find("name"))});
  SchemaGuide guide2(program2, tau);
  auto starts = guide2.StartTypes(f, q);
  EXPECT_EQ(starts, (std::vector<typing::TypeId>{person2}));
}

TEST(SchemaGuideTest, ApproximateSchemaMayUnderReport) {
  // An object with an EXCESS edge (not described by its type) reaches a
  // result the schema cannot see — documenting the guide's contract.
  graph::DataGraph g;
  graph::ObjectId a = g.AddComplex("a");
  graph::ObjectId b = g.AddComplex("b");
  graph::ObjectId v = g.AddAtomic("x");
  (void)g.AddEdge(a, b, "secret");  // excess: no rule mentions it
  (void)g.AddEdge(b, v, "name");

  typing::TypingProgram program;
  typing::TypeId tb = program.AddType(
      "tb", typing::TypeSignature::FromLinks(
                {typing::TypedLink::OutAtomic(g.labels().Find("name"))}));
  typing::TypeId ta = program.AddType("ta", {});
  typing::TypeAssignment tau(g.NumObjects());
  tau.Assign(a, ta);
  tau.Assign(b, tb);
  const graph::FrozenGraph f(g);

  SchemaGuide guide(program, tau);
  ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery("secret.name"));
  auto full = EvaluatePathQuery(f, q);
  EXPECT_EQ(full.size(), 1u);
  EXPECT_TRUE(guide.Evaluate(f, q).empty());  // pruned away — as specified
}

TEST(SchemaGuideTest, AnyStarClosureOverSchema) {
  auto g = graph::Freeze(*gen::MakeDbgDataset());
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*g);
  ASSERT_TRUE(r.ok());
  SchemaGuide guide(r->final_program, r->recast.assignment);
  ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery("%.postscript"));
  // Every type that can reach publication via any path qualifies; at
  // minimum the publication type itself.
  EXPECT_FALSE(guide.StartTypes(*g, q).empty());
}

TEST(ValueFilterTest, ParseForms) {
  ASSERT_OK_AND_ASSIGN(PathQuery q,
                       ParsePathQuery(R"([name="Gates"].email)"));
  ASSERT_EQ(q.steps.size(), 2u);
  EXPECT_EQ(q.steps[0].kind, PathStep::Kind::kFilterOnly);
  ASSERT_TRUE(q.steps[0].filter.has_value());
  EXPECT_EQ(q.steps[0].filter->attr, "name");
  EXPECT_EQ(q.steps[0].filter->value, "Gates");
  EXPECT_EQ(q.steps[1].label, "email");

  ASSERT_OK_AND_ASSIGN(PathQuery q2,
                       ParsePathQuery(R"(member[dept="c.s"].phone)"));
  ASSERT_EQ(q2.steps.size(), 2u);
  EXPECT_EQ(q2.steps[0].kind, PathStep::Kind::kLabel);
  EXPECT_EQ(q2.steps[0].label, "member");
  EXPECT_EQ(q2.steps[0].filter->value, "c.s");  // dot inside filter ok

  EXPECT_FALSE(ParsePathQuery("a[b]").ok());           // no '='
  EXPECT_FALSE(ParsePathQuery("a[b=c]").ok());         // unquoted value
  EXPECT_FALSE(ParsePathQuery("a[b=\"c]").ok());        // unterminated
  EXPECT_FALSE(ParsePathQuery("a[x[y]]").ok());        // nested
  EXPECT_FALSE(ParsePathQuery("a]b").ok());            // stray
}

TEST(ValueFilterTest, FiltersTraversalResults) {
  const graph::FrozenGraph g(test::MakeFigure2Database());
  // Firms managed by someone named Gates: start filter + traversal.
  ASSERT_OK_AND_ASSIGN(PathQuery q,
                       ParsePathQuery(R"([name="Gates"].is-manager-of)"));
  auto hits = EvaluatePathQuery(g, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(g.Name(hits[0]), "m");

  // Post-traversal filter: manager targets whose name is Apple.
  ASSERT_OK_AND_ASSIGN(PathQuery q2,
                       ParsePathQuery(R"(is-manager-of[name="Apple"])"));
  auto hits2 = EvaluatePathQuery(g, q2);
  ASSERT_EQ(hits2.size(), 1u);
  EXPECT_EQ(g.Name(hits2[0]), "a");

  // No match: filter drains the frontier.
  ASSERT_OK_AND_ASSIGN(PathQuery q3,
                       ParsePathQuery(R"([name="Nobody"].is-manager-of)"));
  EXPECT_TRUE(EvaluatePathQuery(g, q3).empty());

  // Unknown attribute label: everything filtered out.
  ASSERT_OK_AND_ASSIGN(PathQuery q4, ParsePathQuery(R"([zzz="x"])"));
  EXPECT_TRUE(EvaluatePathQuery(g, q4).empty());
}

TEST(ValueFilterTest, SchemaGuideIgnoresFiltersSoundly) {
  auto g = graph::Freeze(*gen::MakeDbgDataset());
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaGfp(*g));
  typing::TypeAssignment tau(g->NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] != typing::kInvalidType) {
      tau.Assign(static_cast<graph::ObjectId>(o), stage1.home[o]);
    }
  }
  SchemaGuide guide(stage1.program, tau);
  // Filtered query under zero-excess typing: still exact.
  ASSERT_OK_AND_ASSIGN(PathQuery q,
                       ParsePathQuery(R"(author[name="x"].%)"));
  auto full = EvaluatePathQuery(*g, q);
  auto pruned = guide.Evaluate(*g, q);
  EXPECT_EQ(full, pruned);
}

}  // namespace
}  // namespace schemex::query

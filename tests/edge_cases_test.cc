// Edge cases and option combinations not covered by the module tests.

#include <gtest/gtest.h>

#include <sstream>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "gen/spec.h"
#include "graph/graph_stats.h"
#include "tests/test_util.h"
#include "typing/assignment.h"
#include "typing/gfp.h"
#include "typing/typing_program.h"
#include "util/bitset.h"
#include "util/status.h"

namespace schemex {
namespace {

TEST(EvaluatorOptionsTest, SeedAllObjectsIncludesAtomics) {
  // With seed_complex_only = false, a rule demanding only incoming links
  // can be satisfied by an atomic object.
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("leaf", "v"));
  ASSERT_OK(b.Edge("root", "has", "leaf"));
  util::Status st;
  graph::DataGraph built = std::move(b).Build(&st);
  ASSERT_OK(st);
  ASSERT_OK_AND_ASSIGN(
      datalog::Program p,
      datalog::ParseProgram("pointed(X) :- link(Y, X, has).",
                            &built.labels()));
  const graph::FrozenGraph g(built);

  ASSERT_OK_AND_ASSIGN(datalog::Interpretation def, datalog::Evaluate(p, g));
  EXPECT_EQ(def.extents[0].Count(), 0u);  // leaf excluded by default

  datalog::EvalOptions all;
  all.seed_complex_only = false;
  ASSERT_OK_AND_ASSIGN(datalog::Interpretation wide,
                       datalog::Evaluate(p, g, all));
  EXPECT_EQ(wide.extents[0].Count(), 1u);
}

TEST(EvaluatorOptionsTest, InvalidProgramRejected) {
  const graph::FrozenGraph g(test::MakeFigure2Database());
  datalog::Program p;
  datalog::PredId t = p.AddPred("t");
  p.rules.push_back(datalog::Rule{t, 1, {datalog::Atom::Idb(99, 0)}});
  EXPECT_FALSE(datalog::Evaluate(p, g).ok());
}

TEST(BitsetEdgeTest, ZeroSizeAndExactWordBoundaries) {
  util::DenseBitset empty(0);
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_TRUE(empty.None());
  empty.SetAll();  // must not crash or set phantom bits
  EXPECT_EQ(empty.Count(), 0u);

  util::DenseBitset exact(64);
  exact.SetAll();
  EXPECT_EQ(exact.Count(), 64u);
  exact.Clear(63);
  EXPECT_EQ(exact.Count(), 63u);

  util::DenseBitset resized;
  resized.Resize(65, true);
  EXPECT_EQ(resized.Count(), 65u);
}

TEST(BitsetEdgeTest, ForEachOrderAndEquality) {
  util::DenseBitset a(130), b(130);
  for (size_t i : {0u, 63u, 64u, 127u, 129u}) {
    a.Set(i);
    b.Set(i);
  }
  EXPECT_EQ(a, b);
  b.Clear(64);
  EXPECT_FALSE(a == b);
}

TEST(AssignmentEdgeTest, ResizeKeepsExisting) {
  typing::TypeAssignment tau(2);
  tau.Assign(1, 5);
  tau.Resize(4);
  EXPECT_TRUE(tau.Has(1, 5));
  EXPECT_TRUE(tau.TypesOf(3).empty());
  tau.Resize(1);
  EXPECT_EQ(tau.NumObjects(), 1u);
}

TEST(GfpEdgeTest, EmptyProgramAndEmptyGraph) {
  graph::DataGraph g;
  typing::TypingProgram p;
  ASSERT_OK_AND_ASSIGN(typing::Extents m,
                       typing::ComputeGfp(p, graph::FrozenGraph(g)));
  EXPECT_TRUE(m.per_type.empty());

  g.AddComplex("x");
  typing::TypingProgram p2;
  p2.AddType("t", {});
  ASSERT_OK_AND_ASSIGN(typing::Extents m2,
                       typing::ComputeGfp(p2, graph::FrozenGraph(g)));
  EXPECT_EQ(m2.per_type[0].Count(), 1u);  // empty body matches everything
}

TEST(GfpEdgeTest, SelfReferentialType) {
  // t = {->next^t}: on a cycle everyone stays; on a chain everyone
  // drains (the last object has no next in t).
  graph::GraphBuilder cyc;
  ASSERT_OK(cyc.Edge("a", "next", "b"));
  ASSERT_OK(cyc.Edge("b", "next", "a"));
  util::Status st;
  const graph::FrozenGraph gc(std::move(cyc).Build(&st));
  ASSERT_OK(st);
  typing::TypingProgram p;
  typing::TypeId t = p.AddType("t", {});
  p.type(t).signature = typing::TypeSignature::FromLinks(
      {typing::TypedLink::Out(gc.labels().Find("next"), t)});
  ASSERT_OK_AND_ASSIGN(typing::Extents mc, typing::ComputeGfp(p, gc));
  EXPECT_EQ(mc.per_type[0].Count(), 2u);

  graph::GraphBuilder chain;
  ASSERT_OK(chain.Edge("a", "next", "b"));
  ASSERT_OK(chain.Edge("b", "next", "c"));
  const graph::FrozenGraph gl(std::move(chain).Build(&st));
  ASSERT_OK(st);
  typing::TypingProgram p2;
  typing::TypeId t2 = p2.AddType("t", {});
  p2.type(t2).signature = typing::TypeSignature::FromLinks(
      {typing::TypedLink::Out(gl.labels().Find("next"), t2)});
  ASSERT_OK_AND_ASSIGN(typing::Extents ml, typing::ComputeGfp(p2, gl));
  EXPECT_EQ(ml.per_type[0].Count(), 0u);
}

TEST(GraphStatsTest, EmptyGraph) {
  const graph::FrozenGraph g;
  graph::GraphStats s = graph::ComputeStats(g);
  EXPECT_EQ(s.num_objects, 0u);
  EXPECT_TRUE(s.bipartite);  // vacuously
  EXPECT_EQ(s.avg_out_degree, 0.0);
  EXPECT_FALSE(s.ToString(g).empty());
}

TEST(StatusStreamTest, OperatorOutput) {
  std::ostringstream os;
  os << util::Status::NotFound("gone");
  EXPECT_EQ(os.str(), "NotFound: gone");
}

TEST(GenerateEdgeTest, SelfLoopAvoidanceWithSingleTarget) {
  // A type whose links target itself with count 1: the only candidate
  // target is the object itself; generation must not spin forever and
  // may produce a self loop (allowed by the model).
  gen::DatasetSpec spec;
  spec.types.push_back(gen::TypeSpec{"solo", 1, {{"self", 0, 1.0}}});
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 1));
  ASSERT_OK(g.Validate());
  EXPECT_LE(g.NumEdges(), 1u);
}

TEST(TypingProgramEdgeTest, EmptySignatureCountsNoLinks) {
  typing::TypingProgram p;
  p.AddType("empty", {});
  EXPECT_EQ(p.TotalTypedLinks(), 0u);
  EXPECT_EQ(p.NumDistinctTypedLinks(), 0u);
  ASSERT_OK(p.Validate());
  datalog::Program d = p.ToDatalog();
  EXPECT_TRUE(d.rules[0].body.empty());
  ASSERT_OK_AND_ASSIGN(typing::TypingProgram back,
                       typing::TypingProgram::FromDatalog(d));
  EXPECT_TRUE(back.type(0).signature.empty());
}

}  // namespace
}  // namespace schemex

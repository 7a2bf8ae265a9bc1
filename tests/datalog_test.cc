#include <gtest/gtest.h>

#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/printer.h"
#include "tests/test_util.h"

namespace schemex::datalog {
namespace {

constexpr const char* kFigure2Program = R"(
% The paper's program P0.
person(X) :- link(X, Y, "is-manager-of"), firm(Y),
             link(X, Z, "name"), atomic(Z, V).
firm(X)   :- link(X, Y, "is-managed-by"), person(Y),
             link(X, Z, "name"), atomic(Z, V).
)";

TEST(ParserTest, ParsesFigure2Program) {
  graph::DataGraph g = test::MakeFigure2Database();
  ASSERT_OK_AND_ASSIGN(Program p, ParseProgram(kFigure2Program, &g.labels()));
  EXPECT_EQ(p.num_preds(), 2u);
  EXPECT_EQ(p.rules.size(), 2u);
  EXPECT_EQ(p.FindPred("person"), 0);
  EXPECT_EQ(p.FindPred("firm"), 1);
  EXPECT_EQ(p.rules[0].body.size(), 4u);
  ASSERT_OK(p.Validate());
  EXPECT_TRUE(p.IsRecursive());
}

TEST(ParserTest, BareLabelsAndAnonValue) {
  graph::LabelInterner labels;
  ASSERT_OK_AND_ASSIGN(
      Program p, ParseProgram("t(X) :- link(X, Y, name), atomic(Y).",
                              &labels));
  EXPECT_EQ(p.rules[0].body.size(), 2u);
  EXPECT_EQ(p.rules[0].body[1].arg1, kAnonVar);
  EXPECT_NE(labels.Find("name"), graph::kInvalidLabel);
}

TEST(ParserTest, RejectsMalformedInput) {
  graph::LabelInterner labels;
  EXPECT_FALSE(ParseProgram("t(X) :- link(X, Y).", &labels).ok());
  EXPECT_FALSE(ParseProgram("t(X) :- t2(Y)", &labels).ok());  // missing dot
  EXPECT_FALSE(ParseProgram("link(X) :- atomic(X).", &labels).ok());
  EXPECT_FALSE(ParseProgram("t(x) :- atomic(x).", &labels).ok());  // lowercase head var
  EXPECT_FALSE(ParseProgram("t(_) :- atomic(X).", &labels).ok());
  EXPECT_FALSE(ParseProgram("t(X) :- link(_, X, a).", &labels).ok());
  EXPECT_FALSE(ParseProgram("t(X) : atomic(X).", &labels).ok());
  EXPECT_FALSE(ParseProgram("t(X) :- atomic(X", &labels).ok());
  EXPECT_FALSE(ParseProgram(R"(t(X) :- link(X, Y, "unterminated).)", &labels)
                   .ok());
}

TEST(ParserTest, CommentsAndMultiRule) {
  graph::LabelInterner labels;
  ASSERT_OK_AND_ASSIGN(Program p, ParseProgram(R"(
# hash comment
a(X) :- link(X, Y, l1), b(Y).  % trailing
b(X) :- link(Y, X, l1), a(Y).
)",
                                               &labels));
  EXPECT_EQ(p.rules.size(), 2u);
  EXPECT_TRUE(p.IsRecursive());
}

TEST(PrinterTest, RoundTripsThroughParser) {
  graph::LabelInterner labels;
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram(
          "t1(X) :- link(X, Y, a), t2(Y), link(Z, X, b), atomic(W), "
          "link(X, W, c).\nt2(X) :- atomic(X).",
          &labels));
  std::string text = PrintProgram(p, labels);
  ASSERT_OK_AND_ASSIGN(Program p2, ParseProgram(text, &labels));
  EXPECT_EQ(PrintProgram(p2, labels), text);
}

TEST(AstTest, ValidateCatchesBadIndices) {
  Program p;
  PredId t = p.AddPred("t");
  Rule r;
  r.head_pred = t;
  r.num_vars = 1;
  r.body.push_back(Atom::Idb(5, 0));  // no such predicate
  p.rules.push_back(r);
  EXPECT_FALSE(p.Validate().ok());

  p.rules[0].body[0] = Atom::Idb(t, 3);  // variable out of range
  EXPECT_FALSE(p.Validate().ok());

  p.rules[0].body[0] = Atom::Link(0, 1, 0);  // var 1 not declared
  EXPECT_FALSE(p.Validate().ok());
}

TEST(AstTest, NonRecursiveProgramDetected) {
  graph::LabelInterner labels;
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram("a(X) :- link(X, Y, l), b(Y).\nb(X) :- atomic(X).",
                   &labels));
  EXPECT_FALSE(p.IsRecursive());
}

class Figure2Eval : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::DataGraph g = test::MakeFigure2Database();
    auto parsed = ParseProgram(kFigure2Program, &g.labels());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    p_ = std::move(parsed).value();
    g_ = graph::FrozenGraph(g);
  }

  graph::ObjectId Obj(const char* name) {
    for (graph::ObjectId o = 0; o < g_.NumObjects(); ++o) {
      if (g_.Name(o) == name) return o;
    }
    return graph::kInvalidObject;
  }

  graph::FrozenGraph g_;
  Program p_;
};

TEST_F(Figure2Eval, GreatestFixpointClassifiesEverything) {
  // The paper (§2): GFP = {person(g), person(j), firm(a), firm(m)}.
  ASSERT_OK_AND_ASSIGN(Interpretation m, Evaluate(p_, g_));
  PredId person = p_.FindPred("person");
  PredId firm = p_.FindPred("firm");
  EXPECT_TRUE(m.Contains(person, Obj("g")));
  EXPECT_TRUE(m.Contains(person, Obj("j")));
  EXPECT_FALSE(m.Contains(person, Obj("m")));
  EXPECT_FALSE(m.Contains(person, Obj("a")));
  EXPECT_TRUE(m.Contains(firm, Obj("m")));
  EXPECT_TRUE(m.Contains(firm, Obj("a")));
  EXPECT_FALSE(m.Contains(firm, Obj("g")));
  EXPECT_EQ(m.extents[person].Count(), 2u);
  EXPECT_EQ(m.extents[firm].Count(), 2u);
}

TEST_F(Figure2Eval, LeastFixpointFailsToClassify) {
  // The paper (§2): "for this program, a least fixpoint semantics would
  // fail to classify any object" — the mutual recursion has no base case.
  EvalOptions opts;
  opts.fixpoint = FixpointKind::kLeast;
  ASSERT_OK_AND_ASSIGN(Interpretation m, Evaluate(p_, g_, opts));
  EXPECT_TRUE(m.extents[0].None());
  EXPECT_TRUE(m.extents[1].None());
}

TEST_F(Figure2Eval, NonRecursiveLfpEqualsGfp) {
  // §2: for non-recursive programs the two fixpoints coincide.
  // A copy of the frozen (immutable) label table: `name` keeps its id.
  graph::LabelInterner labels = g_.labels();
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram("named(X) :- link(X, Y, name), atomic(Y).", &labels));
  ASSERT_OK_AND_ASSIGN(Interpretation gfp, Evaluate(p, g_));
  EvalOptions opts;
  opts.fixpoint = FixpointKind::kLeast;
  ASSERT_OK_AND_ASSIGN(Interpretation lfp, Evaluate(p, g_, opts));
  EXPECT_EQ(gfp, lfp);
  EXPECT_EQ(gfp.extents[0].Count(), 4u);  // g, j, m, a all have names
}

TEST_F(Figure2Eval, StatsReported) {
  EvalStats stats;
  ASSERT_OK_AND_ASSIGN(Interpretation m, Evaluate(p_, g_, {}, &stats));
  (void)m;
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.rule_checks, 0u);
}

TEST_F(Figure2Eval, MaxIterationsStopsEarly) {
  EvalOptions opts;
  opts.max_iterations = 1;
  EvalStats stats;
  ASSERT_OK_AND_ASSIGN(Interpretation m, Evaluate(p_, g_, opts, &stats));
  (void)m;
  EXPECT_EQ(stats.iterations, 1u);
}

TEST(EvaluatorTest, RuleSatisfiedDirectly) {
  graph::DataGraph built = test::MakeFigure2Database();
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram("boss(X) :- link(X, Y, "
                   "\"is-manager-of\"), link(Y, X, \"is-managed-by\").",
                   &built.labels()));
  const graph::FrozenGraph g(built);
  Interpretation m;
  m.extents.assign(1, util::DenseBitset(g.NumObjects()));
  graph::ObjectId gates = 0;  // first object added
  EXPECT_TRUE(RuleSatisfied(p.rules[0], g, m, gates));
  graph::ObjectId microsoft = 2;
  EXPECT_FALSE(RuleSatisfied(p.rules[0], g, m, microsoft));
}

TEST(EvaluatorTest, ValueJoinAcrossAtomicAtoms) {
  // twin(X): X has two different labels leading to atomics with the SAME
  // value — exercises value-variable joins.
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("p", "42"));
  ASSERT_OK(b.Atomic("q", "42"));
  ASSERT_OK(b.Atomic("r", "43"));
  ASSERT_OK(b.Edge("x", "u", "p"));
  ASSERT_OK(b.Edge("x", "v", "q"));
  ASSERT_OK(b.Edge("y", "u", "p"));
  ASSERT_OK(b.Edge("y", "v", "r"));
  util::Status st;
  graph::DataGraph built = std::move(b).Build(&st);
  ASSERT_OK(st);
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram("twin(X) :- link(X, Y, u), atomic(Y, V), "
                   "link(X, Z, v), atomic(Z, V).",
                   &built.labels()));
  const graph::FrozenGraph g(built);
  ASSERT_OK_AND_ASSIGN(Interpretation m, Evaluate(p, g));
  EXPECT_EQ(m.extents[0].Count(), 1u);
  graph::ObjectId x = graph::kInvalidObject;
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.Name(o) == "x") x = o;
  }
  EXPECT_TRUE(m.Contains(0, x));
}

TEST(EvaluatorTest, EmptyBodyMatchesAllComplexObjects) {
  const graph::FrozenGraph g(test::MakeFigure4Database());
  Program p;
  PredId any = p.AddPred("any");
  p.rules.push_back(Rule{any, 1, {}});
  ASSERT_OK_AND_ASSIGN(Interpretation m, Evaluate(p, g));
  EXPECT_EQ(m.extents[0].Count(), g.NumComplexObjects());
}

TEST(EvaluatorTest, PredicateWithoutRuleHasEmptyGfp) {
  graph::DataGraph built = test::MakeFigure4Database();
  // `ghost` is referenced but never defined: its extent must drain to
  // empty, and `t` (which requires a ghost neighbor) drains with it.
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram("t(X) :- link(X, Y, a), ghost(Y).", &built.labels()));
  const graph::FrozenGraph g(built);
  ASSERT_OK_AND_ASSIGN(Interpretation m, Evaluate(p, g));
  EXPECT_TRUE(m.extents[p.FindPred("ghost")].None());
  EXPECT_TRUE(m.extents[p.FindPred("t")].None());
}

TEST(EvaluatorTest, DisconnectedBodyComponent) {
  // q(X) holds iff X has label-a edge AND somewhere in the graph some
  // object has a c-edge to an atomic (disconnected existential).
  graph::DataGraph built = test::MakeFigure4Database();
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram("q(X) :- link(X, Y, b), atomic(Y), link(Z, W, c), "
                   "atomic(W).",
                   &built.labels()));
  const graph::FrozenGraph g(built);
  ASSERT_OK_AND_ASSIGN(Interpretation m, Evaluate(p, g));
  EXPECT_EQ(m.extents[0].Count(), 3u);  // o2, o3, o4 (o4 provides the c)
}

}  // namespace
}  // namespace schemex::datalog

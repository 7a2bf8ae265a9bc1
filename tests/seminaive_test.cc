#include <gtest/gtest.h>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "gen/random_graph.h"
#include "tests/test_util.h"

namespace schemex::datalog {
namespace {

EvalOptions SemiNaive() {
  EvalOptions o;
  o.fixpoint = FixpointKind::kLeast;
  o.strategy = Strategy::kSemiNaive;
  return o;
}

EvalOptions NaiveLfp() {
  EvalOptions o;
  o.fixpoint = FixpointKind::kLeast;
  return o;
}

TEST(SemiNaiveTest, TransitiveReachability) {
  // reach = base case (tagged start) + recursive step along `next`.
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("flag", "1"));
  ASSERT_OK(b.Edge("s", "start", "flag"));
  ASSERT_OK(b.Edge("s", "next", "a"));
  ASSERT_OK(b.Edge("a", "next", "c"));
  ASSERT_OK(b.Edge("c", "next", "d"));
  ASSERT_OK(b.Edge("z", "next", "q"));  // disconnected from s
  util::Status st;
  graph::DataGraph built = std::move(b).Build(&st);
  ASSERT_OK(st);
  // NOTE: reach(X) :- link(Y, X, next), reach(Y) — forward closure.
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram("reach(X) :- link(X, Y, start), atomic(Y).\n"
                   "reach(X) :- link(Y, X, next), reach(Y).",
                   &built.labels()));
  const graph::FrozenGraph g(built);
  EvalStats stats;
  ASSERT_OK_AND_ASSIGN(Interpretation m, Evaluate(p, g, SemiNaive(), &stats));
  EXPECT_EQ(m.extents[0].Count(), 4u);  // s, a, c, d
  EXPECT_GT(stats.delta_firings, 0u);

  ASSERT_OK_AND_ASSIGN(Interpretation naive, Evaluate(p, g, NaiveLfp()));
  EXPECT_EQ(m, naive);
}

TEST(SemiNaiveTest, MatchesNaiveOnRandomPrograms) {
  // Property: semi-naive LFP == naive LFP on perfect-typing programs
  // (mutually recursive, both link directions) over random graphs.
  for (uint64_t seed : {3u, 13u, 23u, 33u}) {
    gen::RandomGraphOptions opt;
    opt.num_complex = 40;
    opt.num_atomic = 25;
    opt.num_edges = 100;
    opt.num_labels = 4;
    opt.seed = seed;
    graph::DataGraph built = gen::RandomGraph(opt);
    // Non-recursive layered program: base facts then derived layers (the
    // LFP-meaningful shape; pure typing programs have empty LFPs).
    ASSERT_OK_AND_ASSIGN(
        Program p,
        ParseProgram(
            "leafy(X) :- link(X, Y, l0), atomic(Y).\n"
            "linker(X) :- link(X, Y, l1), leafy(Y).\n"
            "linked(X) :- link(Y, X, l2), linker(Y).\n"
            "hub(X) :- link(X, Y, l3), linked(Y), link(X, Z, l0), "
            "atomic(Z).",
            &built.labels()));
    const graph::FrozenGraph g(built);
    ASSERT_OK_AND_ASSIGN(Interpretation fast, Evaluate(p, g, SemiNaive()));
    ASSERT_OK_AND_ASSIGN(Interpretation slow, Evaluate(p, g, NaiveLfp()));
    EXPECT_EQ(fast, slow) << "seed " << seed;
  }
}

TEST(SemiNaiveTest, RecursiveProgramsWithEmptyLfp) {
  // Mutually recursive with no base case: LFP empty under both
  // strategies (the paper's Figure 2 observation).
  graph::DataGraph built = test::MakeFigure2Database();
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram("person(X) :- link(X, Y, \"is-manager-of\"), firm(Y).\n"
                   "firm(X) :- link(X, Y, \"is-managed-by\"), person(Y).",
                   &built.labels()));
  const graph::FrozenGraph g(built);
  ASSERT_OK_AND_ASSIGN(Interpretation m, Evaluate(p, g, SemiNaive()));
  EXPECT_TRUE(m.extents[0].None());
  EXPECT_TRUE(m.extents[1].None());
}

TEST(SemiNaiveTest, GfpRequestFallsBackToNaive) {
  graph::DataGraph built = test::MakeFigure2Database();
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram("named(X) :- link(X, Y, name), atomic(Y).",
                   &built.labels()));
  const graph::FrozenGraph g(built);
  EvalOptions opt;
  opt.strategy = Strategy::kSemiNaive;  // fixpoint stays kGreatest
  ASSERT_OK_AND_ASSIGN(Interpretation m, Evaluate(p, g, opt));
  EXPECT_EQ(m.extents[0].Count(), 4u);
}

TEST(SemiNaiveTest, DeltaFiringsFarBelowNaiveChecks) {
  // On a long chain, naive LFP re-checks every object every round
  // (O(n^2) probes); semi-naive only touches the frontier.
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("flag", "1"));
  ASSERT_OK(b.Edge("n0", "start", "flag"));
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK(b.Edge("n" + std::to_string(i), "next",
                     "n" + std::to_string(i + 1)));
  }
  util::Status st;
  graph::DataGraph built = std::move(b).Build(&st);
  ASSERT_OK(st);
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram("reach(X) :- link(X, Y, start), atomic(Y).\n"
                   "reach(X) :- link(Y, X, next), reach(Y).",
                   &built.labels()));
  const graph::FrozenGraph g(built);
  EvalStats fast_stats, slow_stats;
  ASSERT_OK_AND_ASSIGN(Interpretation fast,
                       Evaluate(p, g, SemiNaive(), &fast_stats));
  ASSERT_OK_AND_ASSIGN(Interpretation slow,
                       Evaluate(p, g, NaiveLfp(), &slow_stats));
  EXPECT_EQ(fast, slow);
  EXPECT_EQ(fast.extents[0].Count(), 61u);
  // Naive: ~61 rounds x 61 objects x 2 rules; semi-naive: ~61 firings +
  // one full scan.
  EXPECT_LT(fast_stats.delta_firings + fast_stats.rule_checks,
            slow_stats.rule_checks / 10);
}

TEST(SemiNaiveTest, HeadUnconstrainedRule) {
  // q(X) :- link(Y, Z, l), p(Y): the head variable is unconstrained;
  // once any witness exists, EVERY complex object derives q.
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("v", "1"));
  ASSERT_OK(b.Edge("a", "base", "v"));
  ASSERT_OK(b.Edge("a", "l", "c"));
  ASSERT_OK(b.Complex("idle"));
  util::Status st;
  graph::DataGraph built = std::move(b).Build(&st);
  ASSERT_OK(st);
  ASSERT_OK_AND_ASSIGN(
      Program p,
      ParseProgram("p(X) :- link(X, Y, base), atomic(Y).\n"
                   "q(X) :- link(Y, Z, l), p(Y).",
                   &built.labels()));
  const graph::FrozenGraph g(built);
  ASSERT_OK_AND_ASSIGN(Interpretation fast, Evaluate(p, g, SemiNaive()));
  ASSERT_OK_AND_ASSIGN(Interpretation slow, Evaluate(p, g, NaiveLfp()));
  EXPECT_EQ(fast, slow);
  EXPECT_EQ(fast.extents[p.FindPred("q")].Count(), g.NumComplexObjects());
}

}  // namespace
}  // namespace schemex::datalog

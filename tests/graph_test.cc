#include <gtest/gtest.h>

#include "graph/data_graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/label.h"
#include "tests/test_util.h"

namespace schemex::graph {
namespace {

TEST(LabelInternerTest, InternIsIdempotent) {
  LabelInterner li;
  LabelId a = li.Intern("alpha");
  LabelId b = li.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(li.Intern("alpha"), a);
  EXPECT_EQ(li.size(), 2u);
  EXPECT_EQ(li.Name(a), "alpha");
  EXPECT_EQ(li.Find("beta"), b);
  EXPECT_EQ(li.Find("gamma"), kInvalidLabel);
}

TEST(DataGraphTest, AddObjectsAndEdges) {
  DataGraph g;
  ObjectId c = g.AddComplex("c");
  ObjectId a = g.AddAtomic("42", "a");
  EXPECT_TRUE(g.IsComplex(c));
  EXPECT_TRUE(g.IsAtomic(a));
  EXPECT_EQ(g.Value(a), "42");
  EXPECT_EQ(g.Name(c), "c");
  ASSERT_OK(g.AddEdge(c, a, "val"));
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.NumComplexObjects(), 1u);
  EXPECT_EQ(g.NumAtomicObjects(), 1u);
  LabelId val = g.labels().Find("val");
  EXPECT_TRUE(g.HasEdge(c, a, val));
  EXPECT_TRUE(g.HasEdgeToAtomic(c, val));
  ASSERT_OK(g.Validate());
}

TEST(DataGraphTest, AtomicObjectsCannotHaveOutEdges) {
  DataGraph g;
  ObjectId c = g.AddComplex();
  ObjectId a = g.AddAtomic("v");
  util::Status st = g.AddEdge(a, c, "x");
  EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition);
}

TEST(DataGraphTest, DuplicateEdgeRejected) {
  DataGraph g;
  ObjectId c1 = g.AddComplex();
  ObjectId c2 = g.AddComplex();
  ASSERT_OK(g.AddEdge(c1, c2, "x"));
  EXPECT_EQ(g.AddEdge(c1, c2, "x").code(), util::StatusCode::kAlreadyExists);
  // Same endpoints, different label: fine (paper: at most one edge per
  // label between a pair).
  ASSERT_OK(g.AddEdge(c1, c2, "y"));
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(DataGraphTest, OutOfRangeIdsRejected) {
  DataGraph g;
  ObjectId c = g.AddComplex();
  LabelId l = g.InternLabel("x");
  EXPECT_EQ(g.AddEdge(c, 99, l).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(99, c, l).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(c, c, 99).code(), util::StatusCode::kInvalidArgument);
}

TEST(DataGraphTest, RemoveEdgeMaintainsBothIndexes) {
  DataGraph g;
  ObjectId c1 = g.AddComplex();
  ObjectId c2 = g.AddComplex();
  ASSERT_OK(g.AddEdge(c1, c2, "x"));
  LabelId x = g.labels().Find("x");
  ASSERT_OK(g.RemoveEdge(c1, c2, x));
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_TRUE(g.OutEdges(c1).empty());
  EXPECT_TRUE(g.InEdges(c2).empty());
  EXPECT_EQ(g.RemoveEdge(c1, c2, x).code(), util::StatusCode::kNotFound);
  ASSERT_OK(g.Validate());
}

TEST(DataGraphTest, AdjacencyIsSortedAndSymmetric) {
  DataGraph g = test::MakeFigure2Database();
  ASSERT_OK(g.Validate());
  for (ObjectId o = 0; o < g.NumObjects(); ++o) {
    auto out = g.OutEdges(o);
    for (size_t i = 1; i < out.size(); ++i) {
      EXPECT_LE(out[i - 1], out[i]);
    }
  }
}

TEST(DataGraphTest, BipartiteDetection) {
  DataGraph flat;
  ObjectId c = flat.AddComplex();
  ASSERT_OK(flat.AddEdge(c, flat.AddAtomic("v"), "x"));
  EXPECT_TRUE(flat.IsBipartite());

  DataGraph deep = test::MakeFigure2Database();
  EXPECT_FALSE(deep.IsBipartite());
}

TEST(GraphBuilderTest, ImplicitComplexCreation) {
  GraphBuilder b;
  ASSERT_OK(b.Edge("x", "knows", "y"));
  EXPECT_TRUE(b.Has("x"));
  EXPECT_TRUE(b.Has("y"));
  util::Status st;
  DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  EXPECT_EQ(g.NumComplexObjects(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphBuilderTest, AtomicNameConflicts) {
  GraphBuilder b;
  ASSERT_OK(b.Atomic("a", "1"));
  EXPECT_EQ(b.Atomic("a", "2").code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(b.Complex("a").code(), util::StatusCode::kAlreadyExists);
  util::Status st;
  std::move(b).Build(&st);
  EXPECT_FALSE(st.ok());  // first error surfaced
}

TEST(GraphBuilderTest, EdgeFromAtomicFails) {
  GraphBuilder b;
  ASSERT_OK(b.Atomic("a", "1"));
  EXPECT_EQ(b.Edge("a", "x", "b").code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(GraphIoTest, RoundTrip) {
  const FrozenGraph g(test::MakeFigure2Database());
  std::string text = WriteGraph(g);
  ASSERT_OK_AND_ASSIGN(DataGraph g2, ReadGraph(text));
  EXPECT_EQ(g2.NumObjects(), g.NumObjects());
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  EXPECT_EQ(g2.NumAtomicObjects(), g.NumAtomicObjects());
  // Content round-trips too (names preserved).
  EXPECT_EQ(WriteGraph(FrozenGraph(g2)), text);
}

TEST(GraphIoTest, ValueEscaping) {
  DataGraph g;
  ObjectId c = g.AddComplex("c");
  ObjectId a = g.AddAtomic("line\n\"quoted\" \\slash", "a");
  ASSERT_OK(g.AddEdge(c, a, "v"));
  ASSERT_OK_AND_ASSIGN(DataGraph g2, ReadGraph(WriteGraph(FrozenGraph(g))));
  EXPECT_EQ(g2.Value(1), "line\n\"quoted\" \\slash");
}

TEST(GraphIoTest, ParseErrors) {
  EXPECT_FALSE(ReadGraph("bogus line").ok());
  EXPECT_FALSE(ReadGraph("atomic x").ok());
  EXPECT_FALSE(ReadGraph("atomic x \"unterminated").ok());
  EXPECT_FALSE(ReadGraph("edge a b").ok());
  EXPECT_FALSE(ReadGraph("complex").ok());
  // Comments and blanks are fine.
  EXPECT_TRUE(ReadGraph("# hello\n\ncomplex x\n").ok());
}

TEST(GraphIoTest, UnnamedObjectsGetSynthesizedNames) {
  DataGraph g;
  ObjectId c = g.AddComplex();
  ASSERT_OK(g.AddEdge(c, g.AddAtomic("v"), "x"));
  ASSERT_OK_AND_ASSIGN(DataGraph g2, ReadGraph(WriteGraph(FrozenGraph(g))));
  EXPECT_EQ(g2.NumObjects(), 2u);
  EXPECT_EQ(g2.NumEdges(), 1u);
}

TEST(GraphStatsTest, CountsAndHistogram) {
  const FrozenGraph g(test::MakeFigure2Database());
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_objects, 8u);
  EXPECT_EQ(s.num_complex, 4u);
  EXPECT_EQ(s.num_atomic, 4u);
  EXPECT_EQ(s.num_edges, 8u);
  EXPECT_EQ(s.num_labels, 3u);
  EXPECT_FALSE(s.bipartite);
  LabelId name = g.labels().Find("name");
  EXPECT_EQ(s.label_histogram[name], 4u);
  EXPECT_EQ(s.num_roots, 0u);  // everyone has incoming edges
  EXPECT_FALSE(s.ToString(g).empty());
}

TEST(GraphStatsTest, RootsCounted) {
  const FrozenGraph g(test::MakeFigure4Database());
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_roots, 1u);  // o1
  EXPECT_EQ(s.max_out_degree, 3u);
  EXPECT_EQ(s.max_in_degree, 2u);  // o6 has two incoming b edges
}

}  // namespace
}  // namespace schemex::graph

#include <gtest/gtest.h>

#include "graph/graph_stats.h"
#include "json/import.h"
#include "json/json.h"
#include "tests/test_util.h"

namespace schemex::json {
namespace {

TEST(JsonParseTest, Scalars) {
  ASSERT_OK_AND_ASSIGN(Value null_value, Parse("null"));
  EXPECT_TRUE(null_value.is_null());
  ASSERT_OK_AND_ASSIGN(Value t, Parse("true"));
  EXPECT_TRUE(t.AsBool());
  ASSERT_OK_AND_ASSIGN(Value f, Parse(" false "));
  EXPECT_FALSE(f.AsBool());
  ASSERT_OK_AND_ASSIGN(Value n, Parse("-12.5e2"));
  EXPECT_DOUBLE_EQ(n.AsNumber(), -1250.0);
  EXPECT_EQ(n.ScalarToString(), "-12.5e2");  // source text preserved
  ASSERT_OK_AND_ASSIGN(Value s, Parse(R"("hi there")"));
  EXPECT_EQ(s.AsString(), "hi there");
}

TEST(JsonParseTest, StringEscapes) {
  ASSERT_OK_AND_ASSIGN(Value s, Parse(R"("a\"b\\c\nd\teA")"));
  EXPECT_EQ(s.AsString(), "a\"b\\c\nd\teA");
  ASSERT_OK_AND_ASSIGN(Value u, Parse(R"("é")"));  // é in UTF-8
  EXPECT_EQ(u.AsString(), "\xc3\xa9");
}

TEST(JsonParseTest, ArraysAndObjects) {
  ASSERT_OK_AND_ASSIGN(Value v, Parse(R"({"a": [1, 2, {"b": null}], "c": {}})"));
  ASSERT_EQ(v.kind(), Value::Kind::kObject);
  const auto& obj = v.AsObject();
  ASSERT_EQ(obj.size(), 2u);
  const Value& a = obj.at("a");
  ASSERT_EQ(a.kind(), Value::Kind::kArray);
  ASSERT_EQ(a.AsArray().size(), 3u);
  EXPECT_TRUE(a.AsArray()[2].AsObject().at("b").is_null());
  EXPECT_TRUE(obj.at("c").AsObject().empty());
}

TEST(JsonParseTest, Malformed) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Parse("\"unterminated").ok());
  EXPECT_FALSE(Parse("12 34").ok());
  EXPECT_FALSE(Parse("nul").ok());
  EXPECT_FALSE(Parse("\"bad\\q\"").ok());
  EXPECT_FALSE(Parse("\"trunc\\u00\"").ok());
}

TEST(JsonParseTest, DuplicateKeysLastWins) {
  ASSERT_OK_AND_ASSIGN(Value v, Parse(R"({"k": 1, "k": 2})"));
  EXPECT_DOUBLE_EQ(v.AsObject().at("k").AsNumber(), 2.0);
}

TEST(ImportTest, FlatObject) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g,
                       ImportJson(R"({"name": "Ada", "born": 1815})"));
  EXPECT_EQ(g.NumComplexObjects(), 1u);
  EXPECT_EQ(g.NumAtomicObjects(), 2u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.IsBipartite());
  graph::LabelId name = g.labels().Find("name");
  ASSERT_NE(name, graph::kInvalidLabel);
  // The root's name edge leads to the atomic "Ada".
  bool found = false;
  for (const graph::HalfEdge& e : g.OutEdges(0)) {
    if (e.label == name) {
      EXPECT_EQ(g.Value(e.other), "Ada");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ImportTest, NestedObjectsBecomeComplexNodes) {
  ASSERT_OK_AND_ASSIGN(
      graph::DataGraph g,
      ImportJson(R"({"person": {"name": "Ada"}, "tag": "x"})"));
  EXPECT_EQ(g.NumComplexObjects(), 2u);
  EXPECT_FALSE(g.IsBipartite());
  ASSERT_OK(g.Validate());
}

TEST(ImportTest, ArraysFanOut) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g,
                       ImportJson(R"({"tags": ["a", "b", "c"]})"));
  graph::LabelId tags = g.labels().Find("tags");
  size_t count = 0;
  for (const graph::HalfEdge& e : g.OutEdges(0)) {
    if (e.label == tags) ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(ImportTest, TopLevelArrayUsesRootLabel) {
  ImportOptions opt;
  opt.root_label = "rec";
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g,
                       ImportJson(R"([{"a": 1}, {"a": 2}])", opt));
  graph::LabelId rec = g.labels().Find("rec");
  ASSERT_NE(rec, graph::kInvalidLabel);
  EXPECT_EQ(g.NumComplexObjects(), 3u);  // root + 2 records
}

TEST(ImportTest, NestedArraysGetWrapperNodes) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g,
                       ImportJson(R"({"m": [[1, 2], [3]]})"));
  // Two wrapper nodes under "m", each with "item" edges.
  graph::LabelId item = g.labels().Find("item");
  ASSERT_NE(item, graph::kInvalidLabel);
  EXPECT_EQ(g.NumComplexObjects(), 3u);
  EXPECT_EQ(g.NumAtomicObjects(), 3u);
  ASSERT_OK(g.Validate());
}

TEST(ImportTest, ScalarRoot) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, ImportJson("42"));
  EXPECT_EQ(g.NumObjects(), 1u);
  EXPECT_TRUE(g.IsAtomic(0));
  EXPECT_EQ(g.Value(0), "42");
}

TEST(ImportTest, RecordsCollectionIsSchemaExtractable) {
  // The motivating workload: many similar JSON records with optional
  // fields — exactly the paper's "member home pages" scenario.
  ASSERT_OK_AND_ASSIGN(graph::DataGraph built, ImportJson(R"([
    {"name": "a", "email": "a@x", "phone": "1"},
    {"name": "b", "email": "b@x"},
    {"name": "c", "email": "c@x", "phone": "3"},
    {"name": "d", "photo": "d.gif"}
  ])"));
  const graph::FrozenGraph g(built);
  graph::GraphStats s = graph::ComputeStats(g);
  EXPECT_EQ(s.num_complex, 5u);
  EXPECT_EQ(s.num_edges, 4u + 10u);  // 4 item edges + 10 field edges
}

}  // namespace
}  // namespace schemex::json

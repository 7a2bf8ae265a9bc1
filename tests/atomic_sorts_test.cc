#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "typing/atomic_sorts.h"
#include "typing/perfect_typing.h"

namespace schemex::typing {
namespace {

TEST(ClassifyValueTest, BuiltInSorts) {
  EXPECT_EQ(ClassifyValue("42"), AtomicSort::kInt);
  EXPECT_EQ(ClassifyValue("-7"), AtomicSort::kInt);
  EXPECT_EQ(ClassifyValue("+13"), AtomicSort::kInt);
  EXPECT_EQ(ClassifyValue("3.14"), AtomicSort::kReal);
  EXPECT_EQ(ClassifyValue("1e9"), AtomicSort::kReal);
  EXPECT_EQ(ClassifyValue("true"), AtomicSort::kBool);
  EXPECT_EQ(ClassifyValue("false"), AtomicSort::kBool);
  EXPECT_EQ(ClassifyValue("2026-07-06"), AtomicSort::kDate);
  EXPECT_EQ(ClassifyValue("https://db.stanford.edu"), AtomicSort::kUrl);
  EXPECT_EQ(ClassifyValue("svn@cs.stanford.edu"), AtomicSort::kEmail);
  EXPECT_EQ(ClassifyValue("Gates"), AtomicSort::kString);
  EXPECT_EQ(ClassifyValue(""), AtomicSort::kString);
  EXPECT_EQ(ClassifyValue("12-34"), AtomicSort::kString);   // not a date
  EXPECT_EQ(ClassifyValue("a@b @c"), AtomicSort::kString);  // space
  EXPECT_EQ(ClassifyValue(" 42 "), AtomicSort::kInt);       // trimmed
}

TEST(ClassifyValueTest, NamesAreStable) {
  EXPECT_EQ(AtomicSortName(AtomicSort::kInt), "int");
  EXPECT_EQ(AtomicSortName(AtomicSort::kString), "string");
  EXPECT_EQ(DefaultSortClassifier("7"), "int");
}

TEST(RefineAtomicSortsTest, RelabelsOnlyAtomicEdges) {
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("age_v", "33"));
  ASSERT_OK(b.Atomic("name_v", "Ada"));
  ASSERT_OK(b.Edge("p", "age", "age_v"));
  ASSERT_OK(b.Edge("p", "name", "name_v"));
  ASSERT_OK(b.Edge("p", "knows", "q"));
  util::Status st;
  const graph::FrozenGraph g(std::move(b).Build(&st));
  ASSERT_OK(st);

  const graph::FrozenGraph refined(RefineAtomicSorts(g));
  ASSERT_OK(refined.Validate());
  EXPECT_EQ(refined.NumObjects(), g.NumObjects());
  EXPECT_EQ(refined.NumEdges(), g.NumEdges());
  EXPECT_NE(refined.labels().Find("age@int"), graph::kInvalidLabel);
  EXPECT_NE(refined.labels().Find("name@string"), graph::kInvalidLabel);
  EXPECT_NE(refined.labels().Find("knows"), graph::kInvalidLabel);
  EXPECT_EQ(refined.labels().Find("knows@string"), graph::kInvalidLabel);
  // Object ids preserved (values at same indices).
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    EXPECT_EQ(g.IsAtomic(o), refined.IsAtomic(o));
    EXPECT_EQ(g.Value(o), refined.Value(o));
  }
}

TEST(RefineAtomicSortsTest, SplitsTypesByValueSort) {
  // Two objects both with one "id" field — one numeric, one textual.
  // Without sorts they share a perfect type; with sorts they split
  // (Remark 2.1's point).
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("v1", "12345"));
  ASSERT_OK(b.Atomic("v2", "abc-99"));
  ASSERT_OK(b.Edge("x", "id", "v1"));
  ASSERT_OK(b.Edge("y", "id", "v2"));
  util::Status st;
  const graph::FrozenGraph g(std::move(b).Build(&st));
  ASSERT_OK(st);

  ASSERT_OK_AND_ASSIGN(PerfectTypingResult plain, PerfectTypingViaGfp(g));
  EXPECT_EQ(plain.program.NumTypes(), 1u);

  const graph::FrozenGraph refined(RefineAtomicSorts(g));
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult sorted,
                       PerfectTypingViaGfp(refined));
  EXPECT_EQ(sorted.program.NumTypes(), 2u);
}

TEST(RefineAtomicSortsTest, CustomClassifier) {
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("v", "whatever"));
  ASSERT_OK(b.Edge("x", "f", "v"));
  util::Status st;
  const graph::FrozenGraph g(std::move(b).Build(&st));
  ASSERT_OK(st);
  graph::DataGraph refined =
      RefineAtomicSorts(g, [](std::string_view) { return "blob"; });
  EXPECT_NE(refined.labels().Find("f@blob"), graph::kInvalidLabel);
}

TEST(RefineByValueEnumTest, MaleFemaleExample) {
  // The §2 example: classify differently by the value of a sex subobject.
  graph::GraphBuilder b;
  int i = 0;
  auto person = [&](const char* name, const char* sex) {
    std::string v = "s" + std::to_string(i++);
    ASSERT_OK(b.Atomic(v, sex));
    ASSERT_OK(b.Edge(name, "sex", v));
    std::string n = "n" + std::to_string(i++);
    ASSERT_OK(b.Atomic(n, name));
    ASSERT_OK(b.Edge(name, "name", n));
  };
  person("alice", "Female");
  person("bob", "Male");
  person("carol", "Female");
  util::Status st;
  const graph::FrozenGraph g(std::move(b).Build(&st));
  ASSERT_OK(st);

  ASSERT_OK_AND_ASSIGN(PerfectTypingResult plain, PerfectTypingViaGfp(g));
  EXPECT_EQ(plain.program.NumTypes(), 1u);

  ASSERT_OK_AND_ASSIGN(graph::DataGraph refined_built,
                       RefineByValueEnum(g, "sex"));
  const graph::FrozenGraph refined(refined_built);
  EXPECT_NE(refined.labels().Find("sex=Male"), graph::kInvalidLabel);
  EXPECT_NE(refined.labels().Find("sex=Female"), graph::kInvalidLabel);
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult split,
                       PerfectTypingViaGfp(refined));
  EXPECT_EQ(split.program.NumTypes(), 2u);
}

TEST(RefineByValueEnumTest, GuardsAndErrors) {
  graph::GraphBuilder b;
  for (int i = 0; i < 5; ++i) {
    std::string v = "v" + std::to_string(i);
    ASSERT_OK(b.Atomic(v, "value" + std::to_string(i)));
    ASSERT_OK(b.Edge("x" + std::to_string(i), "f", v));
  }
  util::Status st;
  const graph::FrozenGraph g(std::move(b).Build(&st));
  ASSERT_OK(st);
  EXPECT_EQ(RefineByValueEnum(g, "nope").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(RefineByValueEnum(g, "f", /*max_distinct=*/3).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(RefineByValueEnum(g, "f", 5).ok());
}

}  // namespace
}  // namespace schemex::typing

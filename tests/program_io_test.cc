#include <gtest/gtest.h>

#include "extract/extractor.h"
#include "gen/dbg.h"
#include "tests/test_util.h"
#include "typing/gfp.h"
#include "typing/program_io.h"

namespace schemex::typing {
namespace {

TEST(ProgramIoTest, RoundTripSimpleProgram) {
  graph::LabelInterner labels;
  graph::LabelId a = labels.Intern("a");
  graph::LabelId b = labels.Intern("b");
  TypingProgram p;
  TypeId t1 = p.AddType("alpha", {});
  TypeId t2 = p.AddType("beta", {});
  p.type(t1).signature = TypeSignature::FromLinks(
      {TypedLink::OutAtomic(a), TypedLink::Out(b, t2)});
  p.type(t2).signature = TypeSignature::FromLinks({TypedLink::In(b, t1)});

  std::string text = WriteTypingProgram(p, labels);
  ASSERT_OK_AND_ASSIGN(TypingProgram p2, ReadTypingProgram(text, &labels));
  EXPECT_EQ(p2.NumTypes(), 2u);
  EXPECT_EQ(p2.type(0).name, "alpha");
  EXPECT_EQ(p2.type(0).signature, p.type(0).signature);
  EXPECT_EQ(p2.type(1).signature, p.type(1).signature);
}

TEST(ProgramIoTest, ExtractedSchemaSurvivesSaveLoad) {
  // Extract on DBG, serialize, load into a FRESH graph's interner, and
  // check the reloaded program types the regenerated data identically.
  auto g = gen::MakeDbgDataset(9);
  auto f = graph::Freeze(*g);
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*f);
  ASSERT_TRUE(r.ok());

  std::string text = WriteTypingProgram(r->final_program, g->labels());

  auto g2 = gen::MakeDbgDataset(9);  // same data, fresh interner
  ASSERT_OK_AND_ASSIGN(TypingProgram loaded,
                       ReadTypingProgram(text, &g2->labels()));
  auto f2 = graph::Freeze(*g2);
  ASSERT_OK_AND_ASSIGN(Extents original, ComputeGfp(r->final_program, *f));
  ASSERT_OK_AND_ASSIGN(Extents reloaded, ComputeGfp(loaded, *f2));
  ASSERT_EQ(original.per_type.size(), reloaded.per_type.size());
  for (size_t t = 0; t < original.per_type.size(); ++t) {
    EXPECT_EQ(original.per_type[t].Count(), reloaded.per_type[t].Count())
        << "type " << t;
  }
}

TEST(ProgramIoTest, RejectsNonFragmentText) {
  graph::LabelInterner labels;
  // Two rules for one head is legal datalog but not a typing program.
  EXPECT_FALSE(ReadTypingProgram(
                   "t(X) :- atomic(X).\nt(X) :- link(X, Y, a), atomic(Y).",
                   &labels)
                   .ok());
  // Plain parse errors propagate too.
  EXPECT_FALSE(ReadTypingProgram("not a program", &labels).ok());
}

TEST(ProgramIoTest, EmptyProgram) {
  graph::LabelInterner labels;
  TypingProgram p;
  EXPECT_EQ(WriteTypingProgram(p, labels), "");
  ASSERT_OK_AND_ASSIGN(TypingProgram p2, ReadTypingProgram("", &labels));
  EXPECT_EQ(p2.NumTypes(), 0u);
}

}  // namespace
}  // namespace schemex::typing

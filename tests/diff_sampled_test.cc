#include <gtest/gtest.h>

#include "extract/sampled.h"
#include "gen/dbg.h"
#include "gen/perturb.h"
#include "gen/spec.h"
#include "tests/test_util.h"
#include "typing/program_diff.h"

namespace schemex {
namespace {

using typing::DiffPrograms;
using typing::ProgramDiff;
using typing::TypedLink;
using typing::TypeSignature;
using typing::TypingProgram;

class DiffTest : public ::testing::Test {
 protected:
  graph::LabelInterner labels_;
  graph::LabelId a_ = labels_.Intern("a");
  graph::LabelId b_ = labels_.Intern("b");
  graph::LabelId c_ = labels_.Intern("c");
};

TEST_F(DiffTest, IdenticalProgramsDiffEmpty) {
  TypingProgram p;
  p.AddType("t", TypeSignature::FromLinks({TypedLink::OutAtomic(a_)}));
  ProgramDiff d = DiffPrograms(p, p);
  EXPECT_TRUE(d.identical());
  ASSERT_EQ(d.matched.size(), 1u);
  EXPECT_EQ(d.matched[0].distance, 0u);
  EXPECT_EQ(d.ToString(p, p, labels_), "= t\n");
}

TEST_F(DiffTest, DriftAndAddRemove) {
  TypingProgram before;
  before.AddType("person", TypeSignature::FromLinks(
                               {TypedLink::OutAtomic(a_),
                                TypedLink::OutAtomic(b_)}));
  before.AddType("gone", TypeSignature::FromLinks(
                             {TypedLink::OutAtomic(c_),
                              TypedLink::OutAtomic(labels_.Intern("x1")),
                              TypedLink::OutAtomic(labels_.Intern("x2")),
                              TypedLink::OutAtomic(labels_.Intern("x3")),
                              TypedLink::OutAtomic(labels_.Intern("x4"))}));
  TypingProgram after;
  after.AddType("person2", TypeSignature::FromLinks(
                               {TypedLink::OutAtomic(a_),
                                TypedLink::OutAtomic(c_)}));

  ProgramDiff d = DiffPrograms(before, after, /*max_match_distance=*/3);
  ASSERT_EQ(d.matched.size(), 1u);
  EXPECT_EQ(d.matched[0].before, 0);
  EXPECT_EQ(d.matched[0].after, 0);
  EXPECT_EQ(d.matched[0].distance, 2u);  // -b, +c
  EXPECT_EQ(d.total_drift, 2u);
  EXPECT_EQ(d.removed, (std::vector<typing::TypeId>{1}));
  EXPECT_TRUE(d.added.empty());
  EXPECT_FALSE(d.identical());

  std::string report = d.ToString(before, after, labels_);
  EXPECT_NE(report.find("~ person -> person2 (2 links changed)"),
            std::string::npos);
  EXPECT_NE(report.find("- ->b^0"), std::string::npos);
  EXPECT_NE(report.find("+ ->c^0"), std::string::npos);
  EXPECT_NE(report.find("- gone"), std::string::npos);
}

TEST_F(DiffTest, GreedyPairsClosestFirst) {
  // before: {a}, {a,b}; after: {a,b,c}, {a}. The zero-distance pair must
  // match first, leaving {a,b} ~ {a,b,c} at distance 1.
  TypingProgram before;
  before.AddType("x", TypeSignature::FromLinks({TypedLink::OutAtomic(a_)}));
  before.AddType("y", TypeSignature::FromLinks(
                          {TypedLink::OutAtomic(a_), TypedLink::OutAtomic(b_)}));
  TypingProgram after;
  after.AddType("y2", TypeSignature::FromLinks(
                          {TypedLink::OutAtomic(a_), TypedLink::OutAtomic(b_),
                           TypedLink::OutAtomic(c_)}));
  after.AddType("x2", TypeSignature::FromLinks({TypedLink::OutAtomic(a_)}));
  ProgramDiff d = DiffPrograms(before, after);
  ASSERT_EQ(d.matched.size(), 2u);
  EXPECT_EQ(d.matched[0].before, 0);
  EXPECT_EQ(d.matched[0].after, 1);
  EXPECT_EQ(d.matched[0].distance, 0u);
  EXPECT_EQ(d.matched[1].distance, 1u);
  EXPECT_EQ(d.total_drift, 1u);
}

TEST_F(DiffTest, EmptyPrograms) {
  TypingProgram empty;
  TypingProgram p;
  p.AddType("t", TypeSignature::FromLinks({TypedLink::OutAtomic(a_)}));
  ProgramDiff d = DiffPrograms(empty, p);
  EXPECT_TRUE(d.matched.empty());
  EXPECT_EQ(d.added.size(), 1u);
  EXPECT_TRUE(DiffPrograms(empty, empty).identical());
}

TEST(DiffIntegrationTest, PerturbationShowsUpAsDrift) {
  auto g1 = gen::MakeDbgDataset(5);
  auto f1 = graph::Freeze(*g1);
  graph::DataGraph g2 = *g1;
  gen::PerturbOptions popt;
  popt.delete_links = 5;
  popt.add_links = 15;
  popt.seed = 3;
  ASSERT_OK(gen::Perturb(&g2, popt));
  const graph::FrozenGraph f2(g2);

  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r1 = extract::SchemaExtractor(opt).Run(*f1);
  auto r2 = extract::SchemaExtractor(opt).Run(f2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ProgramDiff d = DiffPrograms(r1->final_program, r2->final_program);
  // Same-source schemas should mostly match up (6 vs 6 types).
  EXPECT_EQ(d.matched.size(), 6u);
  EXPECT_FALSE(d.ToString(r1->final_program, r2->final_program,
                          g2.labels())
                   .empty());
}

TEST(SampledExtractTest, SampleSchemaGeneralizes) {
  // Extract from a 25% sample of a structured database; the recast of
  // the full data should type everything with defect comparable to
  // full extraction.
  gen::DatasetSpec spec = gen::DbgSpec();
  for (auto& t : spec.types) t.count *= 8;
  auto g = gen::Generate(spec, 31);
  ASSERT_TRUE(g.ok());
  auto f = graph::Freeze(*g);

  extract::SampleOptions sopt;
  sopt.sample_complex_objects = g->NumComplexObjects() / 4;
  sopt.extract.target_num_types = 6;
  ASSERT_OK_AND_ASSIGN(extract::SampledExtractionResult r,
                       extract::ExtractFromSample(*f, sopt));
  EXPECT_EQ(r.program.NumTypes(), 6u);
  EXPECT_LT(r.sample_complex, g->NumComplexObjects() / 3);
  EXPECT_GT(r.sample_perfect_types, 6u);
  // Everything typed; most objects exactly.
  EXPECT_EQ(r.recast.num_untyped, 0u);
  EXPECT_GT(r.recast.num_exact, g->NumComplexObjects() / 2);
  // Defect not catastrophic: well below "all edges excess".
  EXPECT_LT(r.defect.defect(), g->NumEdges() / 2);
}

TEST(SampledExtractTest, SampleLargerThanPopulationClamps) {
  auto g = gen::MakeDbgDataset(4);
  auto f = graph::Freeze(*g);
  extract::SampleOptions sopt;
  sopt.sample_complex_objects = 1 << 20;
  sopt.extract.target_num_types = 6;
  ASSERT_OK_AND_ASSIGN(extract::SampledExtractionResult r,
                       extract::ExtractFromSample(*f, sopt));
  EXPECT_EQ(r.sample_complex, g->NumComplexObjects());
}

TEST(SampledExtractTest, ZeroSampleRejected) {
  auto g = gen::MakeDbgDataset(4);
  auto f = graph::Freeze(*g);
  extract::SampleOptions sopt;
  sopt.sample_complex_objects = 0;
  EXPECT_FALSE(extract::ExtractFromSample(*f, sopt).ok());
}

}  // namespace
}  // namespace schemex

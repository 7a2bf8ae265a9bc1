#include <gtest/gtest.h>

#include "extract/knee.h"
#include "gen/dbg.h"
#include "tests/test_util.h"
#include "typing/dot_export.h"

namespace schemex {
namespace {

using extract::FindKnee;
using extract::Knee;
using extract::KneeOptions;
using extract::NaturalTypeCounts;
using extract::SensitivityPoint;

std::vector<SensitivityPoint> MakeCurve() {
  // Synthetic Figure-6-like curve: shallow ramp, plateau near k=6-9,
  // explosion below.
  std::vector<SensitivityPoint> pts;
  auto add = [&](size_t k, size_t defect) {
    pts.push_back(SensitivityPoint{k, 0.0, 0, defect, defect});
  };
  add(30, 20);
  add(25, 25);
  add(20, 35);
  add(15, 45);
  add(10, 52);
  add(9, 50);
  add(8, 49);
  add(7, 51);
  add(6, 55);
  add(5, 90);
  add(3, 200);
  add(1, 500);
  return pts;
}

TEST(KneeTest, PicksSmallestKWithinTolerance) {
  // Points with k <= 20 (the default cap): {20:35, 15:45, 10:52, 9:50,
  // 8:49, 7:51, 6:55, 5:90, 3:200, 1:500}. Best defect = 35, cap =
  // 35 * 1.25 = 43.75 -> only k=20 qualifies.
  Knee knee = FindKnee(MakeCurve());
  EXPECT_EQ(knee.best_defect_in_range, 35u);
  EXPECT_EQ(knee.k, 20u);

  // Loosen the tolerance: cap 35*1.6 = 56 admits k in {20,15,10,9,8,7,6};
  // smallest wins.
  KneeOptions loose;
  loose.tolerance = 1.6;
  Knee knee2 = FindKnee(MakeCurve(), loose);
  EXPECT_EQ(knee2.k, 6u);
  EXPECT_EQ(knee2.defect, 55u);
}

TEST(KneeTest, RangeCapChangesAnchor) {
  KneeOptions opt;
  opt.max_types = 9;  // best in range = 49 at k=8; cap 61.25
  Knee knee = FindKnee(MakeCurve(), opt);
  EXPECT_EQ(knee.best_defect_in_range, 49u);
  EXPECT_EQ(knee.k, 6u);  // 55 <= 61.25, smallest qualifying
}

TEST(KneeTest, NaturalCountsAscending) {
  KneeOptions opt;
  opt.tolerance = 1.6;
  std::vector<size_t> ks = NaturalTypeCounts(MakeCurve(), opt);
  EXPECT_EQ(ks, (std::vector<size_t>{6, 7, 8, 9, 10, 15, 20}));
}

TEST(KneeTest, EmptyAndOutOfRangeInputs) {
  EXPECT_EQ(FindKnee({}).k, 0u);
  KneeOptions opt;
  opt.max_types = 2;  // no point has k <= 2 except 1
  Knee knee = FindKnee(MakeCurve(), opt);
  EXPECT_EQ(knee.k, 1u);
  EXPECT_EQ(knee.best_defect_in_range, 500u);
}

TEST(KneeTest, NoCapUsesWholeCurve) {
  KneeOptions opt;
  opt.max_types = 0;
  Knee knee = FindKnee(MakeCurve(), opt);
  EXPECT_EQ(knee.best_defect_in_range, 20u);
  // Cap = 25: both k=30 (20) and k=25 (25) qualify; smallest wins.
  EXPECT_EQ(knee.k, 25u);
}

TEST(DotExportTest, RendersTypesAndEdges) {
  graph::LabelInterner labels;
  graph::LabelId name = labels.Intern("name");
  graph::LabelId author = labels.Intern("author");
  typing::TypingProgram p;
  typing::TypeId person = p.AddType("person", {});
  typing::TypeId pub = p.AddType("publication", {});
  p.type(person).signature = typing::TypeSignature::FromLinks(
      {typing::TypedLink::OutAtomic(name),
       typing::TypedLink::In(author, pub)});
  p.type(pub).signature = typing::TypeSignature::FromLinks(
      {typing::TypedLink::Out(author, person)});

  std::string dot = typing::ProgramToDot(p, labels);
  EXPECT_NE(dot.find("digraph schema"), std::string::npos);
  EXPECT_NE(dot.find("person"), std::string::npos);
  // Atomic attribute inlined into the record label.
  EXPECT_NE(dot.find("|name"), std::string::npos);
  // publication -> person outgoing author edge.
  EXPECT_NE(dot.find("t1 -> t0 [label=\"author\"]"), std::string::npos);
  // person's declared-incoming author edge drawn dashed from publication.
  EXPECT_NE(dot.find("t1 -> t0 [label=\"author\", style=dashed]"),
            std::string::npos);
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(DotExportTest, WeightsAndAtomNode) {
  graph::LabelInterner labels;
  graph::LabelId v = labels.Intern("v");
  typing::TypingProgram p;
  p.AddType("t", typing::TypeSignature::FromLinks(
                     {typing::TypedLink::OutAtomic(v)}));
  typing::DotOptions opt;
  opt.weights = {42};
  opt.inline_atomic_links = false;
  std::string dot = typing::ProgramToDot(p, labels, opt);
  EXPECT_NE(dot.find("(42)"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> atom [label=\"v\"]"), std::string::npos);
  EXPECT_NE(dot.find("atom [label=\"ATOM\""), std::string::npos);
}

TEST(DotExportTest, EscapesSpecialCharacters) {
  graph::LabelInterner labels;
  graph::LabelId weird = labels.Intern("a|b");
  typing::TypingProgram p;
  p.AddType("t<1>", typing::TypeSignature::FromLinks(
                        {typing::TypedLink::OutAtomic(weird)}));
  std::string dot = typing::ProgramToDot(p, labels);
  EXPECT_NE(dot.find("a\\|b"), std::string::npos);
  EXPECT_NE(dot.find("t\\<1\\>"), std::string::npos);
}

TEST(DotExportTest, DbgSchemaRenders) {
  auto g = gen::MakeDbgDataset();
  auto f = graph::Freeze(*g);
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*f);
  ASSERT_TRUE(r.ok());
  typing::DotOptions dopt;
  dopt.weights.assign(r->clustering.final_weights.begin(),
                      r->clustering.final_weights.end());
  std::string dot = typing::ProgramToDot(r->final_program, g->labels(), dopt);
  EXPECT_GT(std::count(dot.begin(), dot.end(), '\n'), 10);
  EXPECT_NE(dot.find("author"), std::string::npos);
}

}  // namespace
}  // namespace schemex

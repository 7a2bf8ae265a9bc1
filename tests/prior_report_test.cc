#include <gtest/gtest.h>

#include "catalog/report.h"
#include "extract/prior.h"
#include "gen/dbg.h"
#include "tests/test_util.h"
#include "typing/program_io.h"

namespace schemex {
namespace {

TEST(PriorExtractionTest, PriorTypesStayAuthoritative) {
  // Prior: the publication shape (author + name). Extraction fills in
  // types for everything else; publication-shaped objects stay claimed.
  auto g = gen::MakeDbgDataset(3);
  auto f = graph::Freeze(*g);
  graph::LabelId name = g->labels().Find("name");
  graph::LabelId conference = g->labels().Find("conference");
  ASSERT_NE(conference, graph::kInvalidLabel);
  typing::TypingProgram prior;
  typing::TypeId pub = prior.AddType(
      "known_publication",
      typing::TypeSignature::FromLinks(
          {typing::TypedLink::OutAtomic(name),
           typing::TypedLink::OutAtomic(conference)}));

  extract::ExtractorOptions opt;
  opt.target_num_types = 5;
  ASSERT_OK_AND_ASSIGN(extract::PriorExtractionResult r,
                       extract::ExtractWithPrior(*f, prior, opt));
  EXPECT_EQ(r.num_prior_types, 1u);
  EXPECT_GT(r.num_prior_claimed, 0u);
  EXPECT_EQ(r.num_new_types, 5u);
  EXPECT_EQ(r.program.NumTypes(), 6u);
  // Prior type id 0 preserved, name intact.
  EXPECT_EQ(r.program.type(pub).name, "known_publication");
  // Every prior-claimed object keeps the prior type in the final recast
  // (the fallback may add a few misfits on top, hence >=).
  size_t claimed_assigned = 0;
  for (graph::ObjectId o = 0; o < g->NumObjects(); ++o) {
    if (r.recast.assignment.Has(o, pub)) ++claimed_assigned;
  }
  EXPECT_GE(claimed_assigned, r.num_prior_claimed);
  // Everything complex ends up typed.
  EXPECT_EQ(r.recast.num_untyped, 0u);
}

TEST(PriorExtractionTest, EmptyPriorEqualsPlainExtraction) {
  auto g = gen::MakeDbgDataset(3);
  auto f = graph::Freeze(*g);
  typing::TypingProgram empty;
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  ASSERT_OK_AND_ASSIGN(extract::PriorExtractionResult r,
                       extract::ExtractWithPrior(*f, empty, opt));
  EXPECT_EQ(r.num_prior_claimed, 0u);
  EXPECT_EQ(r.program.NumTypes(), 6u);
  auto plain = extract::SchemaExtractor(opt).Run(*f);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(r.defect.defect(), plain->defect.defect());
}

TEST(PriorExtractionTest, PriorCoveringEverythingYieldsNoNewTypes) {
  const graph::FrozenGraph g(test::MakeFigure2Database());
  // A prior matching every complex object (requires only a name).
  typing::TypingProgram prior;
  prior.AddType("anything_named",
                typing::TypeSignature::FromLinks({typing::TypedLink::OutAtomic(
                    g.labels().Find("name"))}));
  extract::ExtractorOptions opt;
  ASSERT_OK_AND_ASSIGN(extract::PriorExtractionResult r,
                       extract::ExtractWithPrior(g, prior, opt));
  EXPECT_EQ(r.num_prior_claimed, g.NumComplexObjects());
  EXPECT_EQ(r.num_new_types, 0u);
  EXPECT_EQ(r.program.NumTypes(), 1u);
}

TEST(ReportTest, RendersAllSections) {
  auto g = gen::MakeDbgDataset(3);
  auto f = graph::Freeze(*g);
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*f);
  ASSERT_TRUE(r.ok());
  catalog::Workspace ws;
  ws.graph = f;
  ws.program = r->final_program;
  ws.assignment = r->recast.assignment;

  catalog::ReportOptions ropt;
  ropt.include_dot = true;
  ropt.max_examples_per_type = 2;
  std::string report = catalog::RenderReport(ws, ropt);
  EXPECT_NE(report.find("# Schema extraction report"), std::string::npos);
  EXPECT_NE(report.find("## Database"), std::string::npos);
  EXPECT_NE(report.find("## Schema"), std::string::npos);
  EXPECT_NE(report.find("## Types"), std::string::npos);
  EXPECT_NE(report.find("## Fit"), std::string::npos);
  EXPECT_NE(report.find("```dot"), std::string::npos);
  EXPECT_NE(report.find("defect:"), std::string::npos);
  // Examples limited to 2 per type: no type line lists 3 names.
  EXPECT_EQ(report.find(", _o"), std::string::npos);
}

TEST(ReportTest, GraphOnlyWorkspace) {
  catalog::Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  std::string report = catalog::RenderReport(ws);
  EXPECT_NE(report.find("(no schema extracted yet)"), std::string::npos);
}

}  // namespace
}  // namespace schemex

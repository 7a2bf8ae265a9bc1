// Differential test: the production greedy clusterer (incremental
// best-candidate caches) against a deliberately naive reference
// implementation of the same §5 algorithm, written independently below.
// Any divergence in merge sequences or final programs is a bug in the
// optimization. The grid runs every psi kind, with and without the empty
// type, over small random programs and over the DBG program clustered
// all the way down to one type (the `_t4` instances also set
// ExecOptions::num_threads = 4, which greedy does not read but the
// end-to-end benchmark's replay still sets), so each
// way a cached move can be kept or rescanned after a merge is exercised:
// re-priced at equal cost (d, psi2, psi4), re-priced cheaper (psi1,
// psi5), rescanned because it got dearer (psi3), and the empty candidate
// folded in after empty moves.

#include <gtest/gtest.h>

#include <limits>

#include "cluster/distance.h"
#include "cluster/greedy.h"
#include "gen/dbg.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "tests/test_util.h"
#include "typing/perfect_typing.h"

namespace schemex::cluster {
namespace {

using typing::TypedLink;
using typing::TypeId;
using typing::TypeSignature;
using typing::TypingProgram;

/// Naive reference: full O(n^2) re-scan per step, transcribing the
/// paper's greedy directly.
struct ReferenceResult {
  std::vector<MergeStep> steps;
  std::vector<TypeId> cluster_of;  // stage-1 type -> cluster index/-2
};

ReferenceResult ReferenceGreedy(const TypingProgram& stage1,
                                const std::vector<uint32_t>& weights,
                                const ClusteringOptions& options) {
  const size_t n = stage1.NumTypes();
  std::vector<TypeSignature> sig(n);
  std::vector<double> weight(n);
  std::vector<bool> alive(n, true);
  std::vector<TypeId> cluster_of(n);
  for (size_t i = 0; i < n; ++i) {
    sig[i] = stage1.type(static_cast<TypeId>(i)).signature;
    weight[i] = weights[i];
    cluster_of[i] = static_cast<TypeId>(i);
  }
  const size_t big_l = stage1.NumDistinctTypedLinks();
  double empty_weight = 0.0;
  ReferenceResult result;
  size_t live = n;
  while (live > options.target_num_types) {
    double best_cost = std::numeric_limits<double>::infinity();
    TypeId bs = -1, bt = -1;
    size_t bd = 0;
    for (size_t s = 0; s < n; ++s) {
      if (!alive[s]) continue;
      for (size_t t = 0; t < n; ++t) {
        if (t == s || !alive[t]) continue;
        size_t d = SimpleDistance(sig[s], sig[t]);
        double cost =
            WeightedDistance(options.psi, weight[t], weight[s], d, big_l);
        if (cost < best_cost) {
          best_cost = cost;
          bs = static_cast<TypeId>(s);
          bt = static_cast<TypeId>(t);
          bd = d;
        }
      }
      if (options.enable_empty_type) {
        double cost = WeightedDistance(options.psi,
                                       std::max(empty_weight, 1.0),
                                       weight[s], sig[s].size(), big_l);
        if (cost < best_cost) {
          best_cost = cost;
          bs = static_cast<TypeId>(s);
          bt = kEmptyType;
          bd = sig[s].size();
        }
      }
    }
    if (bs < 0) break;
    alive[static_cast<size_t>(bs)] = false;
    for (TypeId& c : cluster_of) {
      if (c == bs) c = bt;
    }
    if (bt == kEmptyType) {
      empty_weight += weight[static_cast<size_t>(bs)];
      for (size_t i = 0; i < n; ++i) {
        if (!alive[i]) continue;
        TypeSignature next = sig[i];
        for (const TypedLink& l : sig[i].links()) {
          if (l.target == bs) next.Erase(l);
        }
        sig[i] = std::move(next);
      }
    } else {
      weight[static_cast<size_t>(bt)] += weight[static_cast<size_t>(bs)];
      for (size_t i = 0; i < n; ++i) {
        if (alive[i]) sig[i].RemapTarget(bs, bt);
      }
    }
    --live;
    result.steps.push_back(MergeStep{live, bs, bt, bd, best_cost});
  }
  result.cluster_of = cluster_of;
  return result;
}

/// (seed, psi, empty type, threads). Seed 0 stands for the DBG program
/// (DBG x1, 86 Stage-1 types) clustered to k = 1; any other seed is a
/// random graph clustered to k = 3.
using DifferentialParam = std::tuple<uint64_t, PsiKind, bool, size_t>;

class GreedyDifferential : public ::testing::TestWithParam<DifferentialParam> {
};

TEST_P(GreedyDifferential, MatchesNaiveReference) {
  auto [seed, psi, empty, threads] = GetParam();
  graph::DataGraph g;
  ClusteringOptions opt;
  opt.psi = psi;
  opt.enable_empty_type = empty;
  if (seed == 0) {
    ASSERT_OK_AND_ASSIGN(g, gen::Generate(gen::DbgSpec(), 4242));
    opt.target_num_types = 1;
  } else {
    gen::RandomGraphOptions gopt;
    gopt.num_complex = 50;
    gopt.num_atomic = 30;
    gopt.num_edges = 110;
    gopt.num_labels = 4;
    gopt.seed = seed;
    g = gen::RandomGraph(gopt);
    opt.target_num_types = 3;
  }
  const graph::FrozenGraph f(g);
  auto stage1 = typing::PerfectTypingViaRefinement(f);
  ASSERT_TRUE(stage1.ok());
  if (stage1->program.NumTypes() < 5) GTEST_SKIP();
  if (seed == 0) {
    ASSERT_EQ(stage1->program.NumTypes(), 86u);
  }

  ReferenceResult ref = ReferenceGreedy(stage1->program, stage1->weight, opt);
  typing::ExecOptions exec;
  exec.num_threads = threads;
  auto fast = ClusterTypes(stage1->program, stage1->weight, opt, exec);
  ASSERT_TRUE(fast.ok());

  ASSERT_EQ(fast->steps.size(), ref.steps.size());
  for (size_t i = 0; i < ref.steps.size(); ++i) {
    EXPECT_EQ(fast->steps[i].source, ref.steps[i].source) << "step " << i;
    EXPECT_EQ(fast->steps[i].dest, ref.steps[i].dest) << "step " << i;
    EXPECT_EQ(fast->steps[i].simple_d, ref.steps[i].simple_d) << "step " << i;
    EXPECT_DOUBLE_EQ(fast->steps[i].cost, ref.steps[i].cost) << "step " << i;
  }
  // Cluster partitions agree: same stage-1 types grouped together.
  for (size_t i = 0; i < ref.cluster_of.size(); ++i) {
    for (size_t j = i + 1; j < ref.cluster_of.size(); ++j) {
      bool ref_same = ref.cluster_of[i] == ref.cluster_of[j];
      bool fast_same = fast->final_map[i] == fast->final_map[j];
      EXPECT_EQ(ref_same, fast_same) << i << " vs " << j;
    }
    bool ref_empty = ref.cluster_of[i] == kEmptyType;
    bool fast_empty = fast->final_map[i] == kEmptyType;
    EXPECT_EQ(ref_empty, fast_empty) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyDifferential,
    ::testing::Combine(::testing::Values(7u, 17u, 27u, 0u),
                       ::testing::Values(PsiKind::kSimpleD, PsiKind::kPsi1,
                                         PsiKind::kPsi2, PsiKind::kPsi3,
                                         PsiKind::kPsi4, PsiKind::kPsi5),
                       ::testing::Bool(), ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<DifferentialParam>& info) {
      uint64_t seed = std::get<0>(info.param);
      size_t threads = std::get<3>(info.param);
      return (seed == 0 ? std::string("dbg") : "seed" + std::to_string(seed)) +
             "_" + std::string(PsiKindName(std::get<1>(info.param))) +
             (std::get<2>(info.param) ? "_empty" : "_noempty") +
             (threads == 1 ? "" : "_t" + std::to_string(threads));
    });

}  // namespace
}  // namespace schemex::cluster

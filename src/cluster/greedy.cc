#include "cluster/greedy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <unordered_map>

#include "util/string_util.h"

namespace schemex::cluster {

namespace {

using typing::TypedLink;
using typing::TypeId;
using typing::TypeSignature;
using typing::TypingProgram;

/// Orders merge candidates the way a naive double loop would find them:
/// by cost, then by source id, then destination id with the empty-type
/// move losing all ties (it was checked last in the reference scan). The
/// incremental best-candidate cache below preserves this order exactly,
/// so the optimization cannot change results.
struct Candidate {
  TypeId source = -1;
  TypeId dest = -1;  // kEmptyType for the empty-type move
  size_t simple_d = 0;
  double cost = std::numeric_limits<double>::infinity();

  size_t DestRank() const {
    return dest == kEmptyType ? std::numeric_limits<size_t>::max()
                              : static_cast<size_t>(dest);
  }
  /// True if *this is a strictly better pick than `o` for the same source.
  /// Infinite-cost candidates never win (matching the reference scan,
  /// where `inf < inf` kept the empty sentinel and ended the clustering).
  bool BeatsAsDest(const Candidate& o) const {
    if (cost == std::numeric_limits<double>::infinity()) return false;
    if (cost != o.cost) return cost < o.cost;
    return DestRank() < o.DestRank();
  }
  /// True if *this beats `o` globally (across sources).
  bool BeatsGlobally(const Candidate& o) const {
    if (cost != o.cost) return cost < o.cost;
    if (source != o.source) return source < o.source;
    return DestRank() < o.DestRank();
  }
};

/// True for the psi kinds whose price never falls as d grows (weights
/// fixed), so pricing a lower bound on d(s, t) bounds the candidate.
bool CostRisesWithD(PsiKind psi) {
  switch (psi) {
    case PsiKind::kSimpleD:
    case PsiKind::kPsi1:
    case PsiKind::kPsi2:
    case PsiKind::kPsi4:
      return true;
    case PsiKind::kPsi3:
    case PsiKind::kPsi5:
      return false;
  }
  return false;
}

/// The greedy clusterer. It keeps no pairwise state: every rule body is a
/// sorted list of dense typed-link ids in one flat arena, and d(s, t) is
/// computed when a candidate is priced. Every merge step runs two phases:
///
///   M: apply the hypercube projection / link drop to the affected rule
///     bodies and re-encode them in place (bodies only shrink). This is
///     the only place new typed links get ids.
///   B: restore every live source's cached best move. A source is
///     rescanned only if its own body or weight changed or its cached
///     destination died; otherwise its cached move is re-priced, kept if
///     it did not get dearer, and the changed candidates are folded in.
class GreedyClusterer {
 public:
  GreedyClusterer(const TypingProgram& stage1,
                  const std::vector<uint32_t>& weights,
                  const ClusteringOptions& options)
      : options_(options),
        n_(stage1.NumTypes()),
        rises_(CostRisesWithD(options.psi)),
        names_(n_),
        sig_(n_),
        off_(n_),
        len_(n_),
        sketch_(n_),
        weight_(n_),
        log_w_(n_),
        initial_weight_(n_),
        alive_(n_, true),
        changed_(n_, 0),
        cluster_of_(n_),
        best_(n_),
        big_l_(stage1.NumDistinctTypedLinks()) {
    size_t arena = 0;
    for (size_t i = 0; i < n_; ++i) {
      names_[i] = stage1.type(static_cast<TypeId>(i)).name;
      sig_[i] = stage1.type(static_cast<TypeId>(i)).signature;
      weight_[i] = weights[i];
      log_w_[i] = std::log(std::max(weight_[i], 1.0));
      initial_weight_[i] = weights[i];
      cluster_of_[i] = static_cast<TypeId>(i);
      live_.push_back(i);
      off_[i] = arena;
      arena += sig_[i].size();
    }
    ids_.resize(arena);
    // Encoding in type order fixes the id universe.
    for (size_t i = 0; i < n_; ++i) EncodeBody(i);
    mark_.resize(link_id_.size(), 0);
    for (size_t s = 0; s < n_; ++s) RecomputeBest(s);
  }

  util::StatusOr<ClusteringResult> Run(const typing::ExecOptions& exec) {
    ClusteringResult result;
    size_t live = n_;
    if (options_.record_snapshots) {
      result.snapshots.push_back(MakeSnapshot(0.0));
    }
    double total = 0.0;
    while (live > options_.target_num_types) {
      SCHEMEX_RETURN_IF_ERROR(exec.Poll());
      Candidate best = PickGlobalBest();
      if (best.source < 0) break;  // nothing mergeable (live <= 1)
      Apply(best);
      --live;
      total += best.cost;
      result.steps.push_back(MergeStep{live, best.source, best.dest,
                                       best.simple_d, best.cost});
      if (options_.record_snapshots) {
        result.snapshots.push_back(MakeSnapshot(total));
      }
    }
    result.total_distance = total;
    result.rescans = rescans_;
    result.fold_ins = fold_ins_;
    result.distance_evals = distance_evals_;
    Snapshot fin = MakeSnapshot(total);
    result.final_program = std::move(fin.program);
    result.final_map = std::move(fin.stage1_to_snapshot);
    result.final_weights.assign(result.final_program.NumTypes(), 0);
    for (size_t i = 0; i < n_; ++i) {
      TypeId t = result.final_map[i];
      if (t != kEmptyType) {
        // Weight accumulates per *Stage-1* home population, which is what
        // the original weights measured.
        result.final_weights[static_cast<size_t>(t)] += initial_weight_[i];
      }
    }
    return result;
  }

 private:
  std::span<const uint32_t> Body(size_t i) const {
    return {ids_.data() + off_[i], len_[i]};
  }

  /// Writes sig_[i] into its arena slot as sorted typed-link ids, giving
  /// unseen links the next id. Bodies only shrink under RemapTarget /
  /// Erase, so the slot sized at construction always fits.
  void EncodeBody(size_t i) {
    uint32_t* out = ids_.data() + off_[i];
    size_t len = 0;
    for (const TypedLink& l : sig_[i].links()) {
      // Lookup-only map: it is never iterated, so its order is irrelevant.
      auto it = link_id_.try_emplace(l, static_cast<uint32_t>(link_id_.size()))
                    .first;
      out[len++] = it->second;
    }
    std::sort(out, out + len);
    len_[i] = len;
    uint64_t sketch = 0;
    for (size_t k = 0; k < len; ++k) sketch |= uint64_t{1} << (out[k] % 64);
    sketch_[i] = sketch;
  }

  /// d(a, b) by merging the two sorted id lists.
  size_t MergeDistance(size_t a, size_t b) const {
    std::span<const uint32_t> x = Body(a);
    std::span<const uint32_t> y = Body(b);
    size_t common = 0;
    for (size_t i = 0, j = 0; i < x.size() && j < y.size();) {
      if (x[i] < y[j]) {
        ++i;
      } else if (y[j] < x[i]) {
        ++j;
      } else {
        ++common;
        ++i;
        ++j;
      }
    }
    return x.size() + y.size() - 2 * common;
  }

  Candidate MakeCandidate(size_t s, size_t t, size_t d) const {
    return Candidate{static_cast<TypeId>(s), static_cast<TypeId>(t), d,
                     WeightedDistance(options_.psi, weight_[t], weight_[s], d,
                                      big_l_)};
  }

  Candidate MakeEmptyCandidate(size_t s) const {
    return Candidate{static_cast<TypeId>(s), kEmptyType, len_[s],
                     WeightedDistance(options_.psi,
                                      std::max(empty_weight_, 1.0),
                                      weight_[s], len_[s], big_l_)};
  }

  /// Prices the move of `s` into live type `t` outside a rescan, merging
  /// the two sorted id lists.
  Candidate Price(size_t s, TypeId t) {
    ++distance_evals_;
    size_t dest = static_cast<size_t>(t);
    return MakeCandidate(s, dest, MergeDistance(s, dest));
  }

  /// A lower bound on d(s, t): the size gap ||s| - |t||, or the number of
  /// sketch buckets only one body hits (each such bucket holds a link of
  /// that body missing from the other).
  size_t LeastD(size_t s, size_t t) const {
    size_t gap = len_[s] > len_[t] ? len_[s] - len_[t] : len_[t] - len_[s];
    return std::max(
        gap, static_cast<size_t>(std::popcount(sketch_[s] ^ sketch_[t])));
  }

  /// For psi3 and psi5, which may fall as d grows: a floor on ln(price)
  /// of moving `s` into `t` over lo <= d <= |s| + |t|, lo >= 1. For fixed
  /// weights both are monotone in d, so the floor sits at one end.
  double LogPriceFloor(size_t s, size_t t, size_t lo) const {
    const double hi = static_cast<double>(len_[s] + len_[t]);
    if (options_.psi == PsiKind::kPsi3) return (log_w_[s] + log_w_[t]) / hi;
    const double r = log_w_[s] - log_w_[t];  // psi5: ln(w2 / w1)
    return r >= 0 ? r / hi : r / static_cast<double>(lo);
  }

  /// True if moving `s` into `t` cannot beat `best` (whose price has log
  /// `log_best`) at any d from LeastD(s, t) to |s| + |t|, so the candidate
  /// need not be priced. Kinds that rise with d are priced at LeastD
  /// exactly. For psi3 and psi5 the log-space floor must clear log_best
  /// by a slack far above the rounding of pow and log, so a candidate
  /// that ties or wins is never skipped.
  bool CannotBeat(size_t s, size_t t, const Candidate& best,
                  double log_best) const {
    const size_t lo = LeastD(s, t);
    if (rises_) return !MakeCandidate(s, t, lo).BeatsAsDest(best);
    if (lo == 0) return false;  // d may be 0, which is free
    const double floor = LogPriceFloor(s, t, lo);
    // A floor of 0 (psi3 with unit weights, psi5 with equal ones) means
    // the price is exactly 1 at every d >= 1: compare exactly.
    if (floor == 0) return !MakeCandidate(s, t, lo).BeatsAsDest(best);
    return floor > log_best + 1e-9;
  }

  /// ln(best.cost), which CannotBeat needs for psi3 and psi5 only.
  double LogCost(const Candidate& best) const {
    return rises_ ? 0 : std::log(best.cost);
  }

  /// Full rescan of the best move out of source `s`: marks s's ids, then
  /// counts each candidate's ids that hit a mark, skipping the candidates
  /// CannotBeat rules out unpriced.
  void RecomputeBest(size_t s) {
    if (++epoch_ == 0) {  // stamp wrapped: forget every old mark
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
    for (uint32_t id : Body(s)) mark_[id] = epoch_;
    Candidate best;
    best.source = static_cast<TypeId>(s);
    if (options_.enable_empty_type) {
      Candidate c = MakeEmptyCandidate(s);
      if (c.BeatsAsDest(best)) best = c;
    }
    double log_best = LogCost(best);
    for (size_t t : live_) {
      if (t == s || CannotBeat(s, t, best, log_best)) continue;
      size_t common = 0;
      for (uint32_t id : Body(t)) common += mark_[id] == epoch_;
      ++distance_evals_;
      Candidate c = MakeCandidate(s, t, len_[s] + len_[t] - 2 * common);
      if (c.BeatsAsDest(best)) {
        best = c;
        log_best = LogCost(best);
      }
    }
    best_[s] = best;
  }

  Candidate PickGlobalBest() const {
    Candidate best;  // source = -1, cost = inf
    for (size_t s : live_) {
      if (best_[s].dest == -1 && best_[s].cost ==
                                     std::numeric_limits<double>::infinity()) {
        continue;  // no destination available (single cluster, no empty)
      }
      if (best.source < 0 || best_[s].BeatsGlobally(best)) best = best_[s];
    }
    return best;
  }

  /// Phase B after merge `c`: restores each live best_[j] to the true
  /// minimum under (cost, dest-rank). Only the
  /// candidates in changed_list_ and, after an empty move, the empty type
  /// can have changed price. Every other candidate kept its price and
  /// already lost to the cached move, so if that move did not get dearer
  /// it still beats them, and folding in the changed candidates yields the
  /// exact minimum a rescan would find.
  void RestoreBest(const Candidate& c) {
    const bool empty_dest = c.dest == kEmptyType;
    for (size_t j : live_) {
      Candidate& best = best_[j];
      const TypeId cached = best.dest;
      // Rescan if j's own body or weight changed or its destination died;
      // otherwise re-price the cached move if its price may have moved,
      // and rescan only if it got dearer.
      bool rescan = changed_[j] || cached == c.source;
      if (!rescan && (cached >= 0 ? changed_[static_cast<size_t>(cached)]
                                  : cached == kEmptyType && empty_dest)) {
        ++fold_ins_;
        Candidate now = cached == kEmptyType ? MakeEmptyCandidate(j)
                                             : Price(j, cached);
        rescan = now.cost > best.cost;
        if (!rescan) best = now;
      }
      if (rescan) {
        ++rescans_;
        RecomputeBest(j);
        continue;
      }
      double log_best = LogCost(best);
      for (size_t t : changed_list_) {
        if (t == j || static_cast<TypeId>(t) == cached) continue;
        ++fold_ins_;
        if (CannotBeat(j, t, best, log_best)) continue;
        Candidate cand = Price(j, static_cast<TypeId>(t));
        if (cand.BeatsAsDest(best)) {
          best = cand;
          log_best = LogCost(best);
        }
      }
      if (empty_dest && options_.enable_empty_type && cached != kEmptyType) {
        ++fold_ins_;
        Candidate cand = MakeEmptyCandidate(j);
        if (cand.BeatsAsDest(best)) best = cand;
      }
    }
  }

  void Apply(const Candidate& c) {
    size_t s = static_cast<size_t>(c.source);
    alive_[s] = false;
    live_.erase(std::find(live_.begin(), live_.end(), s));
    for (TypeId& cl : cluster_of_) {
      if (cl == c.source) cl = c.dest;
    }

    // Phase M: mutate the affected rule bodies and re-encode them. It is
    // the only place new typed links (retargeted to c.dest) get ids.
    const bool empty_dest = c.dest == kEmptyType;
    std::fill(changed_.begin(), changed_.end(), uint8_t{0});
    changed_list_.clear();
    for (size_t i : live_) {
      bool references_s = false;
      for (const TypedLink& l : sig_[i].links()) {
        if (l.target == c.source) {
          references_s = true;
          break;
        }
      }
      if (!references_s) continue;
      if (empty_dest) {
        // Typed links targeting s can no longer be witnessed by
        // classified objects; drop them from the surviving rule body.
        TypeSignature next = sig_[i];
        for (const TypedLink& l : sig_[i].links()) {
          if (l.target == c.source) next.Erase(l);
        }
        sig_[i] = std::move(next);
      } else {
        // Hypercube projection: every reference to s becomes one to t.
        sig_[i].RemapTarget(c.source, c.dest);
      }
      EncodeBody(i);
      changed_[i] = 1;
      changed_list_.push_back(i);
    }
    mark_.resize(link_id_.size(), 0);
    if (empty_dest) {
      empty_weight_ += weight_[s];
    } else {
      size_t t = static_cast<size_t>(c.dest);
      weight_[t] += weight_[s];
      log_w_[t] = std::log(std::max(weight_[t], 1.0));
      if (!changed_[t]) {
        changed_[t] = 1;
        changed_list_.insert(
            std::lower_bound(changed_list_.begin(), changed_list_.end(), t),
            t);
      }
    }

    // Phase B: restore every cached best to the true minimum over the
    // fresh state.
    RestoreBest(c);
  }

  Snapshot MakeSnapshot(double total) const {
    Snapshot snap;
    std::vector<TypeId> dense(n_, kEmptyType);
    for (size_t i = 0; i < n_; ++i) {
      if (!alive_[i]) continue;
      dense[i] = static_cast<TypeId>(snap.program.NumTypes());
      TypeSignature sig = sig_[i];
      snap.program.AddType(names_[i], std::move(sig));
    }
    // Snapshot signatures still reference cluster indices; remap to dense.
    for (size_t t = 0; t < snap.program.NumTypes(); ++t) {
      snap.program.type(static_cast<TypeId>(t))
          .signature.RemapTargets(dense);
    }
    snap.stage1_to_snapshot.resize(n_);
    for (size_t i = 0; i < n_; ++i) {
      TypeId cl = cluster_of_[i];
      snap.stage1_to_snapshot[i] =
          cl == kEmptyType ? kEmptyType : dense[static_cast<size_t>(cl)];
    }
    snap.num_types = snap.program.NumTypes();
    snap.total_distance = total;
    return snap;
  }

  struct LinkHash {
    size_t operator()(const TypedLink& l) const {
      return static_cast<size_t>(typing::HashTypedLink(l));
    }
  };

  const ClusteringOptions options_;
  const size_t n_;
  const bool rises_;              // CostRisesWithD(options_.psi)
  std::vector<std::string> names_;
  std::vector<TypeSignature> sig_;
  // Rule bodies as sorted typed-link ids: body i is
  // ids_[off_[i], off_[i] + len_[i]).
  std::unordered_map<TypedLink, uint32_t, LinkHash> link_id_;
  std::vector<uint32_t> ids_;
  std::vector<size_t> off_;
  std::vector<size_t> len_;
  std::vector<uint64_t> sketch_;  // body i's ids hashed into 64 buckets
  std::vector<double> weight_;
  std::vector<double> log_w_;  // ln(max(weight_, 1)), the weights psi sees
  std::vector<uint64_t> initial_weight_;
  std::vector<bool> alive_;
  std::vector<size_t> live_;  // ascending ids of alive_ entries
  // Per merge: types whose body or weight changed, and their ascending
  // ids.
  std::vector<uint8_t> changed_;
  std::vector<size_t> changed_list_;
  std::vector<TypeId> cluster_of_;
  std::vector<Candidate> best_;  // per live source: its best move
  double empty_weight_ = 0.0;
  const size_t big_l_;
  // A stamp per typed-link id marking the source body of the current
  // rescan.
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  size_t rescans_ = 0;
  size_t fold_ins_ = 0;
  size_t distance_evals_ = 0;
};

}  // namespace

util::StatusOr<ClusteringResult> ClusterTypes(
    const TypingProgram& stage1, const std::vector<uint32_t>& weights,
    const ClusteringOptions& options, const typing::ExecOptions& exec) {
  if (weights.size() != stage1.NumTypes()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "weights (%zu) must match number of types (%zu)", weights.size(),
        stage1.NumTypes()));
  }
  if (options.target_num_types < 1) {
    return util::Status::InvalidArgument("target_num_types must be >= 1");
  }
  SCHEMEX_RETURN_IF_ERROR(stage1.Validate());
  GreedyClusterer clusterer(stage1, weights, options);
  return clusterer.Run(exec);
}

}  // namespace schemex::cluster

#ifndef SCHEMEX_CLUSTER_DISTANCE_H_
#define SCHEMEX_CLUSTER_DISTANCE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string_view>

#include "typing/type_signature.h"

namespace schemex::cluster {

/// The weighted distance functions of §5.2. All take the simple Manhattan
/// distance d (symmetric difference of rule bodies), the weights w1 (the
/// destination type: objects stay) and w2 (the source type: its objects
/// move into the destination), and L (the number of distinct typed links
/// in the Stage-1 program). The functions are deliberately asymmetric:
/// psi(w1, w2, d) prices "moving w2 objects into type 1".
enum class PsiKind {
  kSimpleD,  ///< d alone, ignoring weights
  kPsi1,     ///< L^d / (w1 * w2)
  kPsi2,     ///< d * w2 — the "weighted Manhattan distance" used in the
             ///< paper's experiments (§7.1)
  kPsi3,     ///< (w1 * w2)^(1/d)
  kPsi4,     ///< L^d * w2
  kPsi5,     ///< (w2 / w1)^(1/d)
};

/// Stable names for reports ("psi2", ...).
std::string_view PsiKindName(PsiKind kind);

/// Evaluates the chosen function. Conventions for edge cases:
///  * d == 0: merging identical types is free — returns 0 for every kind
///    (the exponent-based kinds are undefined at d = 0 otherwise);
///  * weights are clamped below at 1 so the ratio/product forms stay
///    finite when a virtual (e.g. empty) type starts at weight 0;
///  * results may overflow to +inf for the exponential kinds (L^d); +inf
///    compares correctly in "pick the minimum" loops.
///
/// Inline: Stage 2 prices millions of candidates per clustering.
inline double WeightedDistance(PsiKind kind, double w1, double w2, size_t d,
                               size_t L) {
  if (d == 0) return 0.0;
  w1 = std::max(w1, 1.0);
  w2 = std::max(w2, 1.0);
  const double dd = static_cast<double>(d);
  const double ll = std::max<double>(static_cast<double>(L), 2.0);
  switch (kind) {
    case PsiKind::kSimpleD:
      return dd;
    case PsiKind::kPsi1:
      return std::pow(ll, dd) / (w1 * w2);
    case PsiKind::kPsi2:
      return dd * w2;
    case PsiKind::kPsi3:
      return std::pow(w1 * w2, 1.0 / dd);
    case PsiKind::kPsi4:
      return std::pow(ll, dd) * w2;
    case PsiKind::kPsi5:
      return std::pow(w2 / w1, 1.0 / dd);
  }
  return dd;
}

/// d(t1, t2): symmetric difference of the two rule bodies (Example 5.2).
inline size_t SimpleDistance(const typing::TypeSignature& a,
                             const typing::TypeSignature& b) {
  return typing::TypeSignature::SymmetricDifferenceSize(a, b);
}

}  // namespace schemex::cluster

#endif  // SCHEMEX_CLUSTER_DISTANCE_H_

#include "cluster/distance.h"

namespace schemex::cluster {

std::string_view PsiKindName(PsiKind kind) {
  switch (kind) {
    case PsiKind::kSimpleD:
      return "d";
    case PsiKind::kPsi1:
      return "psi1";
    case PsiKind::kPsi2:
      return "psi2";
    case PsiKind::kPsi3:
      return "psi3";
    case PsiKind::kPsi4:
      return "psi4";
    case PsiKind::kPsi5:
      return "psi5";
  }
  return "?";
}

}  // namespace schemex::cluster

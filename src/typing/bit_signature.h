#ifndef SCHEMEX_TYPING_BIT_SIGNATURE_H_
#define SCHEMEX_TYPING_BIT_SIGNATURE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "typing/type_signature.h"
#include "typing/typing_program.h"

namespace schemex::typing {

/// A TypeSignature packed into fixed-width bit-vector form: one bit per
/// distinct typed link of the owning BitSignatureIndex's universe, so the
/// paper's symmetric-difference distance d(t1, t2) (§5.2) becomes an
/// XOR + popcount loop over uint64_t words instead of a sorted-vector
/// merge. `extra` counts links of the source signature that lie OUTSIDE
/// the universe (only EncodeFrozen produces them); each such link can
/// never match a universe-only signature, so it contributes exactly +1 to
/// any distance against one.
struct BitSignature {
  std::vector<uint64_t> words;
  uint32_t extra = 0;
};

/// Maps the distinct typed links of a program (plus any discovered later)
/// to dense bit positions, assigned in first-encounter order — rebuilding
/// the index over the same signatures in the same order always yields the
/// same packing, which keeps every parallel consumer deterministic.
///
/// Two encoding modes:
///  * Encode() registers unseen links, growing the universe; use it for
///    signatures that themselves define the space (the program's own rule
///    bodies).
///  * EncodeFrozen() is const and counts unseen links in `extra`; use it
///    for probe signatures (Stage-3 object pictures) compared only
///    against universe-only signatures.
///
/// Encodings taken at different universe sizes stay comparable: Distance
/// zero-extends the shorter word vector, and bits are only ever appended,
/// never reassigned.
///
/// Not thread-safe for Encode; EncodeFrozen and Distance are safe to call
/// concurrently with each other (no mutation).
///
/// Users: the k-center and exhaustive-search Stage-2 clusterers, which
/// fill all-pairs matrices, and Stage 3's recast / IncrementalTyper, which
/// probe object pictures against a fixed program. Greedy Stage 2 does not
/// use it: its rule bodies hold a handful of links each, where a dense
/// word sweep costs O(universe / 64) per pair, so it computes sparse
/// distances on demand over sorted typed-link ids instead.
class BitSignatureIndex {
 public:
  BitSignatureIndex() = default;

  /// Registers every distinct typed link of `program`, in type order.
  explicit BitSignatureIndex(const TypingProgram& program);

  /// Number of distinct typed links registered so far (the live L).
  size_t NumBits() const { return bit_of_.size(); }

  /// Words needed to hold every registered bit.
  size_t NumWords() const { return (NumBits() + 63) / 64; }

  /// Packs `sig`, assigning fresh bits to unseen links (mutating).
  BitSignature Encode(const TypeSignature& sig);

  /// Packs `sig` without growing the universe; out-of-universe links are
  /// tallied in the result's `extra`.
  BitSignature EncodeFrozen(const TypeSignature& sig) const;

  /// |a Δ b| over the packed words (+ both extras). Exactly equal to
  /// TypeSignature::SymmetricDifferenceSize for encodings of this index
  /// whenever at most one side carries extras and the other is
  /// universe-only — the only way this class hands them out.
  static size_t Distance(const BitSignature& a, const BitSignature& b);

 private:
  struct LinkHash {
    size_t operator()(const TypedLink& l) const {
      return static_cast<size_t>(HashTypedLink(l));
    }
  };

  uint32_t GetOrAddBit(const TypedLink& l);

  std::unordered_map<TypedLink, uint32_t, LinkHash> bit_of_;
};

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_BIT_SIGNATURE_H_

#include "core/signature_algebra.h"

namespace pcube {

namespace {

/// Intersects the subtrees of node `sid` (at path length `level`) into
/// `out`; returns false when no tuple of the subtree is in both inputs.
bool IntersectRec(const Signature& a, const Signature& b, uint64_t sid,
                  int level, Signature* out) {
  const BitVector* x = a.Node(sid);
  const BitVector* y = b.Node(sid);
  if (x == nullptr || y == nullptr) return false;
  BitVector bits = *x;
  // The kernel-backed AND reports liveness as it combines (one pass, no
  // separate AnySet scan); a dead intersection prunes the whole subtree.
  if (!bits.InplaceAnd(*y)) return false;
  if (level + 1 < a.levels()) {
    // Inner level: a set bit must be confirmed by a non-empty child
    // intersection.
    const uint64_t base = a.fanout() + 1;
    for (size_t bit = bits.FindNextSet(0); bit < bits.size();
         bit = bits.FindNextSet(bit + 1)) {
      if (!IntersectRec(a, b, sid * base + bit + 1, level + 1, out)) {
        bits.Clear(bit);
      }
    }
    if (!bits.AnySet()) return false;
  }
  out->AddNode(sid, std::move(bits));
  return true;
}

}  // namespace

Signature SignatureUnion(const Signature& a, const Signature& b) {
  PCUBE_CHECK_EQ(a.fanout(), b.fanout());
  PCUBE_CHECK_EQ(a.levels(), b.levels());
  Signature out(a.fanout(), a.levels());
  for (const auto& [sid, bits] : a.nodes()) {
    BitVector merged = bits;
    if (const BitVector* other = b.Node(sid)) merged.InplaceOr(*other);
    out.AddNode(sid, std::move(merged));
  }
  for (const auto& [sid, bits] : b.nodes()) {
    if (a.Node(sid) == nullptr) out.AddNode(sid, bits);
  }
  return out;
}

Signature SignatureIntersect(const Signature& a, const Signature& b) {
  PCUBE_CHECK_EQ(a.fanout(), b.fanout());
  PCUBE_CHECK_EQ(a.levels(), b.levels());
  Signature out(a.fanout(), a.levels());
  IntersectRec(a, b, 0, 0, &out);
  return out;
}

}  // namespace pcube

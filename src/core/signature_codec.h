// Compression and decomposition of signatures into page-sized *partial
// signatures* (paper §IV.B.1) and the symmetric reassembly used at query
// time (§IV.B.2).
//
// Encoding walks the signature tree breadth-first from the root, appending
// each node's adaptively-compressed bit array (bitmap/codec.h) until the
// page payload is full: that prefix becomes the partial signature referenced
// by the root's SID. Remaining nodes are emitted the same way from partials
// rooted at the first uncovered subtrees, in BFS order of their roots — the
// paper's "start from the first child N1 of the root ... nodes coded by
// previous partial signatures will be skipped".
//
// Decoding is exactly symmetric: to decode a partial rooted at path P, walk
// subtree(P) breadth-first, skipping nodes already decoded from
// earlier-generated partials (ascending SID == generation order, which the
// cursor guarantees by loading root-to-leaf prefixes in order), and consume
// one compressed array per remaining node until the payload is exhausted.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/signature.h"

namespace pcube {

/// One page-sized fragment of a cell's signature.
struct PartialSignature {
  uint64_t root_sid = 0;
  /// Root path (redundant with root_sid given fanout/level, kept for
  /// convenience during encoding; decode reconstructs it from context).
  Path root_path;
  std::vector<uint8_t> bytes;
};

/// Fragment of a signature being reassembled at query time: the set of
/// node arrays decoded so far, keyed by node SID (rtree/path.h; a SID names
/// one node of the tree, whatever its level).
class SignatureFragment {
 public:
  SignatureFragment(uint32_t fanout, int levels)
      : m_(fanout), levels_(levels) {}

  uint32_t fanout() const { return m_; }
  int levels() const { return levels_; }

  bool HasNode(uint64_t sid) const { return arrays_.count(sid) > 0; }
  const BitVector* Node(uint64_t sid) const {
    auto it = arrays_.find(sid);
    return it == arrays_.end() ? nullptr : &it->second;
  }
  /// No-op when the node is already present.
  void AddNode(uint64_t sid, BitVector bits) {
    arrays_.emplace(sid, std::move(bits));
  }

  size_t num_nodes() const { return arrays_.size(); }

  /// Converts the (complete) fragment back into a Signature; used by
  /// maintenance and round-trip tests.
  Signature ToSignature() const;

 private:
  uint32_t m_;
  int levels_;
  std::unordered_map<uint64_t, BitVector> arrays_;
};

/// Splits `sig` into compressed partial signatures, each with payload size
/// <= max_payload bytes (one disk page each in the store).
std::vector<PartialSignature> DecomposeSignature(const Signature& sig,
                                                 size_t max_payload);

/// Decodes one partial signature (rooted at the node `root_sid`) into
/// `fragment`, skipping nodes the fragment already contains. Fails with
/// Corruption when the payload does not align with the fragment's current
/// state — which happens if ancestor partials were not decoded first.
///
/// When `added` is non-null it collects (sid, bits) for every node this
/// call contributed, in decode order. Because cursors always load partials
/// along root-to-leaf prefixes in order, the contributed set is a pure
/// function of (cell, sid) — which is what makes the decode cacheable and
/// replayable into another query's fragment (cache/fragment_cache.h).
Status DecodePartialSignature(
    uint64_t root_sid, const std::vector<uint8_t>& bytes,
    SignatureFragment* fragment,
    std::vector<std::pair<uint64_t, BitVector>>* added = nullptr);

}  // namespace pcube

// Compression and decomposition of signatures into page-sized *partial
// signatures* (paper §IV.B.1) and the symmetric reassembly used at query
// time (§IV.B.2).
//
// Encoding walks the signature's nodes breadth-first from the root, appending
// each node's adaptively-compressed bit array (bitmap/codec.h) until the
// page payload is full: that prefix becomes the partial signature referenced
// by the root's SID. Remaining nodes are emitted the same way from partials
// rooted at the first uncovered subtrees, in BFS order of their roots — the
// paper's "start from the first child N1 of the root ... nodes coded by
// previous partial signatures will be skipped".
//
// Decoding is exactly symmetric: to decode a partial rooted at node P, walk
// subtree(P) breadth-first, skipping nodes already decoded from
// earlier-generated partials (ascending SID == generation order, which the
// cursor guarantees by loading root-to-leaf prefixes in order), and consume
// one compressed array per remaining node until the payload is exhausted.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/signature.h"

namespace pcube {

/// One page-sized fragment of a cell's signature.
struct PartialSignature {
  uint64_t root_sid = 0;
  std::vector<uint8_t> bytes;
};

/// Splits `sig` into compressed partial signatures, each with payload size
/// <= max_payload bytes (one disk page each in the store).
std::vector<PartialSignature> DecomposeSignature(const Signature& sig,
                                                 size_t max_payload);

/// Decodes one partial signature (rooted at the node `root_sid`) into
/// `sig`, skipping nodes `sig` already contains. Fails with Corruption when
/// the payload does not align with the nodes decoded so far — which happens
/// if ancestor partials were not decoded first.
///
/// When `added` is non-null it collects (sid, bits) for every node this
/// call contributed, in decode order. Because cursors always load partials
/// along root-to-leaf prefixes in order, the contributed set is a pure
/// function of (cell, sid) — which is what makes the decode cacheable and
/// replayable into another query's signature (cache/fragment_cache.h).
Status DecodePartialSignature(
    uint64_t root_sid, const std::vector<uint8_t>& bytes, Signature* sig,
    std::vector<std::pair<uint64_t, BitVector>>* added = nullptr);

}  // namespace pcube

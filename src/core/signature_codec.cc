#include "core/signature_codec.h"

#include <unordered_set>

#include "bitmap/codec.h"

namespace pcube {

namespace {

/// A node in a breadth-first walk: its SID and path length.
struct BfsNode {
  uint64_t sid;
  int level;
};

/// Appends the SIDs of the children under `bits`' set slots, in slot order.
void PushChildren(const BfsNode& x, const BitVector& bits, uint64_t base,
                  std::vector<BfsNode>* queue) {
  for (size_t bit = bits.FindNextSet(0); bit < bits.size();
       bit = bits.FindNextSet(bit + 1)) {
    queue->push_back({x.sid * base + bit + 1, x.level + 1});
  }
}

}  // namespace

std::vector<PartialSignature> DecomposeSignature(const Signature& sig,
                                                 size_t max_payload) {
  std::vector<PartialSignature> out;
  if (sig.Empty()) return out;
  const int levels = sig.levels();
  const uint64_t base = sig.fanout() + 1;

  std::unordered_set<uint64_t> coded;  // every node is coded exactly once
  coded.reserve(sig.CountNodes());
  std::vector<BfsNode> roots{{0, 0}};
  std::vector<BfsNode> bfs;
  for (size_t r = 0; r < roots.size(); ++r) {
    const BfsNode root = roots[r];
    PartialSignature partial;
    partial.root_sid = root.sid;
    bool cut = false;

    bfs.assign(1, root);
    for (size_t head = 0; head < bfs.size(); ++head) {
      const BfsNode x = bfs[head];
      const BitVector* bits = sig.Node(x.sid);
      PCUBE_DCHECK(bits != nullptr);
      if (coded.count(x.sid) == 0) {
        size_t before = partial.bytes.size();
        BitmapCodec::Encode(*bits, &partial.bytes);
        if (partial.bytes.size() > max_payload) {
          PCUBE_CHECK_GT(before, size_t{0})
              << "single node array exceeds partial-signature payload";
          partial.bytes.resize(before);  // drop the overflowing node
          cut = true;
          break;
        }
        coded.insert(x.sid);
      }
      if (x.level + 1 < levels) PushChildren(x, *bits, base, &bfs);
    }

    if (!partial.bytes.empty()) out.push_back(std::move(partial));
    if (cut && root.level + 1 < levels) {
      // Subtree not fully covered: its children become partial roots, in
      // slot order (BFS generation order == ascending SID).
      PushChildren(root, *sig.Node(root.sid), base, &roots);
    }
  }
  return out;
}

Status DecodePartialSignature(
    uint64_t root_sid, const std::vector<uint8_t>& bytes, Signature* sig,
    std::vector<std::pair<uint64_t, BitVector>>* added) {
  const int levels = sig->levels();
  const uint64_t base = sig->fanout() + 1;
  size_t offset = 0;
  std::vector<BfsNode> bfs{{root_sid, SidLevel(root_sid, sig->fanout())}};
  for (size_t head = 0; head < bfs.size(); ++head) {
    const BfsNode x = bfs[head];
    const BitVector* bits = sig->Node(x.sid);
    if (bits == nullptr) {
      if (offset >= bytes.size()) break;  // cut point: rest is in later partials
      BitVector decoded;
      PCUBE_RETURN_NOT_OK(
          BitmapCodec::Decode(bytes.data(), bytes.size(), &offset, &decoded));
      if (added != nullptr) added->emplace_back(x.sid, decoded);
      sig->AddNode(x.sid, std::move(decoded));
      bits = sig->Node(x.sid);
    }
    if (x.level + 1 < levels) PushChildren(x, *bits, base, &bfs);
  }
  if (offset != bytes.size()) {
    return Status::Corruption("partial signature has trailing bytes");
  }
  return Status::OK();
}

}  // namespace pcube

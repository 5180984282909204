#include "core/signature_codec.h"

#include <algorithm>
#include <deque>
#include <set>

#include "bitmap/codec.h"

namespace pcube {

Signature SignatureFragment::ToSignature() const {
  Signature sig(m_, levels_);
  // A parent's SID is below its children's (child = parent * (M+1) + slot),
  // so ascending SIDs materialise parents first.
  std::vector<uint64_t> sids;
  sids.reserve(arrays_.size());
  for (const auto& [sid, bits] : arrays_) sids.push_back(sid);
  std::sort(sids.begin(), sids.end());
  for (uint64_t sid : sids) {
    SignatureNode* node = &sig.mutable_root();
    for (uint16_t slot : SidToPath(sid, m_, SidLevel(sid, m_))) {
      auto& child = node->children[slot];
      if (!child) child = std::make_unique<SignatureNode>();
      node = child.get();
    }
    node->bits = arrays_.at(sid);
  }
  return sig;
}

std::vector<PartialSignature> DecomposeSignature(const Signature& sig,
                                                 size_t max_payload) {
  std::vector<PartialSignature> out;
  if (sig.root().bits.empty() || !sig.root().bits.AnySet()) return out;
  const int levels = sig.levels();
  const uint32_t m = sig.fanout();

  std::set<Path> coded;
  std::deque<Path> roots;
  roots.push_back({});

  while (!roots.empty()) {
    Path p = std::move(roots.front());
    roots.pop_front();
    const SignatureNode* root_node = sig.FindNode(p);
    if (root_node == nullptr) continue;

    PartialSignature partial;
    partial.root_sid = PathToSid(p, m);
    partial.root_path = p;
    bool cut = false;

    std::deque<Path> bfs;
    bfs.push_back(p);
    while (!bfs.empty()) {
      Path x = std::move(bfs.front());
      bfs.pop_front();
      const SignatureNode* node = sig.FindNode(x);
      PCUBE_DCHECK(node != nullptr);
      if (coded.find(x) == coded.end()) {
        size_t before = partial.bytes.size();
        BitmapCodec::Encode(node->bits, &partial.bytes);
        if (partial.bytes.size() > max_payload) {
          PCUBE_CHECK_GT(before, size_t{0})
              << "single node array exceeds partial-signature payload";
          partial.bytes.resize(before);  // drop the overflowing node
          cut = true;
          break;
        }
        coded.insert(x);
      }
      if (static_cast<int>(x.size()) + 1 < levels) {
        for (size_t bit = node->bits.FindNextSet(0); bit < node->bits.size();
             bit = node->bits.FindNextSet(bit + 1)) {
          Path child = x;
          child.push_back(static_cast<uint16_t>(bit + 1));
          bfs.push_back(std::move(child));
        }
      }
    }

    if (!partial.bytes.empty()) out.push_back(std::move(partial));
    if (cut && static_cast<int>(p.size()) + 1 < levels) {
      // Subtree not fully covered: its children become partial roots, in
      // slot order (BFS generation order == ascending SID).
      for (size_t bit = root_node->bits.FindNextSet(0);
           bit < root_node->bits.size();
           bit = root_node->bits.FindNextSet(bit + 1)) {
        Path child = p;
        child.push_back(static_cast<uint16_t>(bit + 1));
        roots.push_back(std::move(child));
      }
    }
  }
  return out;
}

Status DecodePartialSignature(
    uint64_t root_sid, const std::vector<uint8_t>& bytes,
    SignatureFragment* fragment,
    std::vector<std::pair<uint64_t, BitVector>>* added) {
  const int levels = fragment->levels();
  const uint64_t base = fragment->fanout() + 1;
  struct Pending {
    uint64_t sid;
    int level;  // path length of the node
  };
  size_t offset = 0;
  std::vector<Pending> bfs{{root_sid, SidLevel(root_sid, fragment->fanout())}};
  for (size_t head = 0; head < bfs.size(); ++head) {
    const Pending x = bfs[head];
    const BitVector* bits = fragment->Node(x.sid);
    if (bits == nullptr) {
      if (offset >= bytes.size()) break;  // cut point: rest is in later partials
      BitVector decoded;
      PCUBE_RETURN_NOT_OK(
          BitmapCodec::Decode(bytes.data(), bytes.size(), &offset, &decoded));
      if (added != nullptr) added->emplace_back(x.sid, decoded);
      fragment->AddNode(x.sid, std::move(decoded));
      bits = fragment->Node(x.sid);
    }
    if (x.level + 1 < levels) {
      for (size_t bit = bits->FindNextSet(0); bit < bits->size();
           bit = bits->FindNextSet(bit + 1)) {
        bfs.push_back({x.sid * base + bit + 1, x.level + 1});
      }
    }
  }
  if (offset != bytes.size()) {
    return Status::Corruption("partial signature has trailing bytes");
  }
  return Status::OK();
}

}  // namespace pcube

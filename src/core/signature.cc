#include "core/signature.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <vector>

namespace pcube {

void Signature::SetPath(const Path& p) {
  PCUBE_CHECK_EQ(p.size(), static_cast<size_t>(levels_));
  uint64_t sid = 0;
  for (uint16_t slot : p) {
    PCUBE_DCHECK_GE(slot, 1);
    PCUBE_DCHECK_LE(slot, m_);
    nodes_.try_emplace(sid, m_).first->second.Set(slot - 1);
    sid = sid * (m_ + 1) + slot;
  }
}

void Signature::ClearPath(const Path& p) {
  PCUBE_CHECK_EQ(p.size(), static_cast<size_t>(levels_));
  // sids[i] names the depth-i node on the path. A node exists only under a
  // set parent bit, so a missing leaf node means the path is not present.
  std::array<uint64_t, Path::kMaxLength> sids;
  uint64_t sid = 0;
  for (int i = 0; i < levels_; ++i) {
    sids[i] = sid;
    sid = sid * (m_ + 1) + p[i];
  }
  // Clear bottom-up while arrays go empty.
  for (int i = levels_ - 1; i >= 0; --i) {
    auto it = nodes_.find(sids[i]);
    if (it == nodes_.end()) return;
    it->second.Clear(p[i] - 1);
    if (it->second.AnySet()) return;
    nodes_.erase(it);
  }
}

bool Signature::Test(const Path& p) const {
  PCUBE_DCHECK_GE(p.size(), size_t{1});
  PCUBE_DCHECK_LE(p.size(), static_cast<size_t>(levels_));
  uint64_t sid = 0;
  for (uint16_t slot : p) {
    const BitVector* bits = Node(sid);
    if (bits == nullptr || slot < 1 || slot > m_ || !bits->Get(slot - 1)) {
      return false;
    }
    sid = sid * (m_ + 1) + slot;
  }
  return true;
}

uint64_t Signature::CountBits() const {
  uint64_t c = 0;
  for (const auto& [sid, bits] : nodes_) c += bits.Count();
  return c;
}

std::string Signature::ToString() const {
  std::vector<uint64_t> sids;
  sids.reserve(nodes_.size());
  for (const auto& [sid, bits] : nodes_) sids.push_back(sid);
  std::sort(sids.begin(), sids.end());
  std::ostringstream os;
  for (uint64_t sid : sids) {
    os << PathToString(SidToPath(sid, m_, SidLevel(sid, m_))) << ": "
       << nodes_.at(sid).ToString() << "\n";
  }
  return os.str();
}

}  // namespace pcube

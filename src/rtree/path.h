// Tuple paths and signature IDs (paper §IV.B.1).
//
// Every tuple is associated with a unique path <p0, p1, ..., pd> of 1-based
// slot positions from the R-tree root down to its leaf entry. An l-level
// node's path is the length-l prefix; nodes map one-to-one to SIDs via
//
//     SID = sum_i p_i * (M+1)^(l-1-i)
//
// (the paper's worked example: M = 2, root SID = 0, node N1 = <1> -> 1,
// node N3 = <1,1> -> 4). Partial signatures are keyed by the SID of their
// subtree root.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.h"

namespace pcube {

/// 1-based slot positions from the root; element i addresses the slot taken
/// at depth i. A tuple path's last element is its leaf slot.
///
/// A trivially copyable value with its slots stored inline: the query
/// engines create one per candidate entry, so it never touches the heap.
/// Equality and `<` are std::vector<uint16_t>'s (lexicographic, so a parent
/// sorts before its children).
class Path {
 public:
  /// Most slots a path holds, and so the most node levels an R-tree may
  /// have (RStarTree refuses to grow deeper). SignatureStore::kSidBits is
  /// the tighter limit at every fanout: at the smallest, M = 2, the node
  /// SIDs of a 26-level tree still fit its 40 bits (3^25 < 2^40).
  static constexpr size_t kMaxLength = 26;

  using value_type = uint16_t;
  using iterator = uint16_t*;
  using const_iterator = const uint16_t*;

  Path() = default;
  /// `n` zero slots.
  explicit Path(size_t n) : size_(Length(n)) {}
  Path(std::initializer_list<uint16_t> slots)
      : Path(slots.begin(), slots.end()) {}
  template <typename It>
  Path(It first, It last) {
    for (; first != last; ++first) push_back(*first);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint16_t operator[](size_t i) const { return slots_[i]; }
  uint16_t& operator[](size_t i) { return slots_[i]; }
  uint16_t back() const { return slots_[size_ - 1]; }
  const_iterator begin() const { return slots_.data(); }
  const_iterator end() const { return slots_.data() + size_; }
  iterator begin() { return slots_.data(); }
  iterator end() { return slots_.data() + size_; }

  void push_back(uint16_t slot) {
    PCUBE_CHECK_LT(size_, kMaxLength) << "path deeper than Path::kMaxLength";
    slots_[size_++] = slot;
  }
  void pop_back() { slots_[--size_] = 0; }

  friend bool operator==(const Path& a, const Path& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator<(const Path& a, const Path& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  static uint8_t Length(size_t n) {
    PCUBE_CHECK_LE(n, kMaxLength) << "path deeper than Path::kMaxLength";
    return static_cast<uint8_t>(n);
  }

  std::array<uint16_t, kMaxLength> slots_{};
  uint8_t size_ = 0;
};

/// Signature ID of the node addressed by `path` in a tree of fanout `M`.
/// The empty path (the root) maps to 0.
inline uint64_t PathToSid(const Path& path, uint32_t M) {
  uint64_t sid = 0;
  const uint64_t base = M + 1;
  for (uint16_t p : path) {
    PCUBE_DCHECK_GE(p, 1);
    PCUBE_DCHECK_LE(p, M);
    PCUBE_DCHECK_LT(sid, (uint64_t{1} << 58) / base);  // overflow guard
    sid = sid * base + p;
  }
  return sid;
}

/// Inverse of PathToSid given the node's level (path length).
inline Path SidToPath(uint64_t sid, uint32_t M, int level) {
  Path path(level);
  const uint64_t base = M + 1;
  for (int i = level - 1; i >= 0; --i) {
    path[i] = static_cast<uint16_t>(sid % base);
    sid /= base;
  }
  PCUBE_DCHECK_EQ(sid, 0u);
  return path;
}

/// Level (path length) of the node named `sid`: slots are never 0, so the
/// base-(M+1) digits of a SID spell its path exactly.
inline int SidLevel(uint64_t sid, uint32_t M) {
  const uint64_t base = M + 1;
  int level = 0;
  for (; sid != 0; sid /= base) ++level;
  return level;
}

inline std::string PathToString(const Path& path) {
  std::string s = "<";
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(path[i]);
  }
  return s + ">";
}

using TupleId = uint64_t;  // same alias as in cube/relation.h

/// One tuple whose path changed during an R-tree update (paper §IV.B.3).
/// Inserts have no old path; deletes have no new path; split/re-insert moves
/// have both.
struct PathChange {
  TupleId tid = 0;
  std::vector<float> point;
  bool has_old = false;
  bool has_new = false;
  /// Set when the tuple was removed from the tree (Delete).
  bool deleted = false;
  Path old_path;
  Path new_path;
};

/// All path changes caused by one logical update. If `root_split` is set,
/// every tuple's path changed (a new level was added) and consumers should
/// fall back to recomputation for unlisted tuples.
struct PathChangeSet {
  std::vector<PathChange> changes;
  bool root_split = false;

  void Clear() {
    changes.clear();
    root_split = false;
  }
};

}  // namespace pcube

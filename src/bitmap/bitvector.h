// Dynamic fixed-length bit vector. This is the in-memory form of one
// signature node's bit array (one bit per R-tree child slot); the codecs in
// bitmap/codec.h compress it for storage inside partial signatures. A node
// is M bits (M = 127 at Dp = 3), two or three words, so the bulk algebra is
// a plain loop over the words.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "common/logging.h"

namespace pcube {

/// Fixed-length sequence of bits with bulk boolean algebra.
class BitVector {
 public:
  BitVector() = default;

  /// All-zero vector of `num_bits` bits.
  explicit BitVector(size_t num_bits)
      : num_bits_(num_bits), words_(bit_util::Words64(num_bits), 0) {}

  /// Vector initialised from a packed word array (e.g. one node's slice of
  /// a FragmentCache block). `words` must hold exactly Words64(num_bits)
  /// words with the pad bits of the last word zero.
  BitVector(size_t num_bits, std::span<const uint64_t> words)
      : num_bits_(num_bits), words_(words.begin(), words.end()) {
    PCUBE_DCHECK_EQ(words_.size(), bit_util::Words64(num_bits));
  }

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  bool Get(size_t i) const {
    PCUBE_DCHECK_LT(i, num_bits_);
    return bit_util::GetBit(words_.data(), i);
  }

  void Set(size_t i) {
    PCUBE_DCHECK_LT(i, num_bits_);
    bit_util::SetBit(words_.data(), i);
  }

  void Clear(size_t i) {
    PCUBE_DCHECK_LT(i, num_bits_);
    bit_util::ClearBit(words_.data(), i);
  }

  void Assign(size_t i, bool v) {
    if (v) {
      Set(i);
    } else {
      Clear(i);
    }
  }

  /// Number of set bits.
  size_t Count() const;

  bool AnySet() const;

  /// Index of the first set bit at or after `from`, or size() if none.
  size_t FindNextSet(size_t from) const;

  /// In-place bitwise algebra with an equally sized vector. InplaceAnd
  /// returns whether any bit survives (fused with the AND — signature
  /// intersection's liveness check costs no second pass).
  bool InplaceAnd(const BitVector& other);
  void InplaceOr(const BitVector& other);

  bool operator==(const BitVector& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

  const std::vector<uint64_t>& words() const { return words_; }

  /// Mutable backing words, for codec fast paths that assemble the vector
  /// word-at-a-time. Callers must keep the pad bits of the last word zero.
  uint64_t* mutable_words() { return words_.data(); }

  /// Positions of all set bits, ascending.
  std::vector<uint32_t> SetPositions() const;

  /// e.g. "10110" (bit 0 first), for tests and debugging.
  std::string ToString() const;

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace pcube

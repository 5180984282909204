#include "bitmap/bitvector.h"

#include <bit>

namespace pcube {

size_t BitVector::FindNextSet(size_t from) const {
  if (from >= num_bits_) return num_bits_;
  size_t word_idx = from >> 6;
  uint64_t w = words_[word_idx] >> (from & 63);
  if (w != 0) {
    size_t pos = from + std::countr_zero(w);
    return pos < num_bits_ ? pos : num_bits_;
  }
  for (++word_idx; word_idx < words_.size(); ++word_idx) {
    if (words_[word_idx] != 0) {
      size_t pos = (word_idx << 6) + std::countr_zero(words_[word_idx]);
      return pos < num_bits_ ? pos : num_bits_;
    }
  }
  return num_bits_;
}

size_t BitVector::Count() const {
  size_t c = 0;
  for (uint64_t w : words_) c += static_cast<size_t>(std::popcount(w));
  return c;
}

bool BitVector::AnySet() const {
  for (uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

bool BitVector::InplaceAnd(const BitVector& other) {
  PCUBE_CHECK_EQ(num_bits_, other.num_bits_);
  uint64_t any = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= other.words_[i];
    any |= words_[i];
  }
  return any != 0;
}

void BitVector::InplaceOr(const BitVector& other) {
  PCUBE_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

std::vector<uint32_t> BitVector::SetPositions() const {
  std::vector<uint32_t> out;
  for (size_t i = FindNextSet(0); i < num_bits_; i = FindNextSet(i + 1)) {
    out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

std::string BitVector::ToString() const {
  std::string s;
  s.reserve(num_bits_);
  for (size_t i = 0; i < num_bits_; ++i) s.push_back(Get(i) ? '1' : '0');
  return s;
}

}  // namespace pcube

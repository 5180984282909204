#include "query/dominance_kernels.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pcube {

bool DominanceWindow::CpuHasAvx2() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2") > 0;
#else
  return false;
#endif
}

void DominanceWindow::Reset(size_t dims) {
  dims_ = dims;
  size_ = 0;
  capacity_ = 0;
  avx2_ = CpuHasAvx2();
  cols_.clear();
}

void DominanceWindow::Grow(size_t new_capacity) {
  std::vector<double> next(dims_ * new_capacity);
  for (size_t d = 0; d < dims_; ++d) {
    std::copy_n(cols_.data() + d * capacity_, size_,
                next.data() + d * new_capacity);
  }
  cols_ = std::move(next);
  capacity_ = new_capacity;
}

void DominanceWindow::Append(const double* coords) {
  if (size_ == capacity_) Grow(capacity_ == 0 ? 8 : capacity_ * 2);
  for (size_t d = 0; d < dims_; ++d) cols_[d * capacity_ + size_] = coords[d];
  ++size_;
}

size_t DominanceWindow::CountFrom(size_t begin, size_t count,
                                  const double* cand, size_t limit) const {
  for (size_t i = begin; i < size_; ++i) {
    bool all_le = true;
    bool one_lt = false;
    for (size_t d = 0; d < dims_; ++d) {
      double m = Col(d)[i];
      if (m > cand[d]) {
        all_le = false;
        break;
      }
      if (m < cand[d]) one_lt = true;
    }
    if (all_le && one_lt && ++count >= limit) return count;
  }
  return count;
}

size_t DominanceWindow::CountDominatorsScalar(const double* cand,
                                              size_t limit) const {
  return CountFrom(0, 0, cand, limit);
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) size_t DominanceWindow::CountDominatorsAvx2(
    const double* cand, size_t limit) const {
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= size_; i += 4) {
    __m256d all_le = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    __m256d any_lt = _mm256_setzero_pd();
    for (size_t d = 0; d < dims_; ++d) {
      __m256d m = _mm256_loadu_pd(Col(d) + i);
      __m256d c = _mm256_set1_pd(cand[d]);
      all_le = _mm256_and_pd(all_le, _mm256_cmp_pd(m, c, _CMP_LE_OQ));
      if (_mm256_movemask_pd(all_le) == 0) break;  // no lane can dominate
      any_lt = _mm256_or_pd(any_lt, _mm256_cmp_pd(m, c, _CMP_LT_OQ));
    }
    int dom = _mm256_movemask_pd(_mm256_and_pd(all_le, any_lt));
    count += static_cast<size_t>(std::popcount(static_cast<unsigned>(dom)));
    if (count >= limit) return limit;
  }
  return CountFrom(i, count, cand, limit);
}

#endif  // __x86_64__

size_t DominanceWindow::CountDominators(const double* cand,
                                        size_t limit) const {
  PCUBE_DCHECK_GE(limit, size_t{1});
#if defined(__x86_64__)
  if (avx2_) return CountDominatorsAvx2(cand, limit);
#endif
  return CountDominatorsScalar(cand, limit);
}

}  // namespace pcube

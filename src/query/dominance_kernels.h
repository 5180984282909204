// Batched dominance testing for the skyline engine (DESIGN.md §12). The
// scalar engine tested one candidate against one skyline member at a time,
// re-deriving every member's transformed coordinates from its rect on each
// test. DominanceWindow instead keeps the current skyline members'
// coordinates in a struct-of-arrays layout — one contiguous column per
// preference dimension — so one dominance test streams each column once and
// the AVX2 kernel compares the candidate against four members per step.
// Reset picks the kernel once per run from CPUID: AVX2 where the CPU has
// it, the scalar loop everywhere else.
//
// Count semantics match the engine's skyband rule exactly: member m
// dominates candidate c iff m[d] <= c[d] on every dimension and m[d] < c[d]
// on at least one. CountDominators stops counting once `limit` dominators
// are found; the return value saturates at `limit` so batching (which may
// find a few extra dominators inside the final block) is observationally
// identical to the scalar early-exit loop. Coordinates are doubles and the
// kernels use ordered comparisons only, so scalar and AVX2 results are
// bit-identical (tests/simd_kernels_test.cc).
#pragma once

#include <cstddef>
#include <vector>

namespace pcube {

/// Column-major window of skyline-member coordinates.
class DominanceWindow {
 public:
  DominanceWindow() = default;
  explicit DominanceWindow(size_t dims) { Reset(dims); }

  /// Empties the window, sets the dimensionality and picks the kernel
  /// CountDominators runs.
  void Reset(size_t dims);

  /// Appends one member; `coords` holds `dims()` transformed coordinates.
  void Append(const double* coords);

  size_t size() const { return size_; }
  size_t dims() const { return dims_; }

  /// Number of members dominating `cand` (dims() coordinates), counting in
  /// insertion order and saturating at `limit` (>= 1).
  size_t CountDominators(const double* cand, size_t limit) const;

  /// True when this CPU can run CountDominatorsAvx2.
  static bool CpuHasAvx2();

  /// The two kernels, for the differential tests and the kernel bench;
  /// the Avx2 one requires CpuHasAvx2().
  size_t CountDominatorsScalar(const double* cand, size_t limit) const;
#if defined(__x86_64__)
  size_t CountDominatorsAvx2(const double* cand, size_t limit) const;
#endif

 private:
  const double* Col(size_t d) const { return cols_.data() + d * capacity_; }
  void Grow(size_t new_capacity);
  /// Scalar count over members [begin, size()) on top of `count` already
  /// found: the whole scalar kernel, and the AVX2 kernel's tail.
  size_t CountFrom(size_t begin, size_t count, const double* cand,
                   size_t limit) const;

  size_t dims_ = 0;
  size_t size_ = 0;
  size_t capacity_ = 0;
  bool avx2_ = false;         // the kernel Reset picked
  std::vector<double> cols_;  // dims_ columns of capacity_ doubles
};

}  // namespace pcube

// Differential property tests for the skyline engine's dominance kernel
// (DESIGN.md §12): a naive count is the ground truth, and the scalar loop,
// the AVX2 kernel and the kernel Reset picked must all match it on
// randomized windows with deliberate coordinate ties. Runs under the asan
// and ubsan labels so lifetime and arithmetic bugs in the intrinsics path
// surface in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "query/dominance_kernels.h"

namespace pcube {
namespace {

// Naive dominance count, saturated: what both kernel paths must return.
size_t ReferenceDominators(const std::vector<std::vector<double>>& members,
                           const std::vector<double>& cand, size_t limit) {
  size_t count = 0;
  for (const auto& m : members) {
    bool all_le = true, one_lt = false;
    for (size_t d = 0; d < cand.size(); ++d) {
      if (m[d] > cand[d]) all_le = false;
      if (m[d] < cand[d]) one_lt = true;
    }
    if (all_le && one_lt) ++count;
  }
  return std::min(count, limit);
}

TEST(DominanceWindowTest, ScalarAvx2AndDispatchAgree) {
  Random rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    size_t dims = 1 + rng.Uniform(6);
    size_t size = rng.Uniform(41);
    DominanceWindow window(dims);
    std::vector<std::vector<double>> members;
    for (size_t i = 0; i < size; ++i) {
      std::vector<double> m(dims);
      // Coordinates from a small discrete set force exact ties, the edge
      // where <= vs < discipline matters.
      for (auto& x : m) x = static_cast<double>(rng.Uniform(5));
      window.Append(m.data());
      members.push_back(std::move(m));
    }
    ASSERT_EQ(window.size(), size);
    std::vector<double> cand(dims);
    for (auto& x : cand) x = static_cast<double>(rng.Uniform(5));
    size_t limit = 1 + rng.Uniform(5);

    size_t expected = ReferenceDominators(members, cand, limit);
    EXPECT_EQ(window.CountDominatorsScalar(cand.data(), limit), expected);
    EXPECT_EQ(window.CountDominators(cand.data(), limit), expected);
#if defined(__x86_64__)
    if (DominanceWindow::CpuHasAvx2()) {
      EXPECT_EQ(window.CountDominatorsAvx2(cand.data(), limit), expected);
    }
#endif
  }
}

TEST(DominanceWindowTest, ResetClearsAndSurvivesGrowth) {
  DominanceWindow window(2);
  double origin[2] = {0.0, 0.0};
  double cand[2] = {1.0, 1.0};
  for (int i = 0; i < 100; ++i) window.Append(origin);  // forces Grow
  EXPECT_EQ(window.CountDominators(cand, 1000), 100u);
  window.Reset(3);
  EXPECT_EQ(window.size(), 0u);
  double cand3[3] = {1.0, 1.0, 1.0};
  EXPECT_EQ(window.CountDominators(cand3, 5), 0u);
}

}  // namespace
}  // namespace pcube

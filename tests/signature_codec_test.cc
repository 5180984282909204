// Decomposition / reassembly tests: partial signatures of bounded payload
// reassemble into exactly the original signature, in ascending-SID order and
// under the cursor's lazy prefix-probing order.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/signature_codec.h"

namespace pcube {
namespace {

Signature RandomSignature(uint32_t m, int levels, int paths, uint64_t seed) {
  Random rng(seed);
  Signature sig(m, levels);
  for (int i = 0; i < paths; ++i) {
    Path p(levels);
    for (auto& s : p) s = static_cast<uint16_t>(1 + rng.Uniform(m));
    sig.SetPath(p);
  }
  return sig;
}

Signature Reassemble(const Signature& original,
                     const std::vector<PartialSignature>& partials) {
  SignatureFragment fragment(original.fanout(), original.levels());
  for (const PartialSignature& p : partials) {
    EXPECT_TRUE(
        DecodePartialSignature(p.root_sid, p.bytes, &fragment).ok());
  }
  return fragment.ToSignature();
}

TEST(SignatureCodecTest, EmptySignatureHasNoPartials) {
  Signature sig(4, 3);
  EXPECT_TRUE(DecomposeSignature(sig, 4000).empty());
}

TEST(SignatureCodecTest, SmallSignatureFitsOnePartial) {
  Signature sig(4, 3);
  sig.SetPath({1, 2, 3});
  sig.SetPath({4, 4, 4});
  auto partials = DecomposeSignature(sig, 4000);
  ASSERT_EQ(partials.size(), 1u);
  EXPECT_EQ(partials[0].root_sid, 0u);
  EXPECT_TRUE(Reassemble(sig, partials).Equals(sig));
}

TEST(SignatureCodecTest, TinyPayloadForcesManyPartials) {
  Signature sig = RandomSignature(5, 4, 300, 31);
  // 24-byte payload: every partial holds only a couple of arrays.
  auto partials = DecomposeSignature(sig, 24);
  EXPECT_GT(partials.size(), 10u);
  // Partials are generated in ascending SID order (BFS of roots).
  for (size_t i = 1; i < partials.size(); ++i) {
    EXPECT_LT(partials[i - 1].root_sid, partials[i].root_sid);
  }
  for (const auto& p : partials) {
    EXPECT_LE(p.bytes.size(), 24u);
  }
  EXPECT_TRUE(Reassemble(sig, partials).Equals(sig));
}

TEST(SignatureCodecTest, PartialSubsetDecodesPrefixOfTree) {
  Signature sig = RandomSignature(4, 3, 100, 32);
  auto partials = DecomposeSignature(sig, 32);
  ASSERT_GT(partials.size(), 2u);
  // Decoding only the root partial yields a fragment whose arrays all match
  // the original signature (no garbage).
  SignatureFragment fragment(sig.fanout(), sig.levels());
  ASSERT_TRUE(DecodePartialSignature(partials[0].root_sid, partials[0].bytes,
                                     &fragment).ok());
  EXPECT_GT(fragment.num_nodes(), 0u);
  Signature partial_sig = fragment.ToSignature();
  EXPECT_FALSE(partial_sig.Empty());
  // The decoded root array equals the original's.
  const BitVector* root_bits = fragment.Node({});
  ASSERT_NE(root_bits, nullptr);
  EXPECT_TRUE(*root_bits == sig.root().bits);
}

class CodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CodecRoundTripTest, RoundTripsAtAllPayloadSizes) {
  auto [seed, payload] = GetParam();
  for (uint32_t m : {2u, 3u, 7u}) {
    for (int levels : {1, 2, 3, 4}) {
      Signature sig = RandomSignature(m, levels, 150, seed * 97 + m + levels);
      auto partials = DecomposeSignature(sig, payload);
      Signature back = Reassemble(sig, partials);
      EXPECT_TRUE(back.Equals(sig))
          << "m=" << m << " levels=" << levels << " payload=" << payload;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPayloads, CodecRoundTripTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(16, 40, 200, 4000)));

}  // namespace
}  // namespace pcube

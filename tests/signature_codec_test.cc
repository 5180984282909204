// Decomposition / reassembly tests: partial signatures of bounded payload
// reassemble into exactly the original signature, in ascending-SID order and
// under the cursor's lazy prefix-probing order.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/signature_codec.h"
#include "data/table1.h"
#include "storage/checksum.h"

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
  Signature sig(original.fanout(), original.levels());
  for (const PartialSignature& p : partials) {
    EXPECT_TRUE(DecodePartialSignature(p.root_sid, p.bytes, &sig).ok());
  }
  return sig;
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
  // Decoding only the root partial yields a prefix of the tree whose arrays
  // all match the original signature (no garbage).
  Signature prefix(sig.fanout(), sig.levels());
  ASSERT_TRUE(DecodePartialSignature(partials[0].root_sid, partials[0].bytes,
                                     &prefix).ok());
  EXPECT_GT(prefix.CountNodes(), 0u);
  EXPECT_LT(prefix.CountNodes(), sig.CountNodes());
  ASSERT_NE(prefix.Node(0), nullptr);  // the root array
  for (const auto& [sid, bits] : prefix.nodes()) {
    const BitVector* original = sig.Node(sid);
    ASSERT_NE(original, nullptr) << "SID " << sid;
    EXPECT_TRUE(bits == *original) << "SID " << sid;
  }
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

// The round trips above would not notice an encoder and a decoder that
// changed the format together. These cases pin the stored bytes themselves:
// every value was taken from the format as shipped, so a change here is a
// change to every signature store on disk.

/// CRC-32 over each partial's root SID (8 bytes, little-endian) followed by
/// its payload, in generation order.
uint32_t PartialsCrc(const std::vector<PartialSignature>& partials) {
  std::vector<uint8_t> buf;
  for (const PartialSignature& p : partials) {
    for (int i = 0; i < 8; ++i) {
      buf.push_back(static_cast<uint8_t>(p.root_sid >> (8 * i)));
    }
    buf.insert(buf.end(), p.bytes.begin(), p.bytes.end());
  }
  return Crc32(buf.data(), buf.size());
}

TEST(SignatureCodecTest, PartialBytesArePinned) {
  struct Pin {
    uint32_t m;
    int levels;
    size_t payload;
    size_t partials;
    uint32_t crc;
  };
  const Pin kPins[] = {
      {2, 2, 24, 1, 0x2486f0a4u},
      {2, 2, 200, 1, 0x2486f0a4u},
      {2, 2, 4096, 1, 0x2486f0a4u},
      {2, 3, 24, 2, 0x1e100eacu},
      {2, 3, 200, 1, 0x0dfa880du},
      {2, 3, 4096, 1, 0x0dfa880du},
      {2, 4, 24, 3, 0xa1caf39cu},
      {2, 4, 200, 1, 0xaebe31f8u},
      {2, 4, 4096, 1, 0xaebe31f8u},
      {5, 2, 24, 1, 0xf318a856u},
      {5, 2, 200, 1, 0xf318a856u},
      {5, 2, 4096, 1, 0xf318a856u},
      {5, 3, 24, 6, 0xd89b57f0u},
      {5, 3, 200, 1, 0x217b9bfbu},
      {5, 3, 4096, 1, 0x217b9bfbu},
      {5, 4, 24, 31, 0x2a3b55a2u},
      {5, 4, 200, 6, 0x6642c849u},
      {5, 4, 4096, 1, 0xf562c86fu},
      {127, 2, 24, 122, 0xc8434e34u},
      {127, 2, 200, 98, 0x3cc9e2a1u},
      {127, 2, 4096, 1, 0x12f832bbu},
      {127, 3, 24, 226, 0x2a6f9147u},
      {127, 3, 200, 126, 0xdb08a36cu},
      {127, 3, 4096, 1, 0xbfb41966u},
      {127, 4, 24, 484, 0xc196f62eu},
      {127, 4, 200, 118, 0x991338b8u},
      {127, 4, 4096, 48, 0x9d0d5304u},
  };
  for (const Pin& pin : kPins) {
    Signature sig =
        RandomSignature(pin.m, pin.levels, 400, 1000 * pin.m + pin.levels);
    auto partials = DecomposeSignature(sig, pin.payload);
    EXPECT_EQ(partials.size(), pin.partials)
        << "m=" << pin.m << " levels=" << pin.levels
        << " payload=" << pin.payload;
    EXPECT_EQ(PartialsCrc(partials), pin.crc)
        << "m=" << pin.m << " levels=" << pin.levels
        << " payload=" << pin.payload;
  }
}

TEST(SignatureCodecTest, Table1PartialBytesArePinned) {
  // Cell A = a1 of Table I (t1 <1,1,1>, t3 <1,2,1>; Fig. 2a): root "10",
  // N1 "11", N3 "10", N4 "10". Each 2-bit array is stored verbatim —
  // scheme 0, bit count 2 (u16, little-endian), one byte of bits, bit 0
  // lowest — in breadth-first order, all in the root's partial.
  Dataset data = MakeTable1Dataset();
  Signature sig(2, 3);
  for (const auto& [tid, point, slots] : Table1TreeEntries()) {
    if (data.BoolValue(tid, kTable1DimA) == 0) {
      sig.SetPath(Path(slots.begin(), slots.end()));
    }
  }
  auto partials = DecomposeSignature(sig, 4096);
  ASSERT_EQ(partials.size(), 1u);
  EXPECT_EQ(partials[0].root_sid, 0u);
  const std::vector<uint8_t> expect = {
      0x00, 0x02, 0x00, 0x01,  // root: 10
      0x00, 0x02, 0x00, 0x03,  // N1:   11
      0x00, 0x02, 0x00, 0x01,  // N3:   10
      0x00, 0x02, 0x00, 0x01,  // N4:   10
  };
  EXPECT_EQ(partials[0].bytes, expect);
}

}  // namespace
}  // namespace pcube

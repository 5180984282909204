// Seeded randomized robustness corpus: decoders that consume on-disk bytes
// (bitmap codec, catalog) must return a typed error — or a correct success —
// on arbitrary truncations, bit flips and random garbage. Never a crash,
// never an out-of-bounds access (scripts/ci.sh runs this under ASan), never
// a multi-gigabyte allocation from a fuzzed length field.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bitmap/codec.h"
#include "common/bit_util.h"
#include "common/random.h"
#include "rtree/path.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"
#include "workbench/catalog.h"

namespace pcube {
namespace {

// ------------------------------------------------------------ bitmap codec

TEST(FuzzCorpusTest, BitmapDecodeSurvivesRandomGarbage) {
  Random rng(1001);
  for (int trial = 0; trial < 2000; ++trial) {
    size_t len = rng.Uniform(64);
    std::vector<uint8_t> buf(len);
    for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
    size_t offset = 0;
    BitVector decoded;
    Status st = BitmapCodec::Decode(buf.data(), buf.size(), &offset, &decoded);
    if (st.ok()) {
      EXPECT_LE(offset, buf.size());
    }
  }
}

TEST(FuzzCorpusTest, BitmapDecodeSurvivesTruncationOfValidEncodings) {
  Random rng(1002);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 1 + rng.Uniform(400);
    BitVector bits(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Uniform(4) == 0) bits.Set(i);
    }
    std::vector<uint8_t> buf;
    BitmapCodec::Encode(bits, &buf);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      size_t offset = 0;
      BitVector decoded;
      EXPECT_FALSE(
          BitmapCodec::Decode(buf.data(), cut, &offset, &decoded).ok());
    }
  }
}

TEST(FuzzCorpusTest, BitmapDecodeSurvivesBitFlipsOfValidEncodings) {
  Random rng(1003);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 1 + rng.Uniform(300);
    BitVector bits(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Uniform(3) == 0) bits.Set(i);
    }
    std::vector<uint8_t> clean;
    BitmapCodec::Encode(bits, &clean);
    for (size_t byte = 0; byte < clean.size(); ++byte) {
      std::vector<uint8_t> buf = clean;
      buf[byte] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
      size_t offset = 0;
      BitVector decoded;
      // A flipped encoding may still parse (it is then a DIFFERENT valid
      // array — checksums, not the codec, own that detection); the codec's
      // contract is a typed status and in-bounds consumption.
      Status st =
          BitmapCodec::Decode(buf.data(), buf.size(), &offset, &decoded);
      if (st.ok()) {
        EXPECT_LE(offset, buf.size());
      }
    }
  }
}

// ---------------------------------------------------------------- catalog

/// A catalog exercising every section: schema, heap pages, indices, R-tree,
/// cube directory and dictionaries.
CatalogData SampleCatalog() {
  CatalogData c;
  c.num_bool = 2;
  c.num_pref = 2;
  c.bool_cardinality = {8, 16};
  c.num_tuples = 1000;
  c.table_pages = {3, 4, 5};
  c.indices.resize(2);
  c.indices[0].root = 6;
  c.indices[0].num_entries = 1000;
  c.indices[0].num_pages = 2;
  c.indices[1].root = 8;
  c.indices[1].num_entries = 1000;
  c.indices[1].num_pages = 2;
  c.rtree_root = 10;
  c.rtree_height = 1;
  c.rtree_fanout = 50;
  c.rtree_entries = 1000;
  c.rtree_pages = 21;
  c.has_cube = true;
  c.sig_index_root = 31;
  c.sig_index_entries = 24;
  c.sig_index_pages = 1;
  for (uint32_t i = 0; i < 24; ++i) c.sig_dense.emplace(CellId{i}, i);
  c.sig_num_partials = 24;
  c.sig_num_pages = 3;
  c.sig_append_page = 34;
  c.sig_append_offset = 100;
  c.cube_cells = 24;
  c.cube_levels = 2;
  c.dictionaries = {{"red", "green", "blue"}, {"a", "b"}};
  return c;
}

struct CatalogFixture {
  MemoryPageManager pm;
  IoStats stats;
  std::unique_ptr<BufferPool> pool;
  PageId root = kInvalidPageId;

  CatalogFixture() {
    pool = std::make_unique<BufferPool>(&pm, 64, &stats);
    auto handle = pool->New(IoCategory::kBtree, &root);
    PCUBE_CHECK(handle.ok());
    handle->get()->Zero();
  }
};

TEST(FuzzCorpusTest, CatalogRoundTripsClean) {
  CatalogFixture fx;
  ASSERT_TRUE(SaveCatalog(fx.pool.get(), fx.root, SampleCatalog()).ok());
  auto loaded = LoadCatalog(fx.pool.get(), fx.root);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_tuples, 1000u);
  EXPECT_EQ(loaded->table_pages.size(), 3u);
  EXPECT_EQ(loaded->sig_dense.size(), 24u);
  EXPECT_EQ(loaded->dictionaries.size(), 2u);
}

TEST(FuzzCorpusTest, CatalogLoadSurvivesSingleByteCorruption) {
  Random rng(1004);
  CatalogData sample = SampleCatalog();
  for (int trial = 0; trial < 400; ++trial) {
    CatalogFixture fx;
    ASSERT_TRUE(SaveCatalog(fx.pool.get(), fx.root, sample).ok());
    {
      auto handle = fx.pool->GetMutable(fx.root, IoCategory::kBtree);
      ASSERT_TRUE(handle.ok());
      size_t offset = rng.Uniform(kPageSize);
      handle->get()->data()[offset] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    auto loaded = LoadCatalog(fx.pool.get(), fx.root);
    // Either the flip landed somewhere harmless (padding, an unread tail)
    // and the load succeeds, or it must fail typed — most corruptions hit
    // a count or length and must be caught by the remaining-bytes caps
    // before they can drive a huge resize.
    if (!loaded.ok()) {
      // Corruption for damaged fields; NotSupported when the flip lands in
      // the version word.
      EXPECT_TRUE(loaded.status().IsCorruption() ||
                  loaded.status().code() == StatusCode::kNotSupported)
          << loaded.status().ToString();
    }
  }
}

TEST(FuzzCorpusTest, CatalogLoadRejectsHugeClaimedCounts) {
  // Pin the worst case explicitly: a table-page count of 2^56 must fail
  // typed, not std::bad_alloc. The count field sits right after the header
  // (3 fixed u32s + per-dim u32s + one u64).
  CatalogData sample = SampleCatalog();
  CatalogFixture fx;
  ASSERT_TRUE(SaveCatalog(fx.pool.get(), fx.root, sample).ok());
  {
    auto handle = fx.pool->GetMutable(fx.root, IoCategory::kBtree);
    ASSERT_TRUE(handle.ok());
    // Page layout: u32 len | u64 next | payload. Payload: magic, version,
    // num_bool, num_pref, 2 cardinalities, u64 num_tuples, u64 table count.
    size_t count_offset = 12 + 4 * 6 + 8;
    handle->get()->data()[count_offset + 7] = 0xFF;  // top byte of the count
  }
  auto loaded = LoadCatalog(fx.pool.get(), fx.root);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(FuzzCorpusTest, CatalogLoadSurvivesTruncatedChain) {
  // Cut the page chain's payload length to every possible prefix; the
  // reader must fail typed on every cut that severs a field.
  CatalogData sample = SampleCatalog();
  for (uint32_t len : {0u, 1u, 4u, 8u, 16u, 40u, 100u, 200u}) {
    CatalogFixture fx;
    ASSERT_TRUE(SaveCatalog(fx.pool.get(), fx.root, sample).ok());
    {
      auto handle = fx.pool->GetMutable(fx.root, IoCategory::kBtree);
      ASSERT_TRUE(handle.ok());
      // Shrink the chunk length and cut the chain (no next page).
      bit_util::StoreLE<uint32_t>(handle->get()->data(), len);
      bit_util::StoreLE<uint64_t>(handle->get()->data() + 4, kInvalidPageId);
    }
    auto loaded = LoadCatalog(fx.pool.get(), fx.root);
    ASSERT_FALSE(loaded.ok()) << "len " << len;
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
}

TEST(FuzzCorpusTest, CatalogLoadRejectsChainCycle) {
  CatalogFixture fx;
  ASSERT_TRUE(SaveCatalog(fx.pool.get(), fx.root, SampleCatalog()).ok());
  {
    auto handle = fx.pool->GetMutable(fx.root, IoCategory::kBtree);
    ASSERT_TRUE(handle.ok());
    bit_util::StoreLE<uint64_t>(handle->get()->data() + 4, fx.root);  // self
  }
  auto loaded = LoadCatalog(fx.pool.get(), fx.root);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(FuzzCorpusTest, CatalogLoadRejectsTreeDeeperThanPaths) {
  // Workbench::Open descends the R-tree with inline Paths; a catalog that
  // claims more levels than a Path holds is damage and must fail typed.
  CatalogData sample = SampleCatalog();
  sample.rtree_height = static_cast<int>(Path::kMaxLength);
  {
    CatalogFixture fx;
    ASSERT_TRUE(SaveCatalog(fx.pool.get(), fx.root, sample).ok());
    auto loaded = LoadCatalog(fx.pool.get(), fx.root);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
  sample.rtree_height = static_cast<int>(Path::kMaxLength) - 1;
  CatalogFixture fx;
  ASSERT_TRUE(SaveCatalog(fx.pool.get(), fx.root, sample).ok());
  auto loaded = LoadCatalog(fx.pool.get(), fx.root);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rtree_height, sample.rtree_height);
}

}  // namespace
}  // namespace pcube

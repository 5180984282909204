// Persistence tests: a file-backed workbench survives Save() + Open() with
// identical query answers, signatures, and structures; catalog corruption is
// detected.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>

#include "data/generators.h"
#include "query/reference.h"
#include "run_signature.h"
#include "workbench/catalog.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  std::string path_ = testing::TempDir() + "/pcube_persist_test.db";

  void TearDown() override { RemoveFiles(); }

  void RemoveFiles() {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());  // the WAL sidecar
    std::remove((path_ + ".chk").c_str());  // the checksum sidecar
  }

  Dataset MakeData(uint64_t seed) {
    SyntheticConfig config;
    config.num_tuples = 3000;
    config.num_bool = 3;
    config.num_pref = 2;
    config.bool_cardinality = 4;
    config.seed = seed;
    return GenerateSynthetic(config);
  }

  /// Saves a fresh database at path_, then lets `edit` change its catalog
  /// and writes it back through the checksum layer: the content is damaged
  /// but every page's CRC is valid, so only the shape checks can object.
  void SaveThenRewriteCatalog(const std::function<void(CatalogData*)>& edit) {
    {
      WorkbenchOptions options;
      options.file_path = path_;
      auto wb = Workbench::Build(MakeData(76), options);
      ASSERT_TRUE(wb.ok()) << wb.status().ToString();
      ASSERT_TRUE((*wb)->Save().ok());
    }
    auto fpm = FilePageManager::Open(path_, /*truncate=*/false);
    ASSERT_TRUE(fpm.ok());
    ChecksumPageManager pm(std::move(*fpm), path_ + ".chk");
    IoStats stats;
    BufferPool pool(&pm, 64, &stats);
    auto catalog = LoadCatalog(&pool, 0);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    edit(&*catalog);
    ASSERT_TRUE(SaveCatalog(&pool, 0, *catalog).ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE(pm.SyncSidecar().ok());
  }
};

TEST_F(PersistenceTest, SaveOpenRoundTripsQueries) {
  const QueryRequest skyline = QueryRequest::Skyline({{0, 2}});
  const QueryRequest topk = QueryRequest::TopK(
      {{0, 2}}, std::make_shared<LinearRanking>(std::vector<double>{0.3, 0.7}),
      15);
  std::vector<TupleId> skyline_before;
  std::vector<double> topk_before;
  {
    WorkbenchOptions options;
    options.file_path = path_;
    auto wb = Workbench::Build(MakeData(71), options);
    ASSERT_TRUE(wb.ok()) << wb.status().ToString();
    auto sky = RunSignature(**wb, skyline);
    ASSERT_TRUE(sky.ok());
    skyline_before = sky->tids;
    auto top = RunSignature(**wb, topk);
    ASSERT_TRUE(top.ok());
    topk_before = top->scores;
    ASSERT_TRUE((*wb)->Save().ok());
  }  // workbench destroyed; only the file remains

  auto wb = Workbench::Open(path_);
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  // The reconstructed Dataset matches the generator.
  Dataset expect = MakeData(71);
  ASSERT_EQ((*wb)->data().num_tuples(), expect.num_tuples());
  for (TupleId t = 0; t < expect.num_tuples(); t += 113) {
    EXPECT_EQ((*wb)->data().BoolValue(t, 1), expect.BoolValue(t, 1));
    EXPECT_EQ((*wb)->data().PrefValue(t, 0), expect.PrefValue(t, 0));
  }
  // Queries give identical answers (and match naive).
  auto sky = RunSignature(**wb, skyline);
  ASSERT_TRUE(sky.ok());
  EXPECT_EQ(sky->tids, skyline_before);
  EXPECT_EQ(sky->tids, NaiveSkyline((*wb)->data(), skyline.preds));
  auto top = RunSignature(**wb, topk);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->scores.size(), topk_before.size());
  for (size_t i = 0; i < topk_before.size(); ++i) {
    EXPECT_DOUBLE_EQ(top->scores[i], topk_before[i]);
  }
}

TEST_F(PersistenceTest, ReopenedSignaturesAreBitIdentical) {
  {
    WorkbenchOptions options;
    options.file_path = path_;
    auto wb = Workbench::Build(MakeData(72), options);
    ASSERT_TRUE(wb.ok());
    ASSERT_TRUE((*wb)->Save().ok());
  }
  auto wb = Workbench::Open(path_);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;
  auto paths = PathTable::Collect(*w.tree());
  ASSERT_TRUE(paths.ok());
  for (int dim = 0; dim < 3; ++dim) {
    for (uint32_t v = 0; v < 4; ++v) {
      Signature expect = BuildCellSignature(w.data(), *paths, {{dim, v}},
                                            w.tree()->fanout(),
                                            w.cube()->levels());
      auto got = w.cube()->store().LoadFull(AtomicCellId(dim, v),
                                            w.tree()->fanout(),
                                            w.cube()->levels());
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->Equals(expect)) << "dim=" << dim << " v=" << v;
    }
  }
}

TEST_F(PersistenceTest, ReopenedWorkbenchSupportsMaintenance) {
  {
    WorkbenchOptions options;
    options.file_path = path_;
    auto wb = Workbench::Build(MakeData(73), options);
    ASSERT_TRUE(wb.ok());
    ASSERT_TRUE((*wb)->Save().ok());
  }
  auto wb = Workbench::Open(path_);
  ASSERT_TRUE(wb.ok());
  Workbench& w = **wb;
  // Insert 20 new tuples through the reopened stack's write path.
  Dataset extra = MakeData(74);
  WriteBatch batch;
  for (TupleId i = 0; i < 20; ++i) {
    auto bools = extra.BoolRow(i);
    auto prefs = extra.PrefPoint(i);
    batch.inserts.push_back({{bools.begin(), bools.end()},
                             {prefs.begin(), prefs.end()}});
  }
  auto applied = w.Apply(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  // Queries still match naive over the extended dataset.
  PredicateSet preds{{1, 1}};
  auto sky = RunSignature(w, QueryRequest::Skyline(preds));
  ASSERT_TRUE(sky.ok());
  EXPECT_EQ(sky->tids, NaiveSkyline(w.data(), preds));
}

TEST_F(PersistenceTest, SaveRequiresFileBacking) {
  auto wb = Workbench::Build(MakeData(75), WorkbenchOptions{});
  ASSERT_TRUE(wb.ok());
  EXPECT_TRUE((*wb)->Save().IsInvalidArgument());
}

TEST_F(PersistenceTest, SaveRefusesWhatOpenCannotRestore) {
  // The catalog describes atomic cuboids only and no Bloom filters, so a
  // cube with either would reopen as a different, broken cube.
  PCubeOptions composite;
  composite.materialize_max_dims = 2;
  PCubeOptions bloom;
  bloom.build_bloom = true;
  for (const PCubeOptions& pcube : {composite, bloom}) {
    WorkbenchOptions options;
    options.file_path = path_;
    options.pcube = pcube;
    auto wb = Workbench::Build(MakeData(77), options);
    ASSERT_TRUE(wb.ok()) << wb.status().ToString();
    EXPECT_FALSE((*wb)->cube()->persistable());
    Status saved = (*wb)->Save();
    EXPECT_TRUE(saved.IsInvalidArgument()) << saved.ToString();
  }
}

TEST_F(PersistenceTest, OpenRejectsCatalogWithoutCube) {
  SaveThenRewriteCatalog([](CatalogData* c) { c->has_cube = false; });
  auto wb = Workbench::Open(path_);
  ASSERT_FALSE(wb.ok());
  EXPECT_TRUE(wb.status().IsCorruption()) << wb.status().ToString();
  EXPECT_NE(wb.status().ToString().find("cube"), std::string::npos)
      << wb.status().ToString();
}

TEST_F(PersistenceTest, OpenRejectsCatalogMissingAnIndex) {
  SaveThenRewriteCatalog([](CatalogData* c) { c->indices.pop_back(); });
  auto wb = Workbench::Open(path_);
  ASSERT_FALSE(wb.ok());
  EXPECT_TRUE(wb.status().IsCorruption()) << wb.status().ToString();
  EXPECT_NE(wb.status().ToString().find("indices"), std::string::npos)
      << wb.status().ToString();
}

TEST_F(PersistenceTest, OpenReportsDamagedBTreeRoot) {
  // Open walks each B+-tree from its root to a leaf to learn its height. A
  // root page that fails its checksum must fail Open with Corruption.
  using RootOf = PageId (*)(const CatalogData&);
  const std::pair<const char*, RootOf> roots[] = {
      {"boolean index", [](const CatalogData& c) { return c.indices[0].root; }},
      {"signature directory",
       [](const CatalogData& c) { return c.sig_index_root; }},
  };
  for (const auto& [name, root_of] : roots) {
    SCOPED_TRACE(name);
    RemoveFiles();
    PageId root = kInvalidPageId;
    SaveThenRewriteCatalog([&](CatalogData* c) { root = root_of(*c); });
    ASSERT_NE(root, kInvalidPageId);
    // Flip one byte of the root behind the checksum layer's back.
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long pos = static_cast<long>(root * kPageSize + 64);
    unsigned char byte = 0;
    ASSERT_EQ(std::fseek(f, pos, SEEK_SET), 0);
    ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
    byte ^= 0xFF;
    ASSERT_EQ(std::fseek(f, pos, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
    ASSERT_EQ(std::fclose(f), 0);

    auto wb = Workbench::Open(path_);
    ASSERT_FALSE(wb.ok());
    EXPECT_TRUE(wb.status().IsCorruption()) << wb.status().ToString();
    EXPECT_NE(wb.status().ToString().find("checksum"), std::string::npos)
        << wb.status().ToString();
  }
}

TEST_F(PersistenceTest, OpenRejectsGarbageFile) {
  {
    auto fpm = FilePageManager::Open(path_, /*truncate=*/true);
    ASSERT_TRUE(fpm.ok());
    Page junk;
    junk.Zero();
    junk.bytes[0] = 0x42;
    auto pid = (*fpm)->Allocate();
    ASSERT_TRUE(pid.ok());
    ASSERT_TRUE((*fpm)->Write(*pid, junk).ok());
  }
  auto wb = Workbench::Open(path_);
  EXPECT_FALSE(wb.ok());
}

TEST_F(PersistenceTest, CatalogRoundTripsLargeTableMaps) {
  // Force a multi-page catalog: thousands of table page ids.
  MemoryPageManager pm;
  IoStats stats;
  BufferPool pool(&pm, 256, &stats);
  PageId root;
  { auto h = pool.New(IoCategory::kBtree, &root); ASSERT_TRUE(h.ok()); }
  CatalogData c;
  c.num_bool = 2;
  c.num_pref = 3;
  c.bool_cardinality = {10, 20};
  c.num_tuples = 123456;
  for (PageId p = 0; p < 5000; ++p) c.table_pages.push_back(p * 7);
  CatalogData::IndexInfo info;
  info.root = 9;
  info.num_entries = 11;
  info.num_pages = 3;
  info.next_seq = 123;
  c.indices = {info, info};
  c.rtree_root = 77;
  c.rtree_height = 3;
  c.rtree_fanout = 127;
  c.rtree_entries = 123456;
  c.rtree_pages = 999;
  c.has_cube = true;
  for (uint64_t i = 0; i < 500; ++i) c.sig_dense.emplace(i * 3 + (1ull << 32), i);
  c.sig_index_root = 5;
  c.sig_num_partials = 42;
  c.sig_num_pages = 17;
  c.sig_append_page = 900;
  c.sig_append_offset = 1234;
  c.cube_cells = 30;
  c.cube_levels = 3;
  ASSERT_TRUE(SaveCatalog(&pool, root, c).ok());
  auto back = LoadCatalog(&pool, root);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->table_pages, c.table_pages);
  EXPECT_EQ(back->sig_dense, c.sig_dense);
  EXPECT_EQ(back->rtree_fanout, c.rtree_fanout);
  EXPECT_EQ(back->indices.size(), 2u);
  EXPECT_EQ(back->indices[1].next_seq, 123u);
  EXPECT_EQ(back->sig_append_offset, 1234u);
  EXPECT_EQ(back->cube_levels, 3);
}

}  // namespace
}  // namespace pcube

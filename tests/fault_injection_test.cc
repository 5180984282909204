// Robustness tests for the storage fault path: CRC-32 checksums catch
// injected corruption, the BufferPool's retry loop rides out transient read
// errors (and gives up with a typed IoError when they persist), Run
// degrades signature plans to the boolean-first baseline on corruption
// without changing answers, and per-query deadlines produce Status::Timeout.
// Run under ASan by scripts/ci.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "data/generators.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "storage/fault_injection.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Default().GetCounter(name)->Value();
}

TEST(ChecksumTest, Crc32KnownAnswer) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

// The byte-at-a-time table CRC, kept here as the oracle for both kernels:
// they must compute the same IEEE CRC-32, or every sidecar written before
// them would read as corrupt.
uint32_t BytewiseCrc32(const uint8_t* p, size_t n) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// Checks `crc` (Crc32 or one of its kernels) against the oracle. Every
// length 0-512 at every start offset 0-15 covers each head/tail split of
// slicing-by-8's eight-byte steps and, from 64 bytes on, of the PCLMULQDQ
// kernel's 64-byte folds, its 16-byte folds and its slicing-by-8 tail.
template <typename Crc>
void ExpectMatchesOracle(const char* kernel, Crc crc) {
  Random rng(91);
  std::vector<uint8_t> buf(kPageSize + 16);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 512; ++len) {
      ASSERT_EQ(crc(buf.data() + offset, len),
                BytewiseCrc32(buf.data() + offset, len))
          << kernel << " at offset " << offset << " length " << len;
    }
  }
  for (int trial = 0; trial < 16; ++trial) {
    for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
    const size_t offset = static_cast<size_t>(trial);
    EXPECT_EQ(crc(buf.data() + offset, kPageSize),
              BytewiseCrc32(buf.data() + offset, kPageSize))
        << kernel << " page at offset " << offset;
  }
  Page zero;
  zero.Zero();
  EXPECT_EQ(crc(zero.data(), kPageSize), BytewiseCrc32(zero.data(), kPageSize))
      << kernel << " zero page";
}

TEST(ChecksumTest, Crc32MatchesBytewiseOracle) {
  ExpectMatchesOracle("Crc32", Crc32);
  ExpectMatchesOracle("Crc32Scalar", Crc32Scalar);
#if defined(__x86_64__)
  if (CpuHasPclmul()) ExpectMatchesOracle("Crc32Clmul", Crc32Clmul);
#endif
}

TEST(ChecksumTest, CatchesCorruptionBelowTheLayer) {
  auto mem = std::make_unique<MemoryPageManager>();
  MemoryPageManager* raw = mem.get();
  ChecksumPageManager pm(std::move(mem));

  PageId pid = *pm.Allocate();
  Page page;
  page.Zero();
  page.data()[100] = 0xAB;
  ASSERT_TRUE(pm.Write(pid, page).ok());
  ASSERT_TRUE(pm.Read(pid, &page).ok());

  // Flip one byte behind the checksum layer's back, the way bit rot would.
  Page dirty;
  ASSERT_TRUE(raw->Read(pid, &dirty).ok());
  dirty.data()[100] ^= 0x01;
  ASSERT_TRUE(raw->Write(pid, dirty).ok());

  Status st = pm.Read(pid, &page);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(pm.checksum_failures(), 1u);

  // A rewrite through the layer re-records the checksum and heals the page.
  ASSERT_TRUE(pm.Write(pid, dirty).ok());
  EXPECT_TRUE(pm.Read(pid, &page).ok());
}

TEST(FaultPlanTest, ParseAndRoundTrip) {
  auto plan = FaultPlan::Parse(
      "seed=9,read_error=0.25,burst=3,bit_flip=0.5,short_read=0.125,"
      "torn_write=1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 9u);
  EXPECT_DOUBLE_EQ(plan->read_error_rate, 0.25);
  EXPECT_EQ(plan->read_error_burst, 3u);
  EXPECT_DOUBLE_EQ(plan->bit_flip_rate, 0.5);
  EXPECT_DOUBLE_EQ(plan->short_read_rate, 0.125);
  EXPECT_DOUBLE_EQ(plan->torn_write_rate, 1.0);
  EXPECT_TRUE(plan->enabled());

  auto again = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->seed, plan->seed);
  EXPECT_DOUBLE_EQ(again->read_error_rate, plan->read_error_rate);
  EXPECT_EQ(again->read_error_burst, plan->read_error_burst);
  EXPECT_DOUBLE_EQ(again->bit_flip_rate, plan->bit_flip_rate);

  EXPECT_FALSE(FaultPlan::Parse("bogus=1").ok());
  EXPECT_FALSE(FaultPlan::Parse("read_error=1.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("read_error=x").ok());
  EXPECT_FALSE(FaultPlan::Parse("seed").ok());
  auto empty = FaultPlan::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->enabled());
}

std::vector<bool> ReadOutcomePattern(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.read_error_rate = 0.3;
  plan.read_error_burst = 2;
  FaultInjectingPageManager pm(std::make_unique<MemoryPageManager>(), plan);
  for (int i = 0; i < 4; ++i) {
    auto pid = pm.Allocate();
    PCUBE_CHECK(pid.ok());
  }
  std::vector<bool> outcomes;
  Page page;
  for (PageId pid = 0; pid < 4; ++pid) {
    for (int i = 0; i < 20; ++i) outcomes.push_back(pm.Read(pid, &page).ok());
  }
  return outcomes;
}

TEST(FaultInjectionTest, SameSeedSameFaults) {
  std::vector<bool> a = ReadOutcomePattern(42);
  std::vector<bool> b = ReadOutcomePattern(42);
  std::vector<bool> c = ReadOutcomePattern(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // The plan actually did something, and not everything.
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
}

TEST(FaultInjectionTest, DisarmedLayerPassesThrough) {
  FaultPlan plan;
  plan.read_error_rate = 1.0;
  FaultInjectingPageManager pm(std::make_unique<MemoryPageManager>(), plan);
  PageId pid = *pm.Allocate();
  Page page;
  pm.set_armed(false);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(pm.Read(pid, &page).ok());
  pm.set_armed(true);
  EXPECT_TRUE(pm.Read(pid, &page).IsIoError());
}

TEST(FaultInjectionTest, BufferPoolRetriesRideOutShortBurst) {
  FaultPlan plan;
  ScriptedFault fault;
  fault.pid = 0;
  fault.op = ScriptedFault::Op::kRead;
  fault.kind = ScriptedFault::Kind::kTransientError;
  fault.after = 0;
  fault.times = 2;  // fails twice, heals on the third attempt
  plan.script.push_back(fault);
  FaultInjectingPageManager pm(std::make_unique<MemoryPageManager>(), plan);
  ASSERT_TRUE(pm.Allocate().ok());

  IoStats stats;
  BufferPool pool(&pm, 16, &stats);
  uint64_t retries_before = CounterValue("pcube_io_retries_total");
  uint64_t giveups_before = CounterValue("pcube_io_giveups_total");
  auto handle = pool.Get(0, IoCategory::kHeapFile);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(pm.injected_read_errors(), 2u);
  EXPECT_GE(CounterValue("pcube_io_retries_total"), retries_before + 2);
  EXPECT_EQ(CounterValue("pcube_io_giveups_total"), giveups_before);
}

TEST(FaultInjectionTest, BufferPoolGivesUpOnPersistentErrors) {
  FaultPlan plan;
  ScriptedFault fault;
  fault.pid = 0;
  fault.kind = ScriptedFault::Kind::kTransientError;
  fault.times = ~0ull;  // never heals
  plan.script.push_back(fault);
  FaultInjectingPageManager pm(std::make_unique<MemoryPageManager>(), plan);
  ASSERT_TRUE(pm.Allocate().ok());

  IoStats stats;
  BufferPool pool(&pm, 16, &stats);
  uint64_t giveups_before = CounterValue("pcube_io_giveups_total");
  auto handle = pool.Get(0, IoCategory::kHeapFile);
  EXPECT_TRUE(handle.status().IsIoError()) << handle.status().ToString();
  EXPECT_GE(CounterValue("pcube_io_giveups_total"), giveups_before + 1);
}

TEST(FaultInjectionTest, BitFlipBecomesCorruptionThroughChecksums) {
  FaultPlan plan;
  ScriptedFault fault;
  fault.pid = 0;
  fault.kind = ScriptedFault::Kind::kBitFlip;
  fault.after = 0;
  fault.times = ~0ull;
  plan.script.push_back(fault);
  auto faults = std::make_unique<FaultInjectingPageManager>(
      std::make_unique<MemoryPageManager>(), plan);
  ChecksumPageManager pm(std::move(faults));

  PageId pid = *pm.Allocate();
  Page page;
  page.Zero();
  std::fill(page.data(), page.data() + kPageSize, uint8_t{0xAB});
  ASSERT_TRUE(pm.Write(pid, page).ok());
  Status st = pm.Read(pid, &page);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(FaultInjectionTest, TornWriteCaughtOnNextRead) {
  FaultPlan plan;
  ScriptedFault fault;
  fault.pid = 0;
  fault.op = ScriptedFault::Op::kWrite;
  fault.kind = ScriptedFault::Kind::kTornWrite;
  fault.times = ~0ull;
  plan.script.push_back(fault);
  auto faults = std::make_unique<FaultInjectingPageManager>(
      std::make_unique<MemoryPageManager>(), plan);
  FaultInjectingPageManager* raw_faults = faults.get();
  ChecksumPageManager pm(std::move(faults));

  PageId pid = *pm.Allocate();
  Page page;
  std::fill(page.data(), page.data() + kPageSize, uint8_t{0xAB});
  // The torn write itself reports success — crashes mid-pwrite are silent.
  ASSERT_TRUE(pm.Write(pid, page).ok());
  EXPECT_EQ(raw_faults->injected_torn_writes(), 1u);
  Status st = pm.Read(pid, &page);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// ------------------------------------------------------------ query path

std::unique_ptr<Workbench> BuildBench(WorkbenchOptions options,
                                      uint64_t rows = 4000) {
  SyntheticConfig config;
  config.num_tuples = rows;
  config.num_bool = 3;
  config.num_pref = 2;
  config.bool_cardinality = 8;
  config.seed = 11;
  // These tests inject faults into PHYSICAL reads; both cache levels sit
  // above the page manager and would mask the damage for every repeat of a
  // query (L2 replays clean decoded signature fragments, L1 clean answers),
  // turning assertions about degradation into no-ops. cache_test.cc covers
  // the cache/corruption interaction explicitly.
  options.result_cache_mb = 0;
  options.fragment_cache_mb = 0;
  auto wb = Workbench::Build(GenerateSynthetic(config), std::move(options));
  PCUBE_CHECK(wb.ok()) << wb.status().ToString();
  return std::move(*wb);
}

/// Flips one byte of every signature data page BELOW the checksum layer, so
/// the next physical read fails verification like real media rot.
void CorruptSignaturePages(Workbench* wb) {
  ASSERT_NE(wb->checksums(), nullptr);
  PageManager* below = wb->checksums()->inner();
  auto pages = wb->cube()->store().DataPages();
  ASSERT_TRUE(pages.ok()) << pages.status().ToString();
  ASSERT_FALSE(pages->empty());
  for (PageId pid : *pages) {
    Page page;
    ASSERT_TRUE(below->Read(pid, &page).ok());
    page.data()[17] ^= 0xFF;
    ASSERT_TRUE(below->Write(pid, page).ok());
  }
}

TEST(DegradationTest, RunFallsBackToBooleanOnSignatureCorruption) {
  auto wb = BuildBench({});
  QueryRequest request = QueryRequest::Skyline(PredicateSet{{0, 3}}, {});
  request.hint = PlanHint::kSignature;

  auto clean = wb->Run(request);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_FALSE(clean->degraded);

  CorruptSignaturePages(wb.get());
  ASSERT_TRUE(wb->ColdStart().ok());  // drop the clean cached copies

  uint64_t degraded_before = CounterValue("pcube_queries_degraded_total");
  auto resp = wb->Run(request);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->degraded);
  EXPECT_FALSE(resp->degraded_reason.empty());
  EXPECT_EQ(resp->estimate.choice, PlanChoice::kBooleanFirst);
  EXPECT_EQ(resp->tids, clean->tids);  // same answer, different plan
  EXPECT_EQ(CounterValue("pcube_queries_degraded_total"), degraded_before + 1);
  EXPECT_GE(CounterValue("pcube_io_checksum_failures_total"), 1u);
}

TEST(DegradationTest, SkybandNeverDegradesToAWrongAnswer) {
  // The boolean-first baseline only answers plain skylines and top-k; a
  // k-skyband with a corrupt signature path must fail typed, not fall back.
  auto wb = BuildBench({});
  CorruptSignaturePages(wb.get());
  ASSERT_TRUE(wb->ColdStart().ok());

  SkylineQueryOptions band;
  band.skyband_k = 2;
  QueryRequest request = QueryRequest::Skyline(PredicateSet{{0, 3}}, band);
  request.hint = PlanHint::kSignature;
  auto resp = wb->Run(request);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsCorruption()) << resp.status().ToString();
}

TEST(DegradationTest, VerifyIntegrityFlagsCorruptSignaturePages) {
  auto wb = BuildBench({});
  auto clean_report = wb->VerifyIntegrity();
  ASSERT_TRUE(clean_report.ok()) << clean_report.status().ToString();
  for (const auto& [pid, msg] : clean_report->errors) {
    ADD_FAILURE() << "clean workbench: page " << pid << ": " << msg;
  }
  EXPECT_GT(clean_report->pages_checked, 0u);

  CorruptSignaturePages(wb.get());
  ASSERT_TRUE(wb->ColdStart().ok());
  auto report = wb->VerifyIntegrity();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->ok());
  EXPECT_GE(report->errors.size(), 1u);
}

TEST(DeadlineTest, SkylineTimesOutUnderSimulatedDiskLatency) {
  WorkbenchOptions options;
  options.read_latency_us = 300;  // every cold page read costs 300us
  auto wb = BuildBench(std::move(options));
  QueryRequest request = QueryRequest::Skyline(PredicateSet{}, {});
  request.hint = PlanHint::kSignature;
  request.deadline_ms = 1;
  uint64_t timeouts_before = CounterValue("pcube_query_timeouts_total");
  auto resp = wb->Run(request);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsTimeout()) << resp.status().ToString();
  EXPECT_GE(CounterValue("pcube_query_timeouts_total"), timeouts_before + 1);
}

/// A high-cardinality instance where a value of dimension 0 matches a few
/// tuples (~4 of 20000 rows, against ~100 table pages): the cost model picks
/// boolean-first for such a needle (Fig. 11), and its posting fetch is
/// short. Every cold page read costs `read_latency_us`.
std::unique_ptr<Workbench> BuildNeedleBench(double read_latency_us) {
  SyntheticConfig config;
  config.num_tuples = 20000;
  config.num_bool = 2;
  config.num_pref = 2;
  config.bool_cardinality = 5000;
  config.seed = 12;
  WorkbenchOptions options;
  options.read_latency_us = read_latency_us;
  options.result_cache_mb = 0;
  options.fragment_cache_mb = 0;
  auto wb = Workbench::Build(GenerateSynthetic(config), std::move(options));
  PCUBE_CHECK(wb.ok()) << wb.status().ToString();
  return std::move(*wb);
}

TEST(DeadlineTest, BooleanFirstTimesOutUnderSimulatedDiskLatency) {
  // Both access paths of the boolean-first plan honour the budget: the
  // table scan (no predicate) and the posting fetch (a needle). One cold
  // read alone outlasts the 1 ms budget.
  auto wb = BuildNeedleBench(/*read_latency_us=*/1000);
  const PredicateSet needle{{0, wb->data().BoolValue(0, 0)}};
  for (const PredicateSet& preds : {PredicateSet{}, needle}) {
    QueryRequest request = QueryRequest::Skyline(preds);
    request.hint = PlanHint::kBooleanFirst;
    request.deadline_ms = 1;
    ASSERT_TRUE(wb->ColdStart().ok());
    auto resp = wb->Run(request);
    ASSERT_FALSE(resp.ok()) << preds.ToString();
    EXPECT_TRUE(resp.status().IsTimeout()) << resp.status().ToString();

    // Without the budget the same cold query answers.
    request.deadline_ms = 0;
    ASSERT_TRUE(wb->ColdStart().ok());
    EXPECT_TRUE(wb->Run(request).ok()) << preds.ToString();
  }
}

// ------------------------------------------------------------ batch path

std::vector<BatchQuery> SmallWorkload() {
  std::vector<BatchQuery> queries;
  auto linear = std::make_shared<LinearRanking>(std::vector<double>{1.0, 2.0});
  for (uint32_t v = 0; v < 8; ++v) {
    queries.push_back(BatchQuery::Skyline(PredicateSet{{0, v}}));
    queries.push_back(BatchQuery::TopK(PredicateSet{{1, v}}, linear, 5));
  }
  return queries;
}

std::vector<TupleId> Sorted(std::vector<TupleId> tids) {
  std::sort(tids.begin(), tids.end());
  return tids;
}

TEST(FaultInjectionTest, BatchUnderTransientFaultsMatchesCleanReference) {
  auto clean = BuildBench({});
  // Scripted (not probabilistic) faults keep this deterministic: the first
  // two reads of every third page fail, the third heals — always within the
  // BufferPool's retry budget.
  WorkbenchOptions faulty_options;
  for (PageId pid = 0; pid < 600; pid += 3) {
    ScriptedFault fault;
    fault.pid = pid;
    fault.kind = ScriptedFault::Kind::kTransientError;
    fault.after = 0;
    fault.times = 2;
    faulty_options.fault_plan.script.push_back(fault);
  }
  auto faulty = BuildBench(std::move(faulty_options));

  std::vector<BatchQuery> queries = SmallWorkload();
  BatchOutput ref = clean->RunBatch(queries, 4);
  ASSERT_TRUE(faulty->ColdStart().ok());
  BatchOutput out = faulty->RunBatch(queries, 4);

  EXPECT_GT(faulty->faults()->injected_read_errors(), 0u);
  EXPECT_EQ(out.failed, 0u);  // every transient error healed by retry
  ASSERT_EQ(out.results.size(), ref.results.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(out.results[i].status.ok())
        << i << ": " << out.results[i].status.ToString();
    EXPECT_EQ(Sorted(out.results[i].response.tids),
              Sorted(ref.results[i].response.tids))
        << "query " << i;
  }
}

TEST(FaultInjectionTest, BatchUnderHeavyBitFlipsFailsTypedNeverSilently) {
  WorkbenchOptions options;
  options.fault_plan.seed = 6;
  options.fault_plan.bit_flip_rate = 0.5;
  auto wb = BuildBench(std::move(options));
  auto clean = BuildBench({});

  std::vector<BatchQuery> queries = SmallWorkload();
  BatchOutput ref = clean->RunBatch(queries, 4);
  ASSERT_TRUE(wb->ColdStart().ok());
  BatchOutput out = wb->RunBatch(queries, 4);

  EXPECT_GT(out.failed, 0u);
  ASSERT_EQ(out.results.size(), queries.size());
  for (size_t i = 0; i < out.results.size(); ++i) {
    const Status& st = out.results[i].status;
    if (st.ok()) {
      // A query that dodged every flip must still be exactly right.
      EXPECT_EQ(Sorted(out.results[i].response.tids),
                Sorted(ref.results[i].response.tids))
          << "query " << i;
    } else {
      EXPECT_TRUE(st.IsCorruption() || st.IsIoError()) << st.ToString();
    }
  }
}

TEST(DeadlineTest, BatchAccountsTimeouts) {
  auto wb = BuildNeedleBench(/*read_latency_us=*/1000);
  const PredicateSet needle{{0, wb->data().BoolValue(0, 0)}};
  auto est = wb->Estimate(needle);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  ASSERT_EQ(est->choice, PlanChoice::kBooleanFirst);
  // The default plan (boolean-first, the cost model's pick) and the forced
  // signature engine must both honour the budget.
  for (PlanHint hint : {PlanHint::kAuto, PlanHint::kSignature}) {
    std::vector<BatchQuery> queries;
    for (int i = 0; i < 4; ++i) {
      BatchQuery q = BatchQuery::Skyline(needle);
      q.hint = hint;
      q.deadline_ms = 1;
      queries.push_back(std::move(q));
    }
    ASSERT_TRUE(wb->ColdStart().ok());
    BatchOutput out = wb->RunBatch(queries, 2);
    // Queries that arrive after siblings warmed the pool can finish in
    // time; at least the cold ones must hit the deadline, and every failure
    // must be a typed Timeout.
    EXPECT_GT(out.timed_out, 0u) << "hint " << static_cast<int>(hint);
    EXPECT_EQ(out.timed_out, out.failed);
    for (const auto& r : out.results) {
      EXPECT_TRUE(r.status.ok() || r.status.IsTimeout()) << r.status.ToString();
    }
  }
}

}  // namespace
}  // namespace pcube

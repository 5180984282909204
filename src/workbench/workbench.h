// End-to-end assembly of one experimental instance: a simulated disk
// (MemoryPageManager + BufferPool + IoStats), the heap file, the boolean
// B+-tree indices, the shared R*-tree partition and the P-Cube built over
// it. Tests, benchmarks and examples all start from here so they measure
// the same storage stack the paper describes in §VI.A.
//
// It is also the system's one query path. Workbench::Run answers every
// QueryRequest — from the CLI, a batch, or the network server — the same
// way: L1 result cache, cost-based choice between the signature plan
// (Algorithm 1) and boolean-first (Fig. 11), execution, degradation to
// boolean-first on storage damage, publish. It is safe from any number of
// threads, concurrently with Apply().
#pragma once

#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "baselines/boolean_first.h"
#include "baselines/domination_first.h"
#include "baselines/index_merge.h"
#include "cache/epoch.h"
#include "cache/fragment_cache.h"
#include "cache/result_cache.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/trace.h"
#include "core/pcube.h"
#include "data/generators.h"
#include "query/incremental.h"
#include "query/request.h"
#include "query/skyline_engine.h"
#include "query/topk_engine.h"
#include "query/write_batch.h"
#include "storage/checksum.h"
#include "storage/fault_injection.h"
#include "storage/table_store.h"
#include "storage/wal.h"
#include "workbench/write_path.h"

namespace pcube {

/// One query of a batch — the unified request type.
using BatchQuery = QueryRequest;

/// Outcome of one query of a batch: Run()'s status and, on success, its
/// response (result tids/scores, counters, physical I/O, trace, wall time).
struct BatchQueryResult {
  Status status;
  QueryResponse response;
};

/// Latency quantiles of one batch, estimated from a log-bucketed Histogram
/// of per-query wall times (common/metrics.h).
struct LatencySummary {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double mean = 0;
  uint64_t count = 0;
};

/// A completed batch: per-query results in input order plus merged counters.
struct BatchOutput {
  std::vector<BatchQueryResult> results;
  IoStats io;              ///< sum of every successful query's physical I/O
  uint64_t failed = 0;     ///< queries whose status is not OK
  uint64_t timed_out = 0;  ///< subset of `failed` with Status::Timeout
  double seconds = 0;      ///< wall time of the whole batch
  LatencySummary latency;  ///< per-query wall-time quantiles
};

/// Every knob of a Workbench instance, for both entry points — this struct
/// is the single documented surface. Every instance carries all of its
/// structures (heap file, boolean indices, R-tree, cube) and per-page
/// checksums; the knobs only shape them. Build(data, options) honours all
/// fields; Open(path, options) honours the runtime fields (pool_pages,
/// pool_stripes, read_latency_us, both fault plans and both cache budgets)
/// and ignores the build-time ones (rtree, pcube, rtree_by_insertion,
/// grid_cells_per_dim, file_path) because the structures already exist on
/// disk.
struct WorkbenchOptions {
  /// Buffer-pool capacity in pages (default 64Ki pages = 256 MiB of frames).
  size_t pool_pages = size_t{1} << 16;
  /// Lock stripes for the buffer pool; 0 = automatic (see BufferPool).
  /// Concurrency benchmarks set this explicitly so small eviction-pressure
  /// pools still get parallel stripes.
  size_t pool_stripes = 0;
  /// R*-tree shape (fanout etc.; dims is overwritten from the schema).
  RTreeOptions rtree;
  /// P-Cube materialisation (cuboid depth, Bloom signatures).
  PCubeOptions pcube;
  /// Build the R-tree by repeated R* insertion (construction benchmarks)
  /// instead of STR bulk loading.
  bool rtree_by_insertion = false;
  /// When > 0, use an equi-width grid partition with this many cells per
  /// dimension as the P-Cube template instead of an R-tree clustering.
  int grid_cells_per_dim = 0;
  /// When > 0, wrap the page manager in a LatencyPageManager sleeping this
  /// long per physical read. The latency is enabled only AFTER construction,
  /// so building stays fast; queries then pay real blocked time per page
  /// miss (throughput benchmarks overlap these stalls across workers).
  double read_latency_us = 0;
  /// When non-empty, back everything by a file instead of RAM; the instance
  /// can then be persisted with Save() and reopened with Workbench::Open().
  /// Every page carries a CRC-32 verified on each physical read
  /// (storage/checksum.h), persisted to `<file_path>.chk` on Save(); files
  /// from before that layer open fine (adopt-on-read).
  std::string file_path;
  /// Storage fault injection (storage/fault_injection.h). Injection is
  /// disarmed while Build/Open construct the structures and armed just
  /// before returning, so faults hit queries, not construction.
  FaultPlan fault_plan;
  /// Separate fault plan for the write-ahead log's own page stack (crash
  /// tests tear the WAL tail deterministically without perturbing the main
  /// store). Disarmed during Open's replay, armed before returning.
  FaultPlan wal_fault_plan;
  /// L1 semantic result cache budget in MiB (cache/result_cache.h); 0
  /// disables the level. Consulted by every Run().
  size_t result_cache_mb = 16;
  /// L2 decoded-signature fragment cache budget in MiB
  /// (cache/fragment_cache.h); 0 disables the level.
  size_t fragment_cache_mb = 16;
};

/// One fully built experimental instance. Heap-allocated and pinned (the
/// maintenance thread and the lock members make it immovable); always held
/// behind a unique_ptr.
class Workbench {
 public:
  /// Builds every structure for `data` (the R-tree dims follow the schema).
  static Result<std::unique_ptr<Workbench>> Build(Dataset data,
                                                  WorkbenchOptions options);

  /// Stops the maintenance thread. Durable-acked batches it had not applied
  /// yet survive in the WAL and are replayed by the next Open().
  ~Workbench();

  /// Writes the catalog and flushes all pages. InvalidArgument unless the
  /// instance is file-backed (options.file_path) and its cube is one Open()
  /// can restore (PCube::persistable: atomic cuboids, no Bloom signatures).
  /// Drains the write path, syncs the page file, then truncates the WAL
  /// (checkpoint).
  Status Save();

  /// Reopens a previously Save()d file: re-attaches every structure and
  /// reconstructs the in-memory Dataset from the heap file. A catalog that
  /// lacks the cube or an index per boolean dimension is Corruption. The
  /// single open path — `options` defaults cover the common case; see
  /// WorkbenchOptions for which fields apply to reopen.
  static Result<std::unique_ptr<Workbench>> Open(
      const std::string& path, const WorkbenchOptions& options = {});

  /// Makes the instance fully cold for a measurement: flushes and empties
  /// the buffer pool, invalidates both cache levels (L1 results, L2 decoded
  /// signature fragments) by bumping every epoch, and snapshots IoStats, so
  /// queries run after this observe cold-cache disk-access counts. Takes the
  /// structure writer lock; benchmarks and tests call it between measured
  /// runs — Run() never does.
  Status ColdStart();

  /// I/O performed since the last ColdStart(), for measuring work that runs
  /// outside Run() (baselines, raw engines).
  IoStats IoSince() const { return stats_.Delta(snapshot_); }

  const Dataset& data() const { return data_; }
  Dataset* mutable_data() { return &data_; }
  BufferPool* pool() { return pool_.get(); }
  IoStats* stats() { return &stats_; }
  TableStore* table() { return table_.get(); }
  const std::vector<BooleanIndex>& indices() const { return indices_; }
  std::vector<BooleanIndex>* mutable_indices() { return &indices_; }
  RStarTree* tree() { return tree_.get(); }
  PCube* cube() { return cube_.get(); }
  PageManager* page_manager() { return pm_.get(); }
  /// The fault-injection layer, or null when options.fault_plan is empty.
  FaultInjectingPageManager* faults() { return faults_; }
  /// The checksum layer (always present).
  ChecksumPageManager* checksums() { return checksums_; }

  /// The invalidation epochs every mutation bumps (always present).
  DataEpoch* epoch() { return &epoch_; }
  /// L1 result cache, or null when options.result_cache_mb == 0.
  ResultCache* result_cache() { return result_cache_.get(); }
  /// L2 fragment cache, or null when options.fragment_cache_mb == 0.
  FragmentCache* fragment_cache() { return fragment_cache_.get(); }

  /// Optional value dictionaries for the boolean dimensions (set by CSV
  /// importers); persisted with Save() and restored by Open().
  void set_dictionaries(std::vector<std::vector<std::string>> dicts) {
    dictionaries_ = std::move(dicts);
  }
  const std::vector<std::vector<std::string>>& dictionaries() const {
    return dictionaries_;
  }

  /// The query entry point. Thread-safe; runs on the calling thread under
  /// the structure reader lock, with every physical read and io_wait span
  /// charged to this query's response. In order:
  ///   1. reject a request outside the schema (InvalidArgument): a
  ///      predicate, pref_dim, origin or ranking that does not fit it;
  ///   2. L1 result cache — an exact hit or top-k containment answers
  ///      directly; skyline containment seeds a Lemma 2 drill-down;
  ///   3. plan: a skyband or dynamic skyline always runs the signature
  ///      engine, else a forced request.hint decides, else Estimate();
  ///   4. execute; when the signature plan fails on Corruption/IoError and
  ///      boolean-first can answer the query, recompute through it and mark
  ///      the response `degraded`;
  ///   5. publish to L1 (not degraded answers, not forced hints) and report
  ///      metrics.
  /// response.estimate.choice is the plan that ran (for a cache hit, the
  /// plan that produced the entry). Measurements are warm: Run never
  /// touches the buffer pool's contents — call ColdStart() first for cold
  /// numbers. Forced hints bypass the cache in both directions.
  Result<QueryResponse> Run(const QueryRequest& request);

  /// Same as Run(); perfbench/ still calls it by this name.
  Result<QueryResponse> RunShared(const QueryRequest& request) {
    return Run(request);
  }

  /// Cost estimates for both plans, without executing anything or reading a
  /// page: exact per-predicate match counts (the boolean indices' posting
  /// counts, kept in memory) and an R-tree traversal model (Fig. 11's
  /// crossover).
  Result<PlanEstimate> Estimate(const PredicateSet& preds);

  /// The mutation entry point (DESIGN.md §15): fully
  /// validates the batch (schema AND delete tids, against the staged-write
  /// cursors), stages it in the WAL under the write lock, joins a group
  /// commit (one fsync per concurrent writer group), then either returns at
  /// durability (Ack::kDurable) or waits for the maintenance thread to apply
  /// the batch (Ack::kApplied — read-your-writes). A rejected batch never
  /// reaches the WAL, so a batch the log accepted can only fail to apply on
  /// a storage fault — replay after a crash never trips over a batch the
  /// original run already refused. Thread-safe; runs concurrently with
  /// queries, which only ever block for the bounded slice the maintenance
  /// thread holds the structure writer lock.
  Result<WriteResult> Apply(const WriteBatch& batch);

  /// Blocks until every batch staged so far is durable AND applied.
  Status DrainWrites();

  /// Recomputes every cube signature from the current tree — the public
  /// gateway to the internal PCube::Rebuild (bench_fig7's rebuild arm).
  /// Drains the write path first; bumps every epoch.
  Status RebuildCube();

  /// Tuples deleted since the heap file was built: Apply() removes deletes
  /// from the R-tree immediately but the heap file and boolean indices keep
  /// their rows, so the boolean-first plan filters through this set. Stable
  /// only while no Apply() is in flight.
  const std::unordered_set<TupleId>& tombstones() const { return tombstones_; }

  /// The write-ahead log (always present; RAM-backed when file_path empty).
  Wal* wal() { return wal_.get(); }

  /// Answers `queries` through Run() on `num_workers` threads; results come
  /// back in input order with merged I/O and latency quantiles, and one
  /// query's failure never poisons the batch. `query_log`, when non-null,
  /// receives one JSONL record per successful query.
  BatchOutput RunBatch(const std::vector<BatchQuery>& queries,
                       size_t num_workers, QueryLog* query_log = nullptr);

  /// Publishes this instance's storage gauges — buffer pool per-stripe
  /// hit/miss/eviction/load-wait plus structure page counts — into
  /// `registry` (pass &MetricsRegistry::Default() for the process dump).
  void ExportMetrics(MetricsRegistry* registry) const;

  /// What VerifyIntegrity found. ok() means every page read back with a
  /// valid checksum and every structure held its invariants.
  struct IntegrityReport {
    uint64_t pages_checked = 0;
    /// One (page id or kInvalidPageId, description) per problem.
    std::vector<std::pair<PageId, std::string>> errors;
    bool ok() const { return errors.empty(); }
  };

  /// Full integrity walk (the engine behind `pcube verify`): reads every
  /// allocated page through the checksum layer, range-scans each boolean
  /// B+-tree checking key order and entry counts, walks the R-tree
  /// structure (RStarTree::CheckStructure) and reassembles every stored
  /// cell signature. Read-only; ends with a ColdStart so the verification
  /// traffic does not pollute later measurements.
  Result<IntegrityReport> VerifyIntegrity();

 private:
  friend class WriteApplier;

  Workbench() : pool_(nullptr) {}

  /// Builds the page stack shared by Build() and Open(), bottom-up: the
  /// base store (RAM when `path` is empty, else the file, truncated when
  /// `create`) -> fault injection (disarmed) -> checksums -> latency (at
  /// zero) -> buffer pool.
  Status StackPages(const std::string& path, bool create,
                    const WorkbenchOptions& options);

  /// Start-up tail of Build() and Open(), once every structure exists and
  /// the WAL is open: creates the configured cache levels and attaches them
  /// to the cube, empties the pool, enables the read latency, arms both
  /// fault plans, seeds the write-path cursors and starts the maintenance
  /// thread.
  Status StartUp(const WorkbenchOptions& options);

  /// ColdStart() for callers that already exclude queries and maintenance
  /// (Build/Open before the first query, VerifyIntegrity under the lock).
  Status ColdStartLocked();

  /// Recounts posting_counts_ from data_ (Build/Open, before any write).
  void CountPostings();
  /// Counts one index entry of `value` on boolean dimension `dim`.
  void AddPosting(int dim, uint32_t value);

  // Run()'s steps; the caller holds struct_mu_ shared.
  /// InvalidArgument unless every predicate names a boolean dimension of
  /// the schema (Estimate's check).
  Status CheckPredicates(const PredicateSet& preds) const;
  /// Run's check: the predicates, plus every pref_dim, the dynamic-skyline
  /// origin (empty or one coordinate per preference dimension), skyband_k
  /// and the ranking's dimension count must fit the schema.
  Status CheckRequest(const QueryRequest& request) const;
  PlanEstimate EstimateLocked(const PredicateSet& preds) const;
  Status Execute(const QueryRequest& request, QueryResponse* resp);
  Status ExecuteSignature(
      const QueryRequest& request, const SkylineOutput* drill_prev,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      QueryResponse* resp, std::shared_ptr<const SkylineOutput>* state);
  Status ExecuteBoolean(
      const QueryRequest& request,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      QueryResponse* resp);

  /// One staged-but-unapplied batch, queued in LSN order.
  struct PendingWrite {
    uint64_t lsn = 0;
    WriteBatch batch;
  };

  /// Background maintenance: takes bounded slices of DURABLE pending
  /// batches, applies them under the structure writer lock (readers run
  /// between slices), records per-batch failures, advances applied_lsn_.
  void MaintenanceLoop();

  // pcube-lint: begin-lock-free(the structural members are synchronized by
  // struct_mu_'s whole-execution protocol: queries hold the shared side for
  // their entire run, the maintenance thread takes the exclusive side per
  // bounded slice — a discipline GUARDED_BY cannot express because reads
  // reach these fields through layers that never see the lock)
  Dataset data_;
  IoStats stats_;
  IoStats snapshot_;
  std::unique_ptr<PageManager> pm_;
  FaultInjectingPageManager* faults_ = nullptr;   // owned via pm_ chain
  ChecksumPageManager* checksums_ = nullptr;      // owned via pm_ chain
  LatencyPageManager* latency_ = nullptr;         // owned via pm_ chain
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<TableStore> table_;
  std::vector<BooleanIndex> indices_;
  /// posting_counts_[d][v] == indices_[d].Count(v), tombstoned rows included
  /// (the indices keep them too): Estimate's input. Advanced by the write
  /// path with every index entry it adds.
  std::vector<std::vector<uint64_t>> posting_counts_;
  std::unique_ptr<RStarTree> tree_;
  std::unique_ptr<PCube> cube_;
  DataEpoch epoch_;
  std::unique_ptr<FragmentCache> fragment_cache_;
  std::unique_ptr<ResultCache> result_cache_;
  PageId catalog_root_ = kInvalidPageId;
  std::vector<std::vector<std::string>> dictionaries_;
  // pcube-lint: end-lock-free

  // ---- Write path (DESIGN.md §15) ----------------------------------------
  // pcube-lint: lock-free(the Wal is internally synchronized; the pointer
  // itself is fixed by Build()/Open() before the maintenance thread starts)
  std::unique_ptr<Wal> wal_;
  /// Structure lock: queries hold it shared for their whole execution, the
  /// maintenance thread holds it exclusive per bounded slice. Mutable so
  /// const observers (ExportMetrics) can take the shared side.
  mutable SharedMutex struct_mu_;
  /// Deleted tuples (see tombstones()); written under struct_mu_ exclusive,
  /// read by the boolean-first plan under the shared side.
  // pcube-lint: lock-free(same whole-execution struct_mu_ protocol as the
  // structural members above)
  std::unordered_set<TupleId> tombstones_;
  Mutex write_mu_;
  std::deque<PendingWrite> pending_writes_ GUARDED_BY(write_mu_);
  /// Logical row count including every staged insert: the next batch's
  /// first_tid and its WAL replay cursor (base_rows).
  uint64_t staged_rows_ GUARDED_BY(write_mu_) = 0;
  /// Tids deleted by any staged batch (tombstones_ plus batches not yet
  /// applied): Apply() rejects a delete against this set BEFORE the batch
  /// reaches the WAL, so logically invalid deletes are refused wholly and
  /// the log never holds a batch that replay would have to refuse.
  std::unordered_set<TupleId> staged_deletes_ GUARDED_BY(write_mu_);
  uint64_t applied_lsn_ GUARDED_BY(write_mu_) = 0;
  /// Failures of applied batches, keyed by LSN; consumed by the kApplied
  /// waiter (kDurable failures surface in metrics and DrainWrites).
  std::map<uint64_t, Status> apply_errors_ GUARDED_BY(write_mu_);
  bool stop_maintenance_ GUARDED_BY(write_mu_) = false;
  CondVar pending_cv_;  ///< maintenance waits: work arrived / stop
  CondVar applied_cv_;  ///< writers wait: applied_lsn_ advanced
  // pcube-lint: lock-free(started last in StartUp(), joined in
  // Stop()/the destructor; the handle is never touched in between)
  std::thread maintenance_;
};

}  // namespace pcube

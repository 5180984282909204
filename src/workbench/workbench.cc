#include "workbench/workbench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_set>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "workbench/catalog.h"

namespace pcube {

namespace {
/// Rows the maintenance thread applies per structure-writer-lock slice:
/// bounds how long a slice can stall readers (fork_gc-style batching).
constexpr size_t kMaintenanceSliceRows = 4096;
}  // namespace

Result<std::unique_ptr<Workbench>> Workbench::Build(Dataset data,
                                                    WorkbenchOptions options) {
  std::unique_ptr<Workbench> wb(new Workbench());
  wb->data_ = std::move(data);
  PCUBE_RETURN_NOT_OK(
      wb->StackPages(options.file_path, /*create=*/true, options));
  if (!options.file_path.empty()) {
    // Reserve the catalog root before anything else so Open() can find it.
    auto handle = wb->pool_->New(IoCategory::kBtree, &wb->catalog_root_);
    if (!handle.ok()) return handle.status();
    PCUBE_CHECK_EQ(wb->catalog_root_, PageId{0});
  }
  auto table = TableStore::Build(wb->pool_.get(), wb->data_);
  if (!table.ok()) return table.status();
  wb->table_ = std::make_unique<TableStore>(std::move(*table));
  for (int d = 0; d < wb->data_.num_bool(); ++d) {
    auto index = BooleanIndex::Build(wb->pool_.get(), wb->data_, d);
    if (!index.ok()) return index.status();
    wb->indices_.push_back(std::move(*index));
  }
  wb->CountPostings();
  RTreeOptions rtree_options = options.rtree;
  rtree_options.dims = wb->data_.num_pref();
  auto tree =
      options.grid_cells_per_dim > 0
          ? RStarTree::BuildGridPartition(wb->pool_.get(), wb->data_,
                                          rtree_options,
                                          options.grid_cells_per_dim)
          : (options.rtree_by_insertion
                 ? RStarTree::BuildByInsertion(wb->pool_.get(), wb->data_,
                                               rtree_options)
                 : RStarTree::BulkLoad(wb->pool_.get(), wb->data_,
                                       rtree_options));
  if (!tree.ok()) return tree.status();
  wb->tree_ = std::make_unique<RStarTree>(std::move(*tree));
  auto cube =
      PCube::Build(wb->pool_.get(), wb->data_, *wb->tree_, options.pcube);
  if (!cube.ok()) return cube.status();
  wb->cube_ = std::make_unique<PCube>(std::move(*cube));
  Wal::Options wal_options;
  if (!options.file_path.empty()) wal_options.path = options.file_path + ".wal";
  wal_options.truncate = true;
  wal_options.fault_plan = options.wal_fault_plan;
  auto wal = Wal::Open(wal_options);
  if (!wal.ok()) return wal.status();
  wb->wal_ = std::move(*wal);
  PCUBE_RETURN_NOT_OK(wb->StartUp(options));
  return wb;
}

Workbench::~Workbench() {
  if (maintenance_.joinable()) {
    {
      MutexLock lock(&write_mu_);
      stop_maintenance_ = true;
    }
    pending_cv_.SignalAll();
    maintenance_.join();
  }
}

Status Workbench::StackPages(const std::string& path, bool create,
                             const WorkbenchOptions& options) {
  if (path.empty()) {
    pm_ = std::make_unique<MemoryPageManager>();
  } else {
    auto fpm = FilePageManager::Open(path, /*truncate=*/create);
    if (!fpm.ok()) return fpm.status();
    pm_ = std::move(*fpm);
    // A stale sidecar from a previous database at this path must not
    // survive the truncation.
    if (create) std::remove((path + ".chk").c_str());
  }
  // Decorator stack, bottom-up: base -> fault injection -> checksums ->
  // latency. Faults sit below the checksum layer so injected corruption is
  // detected exactly like real corruption would be. Injection stays
  // disarmed and the latency zero until StartUp(), so building, reopening
  // and replay run fast and fault-free.
  if (options.fault_plan.enabled()) {
    auto wrapped = std::make_unique<FaultInjectingPageManager>(
        std::move(pm_), options.fault_plan);
    faults_ = wrapped.get();
    faults_->set_armed(false);
    pm_ = std::move(wrapped);
  }
  auto checksums = std::make_unique<ChecksumPageManager>(
      std::move(pm_), path.empty() ? std::string() : path + ".chk");
  checksums_ = checksums.get();
  pm_ = std::move(checksums);
  if (options.read_latency_us > 0) {
    auto wrapped = std::make_unique<LatencyPageManager>(std::move(pm_));
    latency_ = wrapped.get();
    pm_ = std::move(wrapped);
  }
  pool_ = std::make_unique<BufferPool>(pm_.get(), options.pool_pages, &stats_,
                                       options.pool_stripes);
  return Status::OK();
}

Status Workbench::StartUp(const WorkbenchOptions& options) {
  if (options.fragment_cache_mb > 0) {
    fragment_cache_ = std::make_unique<FragmentCache>(
        options.fragment_cache_mb << 20, &epoch_);
  }
  if (options.result_cache_mb > 0) {
    result_cache_ =
        std::make_unique<ResultCache>(options.result_cache_mb << 20, &epoch_);
  }
  cube_->AttachCaches(&epoch_, fragment_cache_.get());
  PCUBE_RETURN_NOT_OK(ColdStartLocked());
  if (latency_ != nullptr) {
    latency_->set_read_latency_us(options.read_latency_us);
  }
  if (faults_ != nullptr) faults_->set_armed(true);
  if (wal_->faults() != nullptr) wal_->faults()->set_armed(true);
  {
    MutexLock lock(&write_mu_);
    staged_rows_ = data_.num_tuples();
    staged_deletes_ = tombstones_;
    applied_lsn_ = wal_->durable_lsn();
  }
  maintenance_ = std::thread([this] { MaintenanceLoop(); });
  return Status::OK();
}

void Workbench::MaintenanceLoop() {
  MutexLock lock(&write_mu_);
  while (true) {
    pending_cv_.Wait(&write_mu_, [this]() REQUIRES(write_mu_) {
      return stop_maintenance_ || !pending_writes_.empty();
    });
    if (stop_maintenance_) return;

    // Only DURABLE batches may touch the structures (apply-before-fsync
    // would make a crash forget an already-visible write). The writer's own
    // group commit usually beats us here; when it has not, lead one.
    const uint64_t head_lsn = pending_writes_.front().lsn;
    if (wal_->durable_lsn() < head_lsn) {
      lock.Unlock();
      Status commit = wal_->WaitDurable(head_lsn);
      lock.Lock();
      if (stop_maintenance_) return;
      if (!commit.ok()) {
        // The log is poisoned (sticky commit failure): the head batch can
        // never become durable. Dispose of it so its waiters unblock with
        // the commit error instead of hanging.
        if (!pending_writes_.empty() &&
            pending_writes_.front().lsn == head_lsn) {
          pending_writes_.pop_front();
          apply_errors_[head_lsn] = commit;
          applied_lsn_ = std::max(applied_lsn_, head_lsn);
          applied_cv_.SignalAll();
        }
        continue;
      }
    }

    // Take a bounded slice of durable batches so the structure writer lock
    // below is held for a bounded stretch — readers run between slices.
    const uint64_t durable_upper = wal_->durable_lsn();
    std::vector<PendingWrite> slice;
    size_t slice_rows = 0;
    while (!pending_writes_.empty() &&
           pending_writes_.front().lsn <= durable_upper &&
           (slice.empty() || slice_rows < kMaintenanceSliceRows)) {
      slice_rows += pending_writes_.front().batch.num_rows();
      slice.push_back(std::move(pending_writes_.front()));
      pending_writes_.pop_front();
    }
    if (slice.empty()) continue;
    lock.Unlock();

    std::vector<std::pair<uint64_t, Status>> failures;
    {
      WriterLock structure_lock(&struct_mu_);
      WriteApplier applier(this);
      for (const PendingWrite& w : slice) {
        Status applied = applier.Apply(w.batch, /*replay=*/false);
        if (!applied.ok()) failures.emplace_back(w.lsn, applied);
      }
    }

    lock.Lock();
    for (auto& [lsn, st] : failures) apply_errors_[lsn] = std::move(st);
    applied_lsn_ = std::max(applied_lsn_, slice.back().lsn);
    applied_cv_.SignalAll();
  }
}

Result<WriteResult> Workbench::Apply(const WriteBatch& batch) {
  PCUBE_RETURN_NOT_OK(ValidateWriteBatch(batch, data_.schema()));
  const auto start = std::chrono::steady_clock::now();

  WriteResult result;
  uint64_t lsn = 0;
  {
    // Staging order fixes everything downstream: LSN order == queue order
    // == tid assignment order, so replay and maintenance agree on which
    // rows a batch created.
    MutexLock lock(&write_mu_);
    // Deletes are validated here, against the staged cursors and before the
    // batch touches the WAL: a batch the log accepts can no longer fail a
    // logical check at apply time, so recovery never has to replay (or
    // refuse to open over) a batch this call already rejected. Inserts
    // staged ahead of this batch are deletable (tid_limit covers them, and
    // the maintenance thread applies strictly in LSN order), as are this
    // batch's own inserts (they land before its deletes).
    const uint64_t tid_limit = staged_rows_ + batch.inserts.size();
    std::unordered_set<TupleId> batch_deletes;
    for (TupleId tid : batch.deletes) {
      if (tid >= tid_limit) {
        return Status::InvalidArgument("delete of unknown tuple " +
                                       std::to_string(tid));
      }
      if (staged_deletes_.count(tid) > 0 || !batch_deletes.insert(tid).second) {
        return Status::NotFound("tuple " + std::to_string(tid) +
                                " is already deleted");
      }
    }
    auto payload = EncodeWalPayload(staged_rows_, batch);
    if (!payload.ok()) return payload.status();
    auto staged = wal_->Stage(*payload);
    if (!staged.ok()) return staged.status();
    lsn = *staged;
    result.first_tid = staged_rows_;
    staged_rows_ += batch.inserts.size();
    staged_deletes_.insert(batch.deletes.begin(), batch.deletes.end());
    pending_writes_.push_back(PendingWrite{lsn, batch});
    pending_cv_.Signal();
  }

  Status commit = wal_->WaitDurable(lsn, &result.group_size);
  result.durable = commit.ok() && wal_->durable();

  // kApplied waits for read-your-writes; a failed commit also waits so the
  // maintenance thread's disposal of the poisoned batch is consumed here
  // rather than leaking into apply_errors_.
  Status apply_status;
  if (!commit.ok() || batch.ack == WriteBatch::Ack::kApplied) {
    MutexLock lock(&write_mu_);
    applied_cv_.Wait(&write_mu_, [this, lsn]() REQUIRES(write_mu_) {
      return applied_lsn_ >= lsn;
    });
    auto it = apply_errors_.find(lsn);
    if (it != apply_errors_.end()) {
      apply_status = it->second;
      apply_errors_.erase(it);
    }
  }
  if (!commit.ok()) return commit;
  if (!apply_status.ok()) return apply_status;

  result.lsn = lsn;
  result.epoch = epoch_.global();
  result.commit_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  MetricsRegistry& registry = MetricsRegistry::Default();
  registry.GetCounter("pcube_write_batches_total")->Increment();
  registry.GetCounter("pcube_write_rows_total")->Increment(batch.num_rows());
  registry.GetHistogram("pcube_write_commit_seconds")
      ->Observe(result.commit_seconds);
  return result;
}

Status Workbench::DrainWrites() {
  const uint64_t target = wal_->next_lsn() - 1;
  MutexLock lock(&write_mu_);
  applied_cv_.Wait(&write_mu_, [this, target]() REQUIRES(write_mu_) {
    return applied_lsn_ >= target;
  });
  // Surface (and clear) failures no kDurable waiter was around to consume.
  Status first;
  auto it = apply_errors_.begin();
  while (it != apply_errors_.end() && it->first <= target) {
    if (first.ok()) first = it->second;
    it = apply_errors_.erase(it);
  }
  return first;
}

Status Workbench::RebuildCube() {
  PCUBE_RETURN_NOT_OK(DrainWrites());
  WriterLock structure_lock(&struct_mu_);
  WriteApplier applier(this);
  return applier.RebuildCube();
}

Status Workbench::Save() {
  if (catalog_root_ == kInvalidPageId) {
    return Status::InvalidArgument(
        "Save() requires a file-backed workbench (options.file_path)");
  }
  if (!cube_->persistable()) {
    return Status::InvalidArgument(
        "Save() needs a cube of atomic cuboids without Bloom signatures; "
        "Open() restores no other kind");
  }
  // Every staged batch must be applied before the catalog snapshots the
  // structures, and nothing may mutate them while pages flush.
  PCUBE_RETURN_NOT_OK(DrainWrites());
  WriterLock structure_lock(&struct_mu_);
  CatalogData c;
  c.num_bool = data_.num_bool();
  c.num_pref = data_.num_pref();
  c.bool_cardinality = data_.schema().bool_cardinality;
  c.num_tuples = table_->num_tuples();
  c.table_pages = table_->page_ids();
  for (const BooleanIndex& index : indices_) {
    CatalogData::IndexInfo info;
    info.root = index.tree().root();
    info.num_entries = index.tree().num_entries();
    info.num_pages = index.tree().num_pages();
    info.next_seq = index.next_seq();
    c.indices.push_back(info);
  }
  c.rtree_root = tree_->root();
  c.rtree_height = tree_->height();
  c.rtree_fanout = tree_->fanout();
  c.rtree_entries = tree_->num_entries();
  c.rtree_pages = tree_->num_pages();
  c.has_cube = true;
  const SignatureStore& store = cube_->store();
  c.sig_index_root = store.index().root();
  c.sig_index_entries = store.num_index_entries();
  c.sig_index_pages = store.index().num_pages();
  c.sig_dense = store.dense_cells();
  c.sig_num_partials = store.num_partials();
  c.sig_num_pages = store.num_pages();
  c.sig_append_page = store.append_page();
  c.sig_append_offset = store.append_offset();
  c.cube_cells = cube_->num_cells();
  c.cube_levels = cube_->levels();
  c.dictionaries = dictionaries_;
  c.tombstones.assign(tombstones_.begin(), tombstones_.end());
  std::sort(c.tombstones.begin(), c.tombstones.end());
  PCUBE_RETURN_NOT_OK(SaveCatalog(pool_.get(), catalog_root_, c));
  PCUBE_RETURN_NOT_OK(pool_->FlushAll());
  PCUBE_RETURN_NOT_OK(checksums_->SyncSidecar());
  // Durability order: page file on stable storage FIRST, then the WAL
  // checkpoint that declares its records folded in. A crash between the
  // two replays records whose effects are already present — the replay
  // cursor (base_rows) and replay-mode delete idempotence absorb that.
  PCUBE_RETURN_NOT_OK(pm_->Sync());
  return wal_->Checkpoint();
}

Result<std::unique_ptr<Workbench>> Workbench::Open(
    const std::string& path, const WorkbenchOptions& options) {
  std::unique_ptr<Workbench> wb(new Workbench());
  PCUBE_RETURN_NOT_OK(wb->StackPages(path, /*create=*/false, options));
  wb->catalog_root_ = 0;
  auto catalog = LoadCatalog(wb->pool_.get(), wb->catalog_root_);
  if (!catalog.ok()) return catalog.status();
  const CatalogData& c = *catalog;
  // Save() writes every structure; a catalog that lacks one is damage.
  if (!c.has_cube) return Status::Corruption("catalog holds no cube");
  if (c.indices.size() != static_cast<size_t>(c.num_bool)) {
    return Status::Corruption(
        "catalog holds " + std::to_string(c.indices.size()) +
        " boolean indices for " + std::to_string(c.num_bool) + " dimensions");
  }

  wb->table_ = std::make_unique<TableStore>(TableStore::Attach(
      wb->pool_.get(), c.num_bool, c.num_pref, c.num_tuples, c.table_pages));
  for (size_t d = 0; d < c.indices.size(); ++d) {
    auto index = BooleanIndex::Attach(
        wb->pool_.get(), static_cast<int>(d), c.indices[d].root,
        c.indices[d].num_entries, c.indices[d].num_pages,
        c.indices[d].next_seq);
    if (!index.ok()) return index.status();
    wb->indices_.push_back(std::move(*index));
  }
  RTreeOptions rtree_options;
  rtree_options.dims = c.num_pref;
  rtree_options.max_entries = c.rtree_fanout;
  wb->tree_ = std::make_unique<RStarTree>(
      RStarTree::Attach(wb->pool_.get(), rtree_options, c.rtree_root,
                        c.rtree_height, c.rtree_entries, c.rtree_pages));
  auto store = SignatureStore::Attach(
      wb->pool_.get(), c.sig_index_root, c.sig_index_entries,
      c.sig_index_pages, c.sig_dense, c.sig_num_partials, c.sig_num_pages,
      c.sig_append_page, c.sig_append_offset);
  if (!store.ok()) return store.status();
  wb->cube_ = std::make_unique<PCube>(PCube::Attach(
      std::make_unique<SignatureStore>(std::move(*store)), c.rtree_fanout,
      c.cube_levels, c.num_bool, c.cube_cells));

  wb->dictionaries_ = c.dictionaries;
  wb->tombstones_.insert(c.tombstones.begin(), c.tombstones.end());

  // Rebuild the in-memory Dataset from the heap file.
  Schema schema;
  schema.num_bool = c.num_bool;
  schema.num_pref = c.num_pref;
  schema.bool_cardinality = c.bool_cardinality;
  wb->data_ = Dataset(schema, 0);
  Status scan = wb->table_->Scan([&](const TupleData& row) {
    wb->data_.Append(row.bools, row.prefs);
    return true;
  });
  if (!scan.ok()) return scan;
  wb->CountPostings();  // the replay below counts the rows it adds

  // Crash recovery: replay acked-but-uncheckpointed batches from the WAL
  // before the first query can observe the structures. Each record carries
  // the row count it was staged against (base_rows), which doubles as the
  // replay cursor: records the last checkpoint already folded into the page
  // file sit BEHIND the heap's current count and are skipped; delete-only
  // records never advance the count and re-apply idempotently.
  Wal::Options wal_options;
  wal_options.path = path + ".wal";
  wal_options.truncate = false;
  wal_options.fault_plan = options.wal_fault_plan;
  auto wal = Wal::Open(wal_options);
  if (!wal.ok()) return wal.status();
  wb->wal_ = std::move(*wal);
  WriteApplier applier(wb.get());
  bool replay_applied = false;
  auto replayed = wb->wal_->Replay([&](const Wal::Record& record) -> Status {
    uint64_t base_rows = 0;
    WriteBatch batch;
    PCUBE_RETURN_NOT_OK(DecodeWalPayload(record.payload, &base_rows, &batch));
    if (base_rows > wb->data_.num_tuples()) {
      return Status::Corruption(
          "WAL record " + std::to_string(record.lsn) + ": row cursor " +
          std::to_string(base_rows) + " is ahead of the heap file (" +
          std::to_string(wb->data_.num_tuples()) + " rows)");
    }
    if (base_rows < wb->data_.num_tuples()) return Status::OK();
    PCUBE_RETURN_NOT_OK(ValidateWriteBatch(batch, wb->data_.schema()));
    replay_applied = true;
    return applier.Apply(batch, /*replay=*/true);
  });
  if (!replayed.ok()) return replayed.status();

  PCUBE_RETURN_NOT_OK(wb->StartUp(options));
  if (replay_applied) {
    // Recovery ends with a checkpoint. The replayed batches mutated pages
    // in the buffer pool only; without folding them into the page file now,
    // a later eviction could write some of them back while the on-disk
    // catalog and checksum sidecar still describe the pre-crash state —
    // leaving a file that LOOKS corrupt to the next open even though no
    // data was lost. Checkpointing here makes recovery idempotent and the
    // file consistent before the first query runs.
    PCUBE_RETURN_NOT_OK(wb->Save());
  }
  return wb;
}

Status Workbench::ColdStart() {
  WriterLock structure_lock(&struct_mu_);
  return ColdStartLocked();
}

Status Workbench::ColdStartLocked() {
  PCUBE_RETURN_NOT_OK(pool_->Clear());
  // Advancing every epoch makes every L1 and L2 entry stale, so both levels
  // miss from here on; the dead entries are evicted lazily on lookup.
  epoch_.BumpAll();
  snapshot_ = stats_;
  return Status::OK();
}

namespace {

/// Per-query bookkeeping every finished query reports into the process-wide
/// registry: volume, latency and the engine counters behind Figs. 8-16.
void ReportQueryMetrics(const QueryRequest& request, const QueryResponse& resp,
                        const Status& status) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  registry
      .GetCounter(request.kind == QueryRequest::Kind::kSkyline
                      ? "pcube_queries_total{kind=\"skyline\"}"
                      : "pcube_queries_total{kind=\"topk\"}")
      ->Increment();
  if (!status.ok()) {
    registry.GetCounter("pcube_query_failures_total")->Increment();
    if (status.IsTimeout()) {
      registry.GetCounter("pcube_query_timeouts_total")->Increment();
    }
    return;
  }
  registry.GetHistogram("pcube_query_seconds")->Observe(resp.seconds);
  registry.GetCounter("pcube_engine_nodes_expanded_total")
      ->Increment(resp.counters.nodes_expanded);
  registry.GetCounter("pcube_engine_pruned_boolean_total")
      ->Increment(resp.counters.pruned_boolean);
  registry.GetCounter("pcube_engine_pruned_preference_total")
      ->Increment(resp.counters.pruned_preference);
  registry.GetCounter("pcube_engine_verified_total")
      ->Increment(resp.counters.verified);
  registry.GetGauge("pcube_engine_heap_peak")
      ->Set(static_cast<double>(resp.counters.heap_peak));
}

/// True when the boolean-first plan can answer `request`: it implements
/// plain skylines and top-k, but not skybands or dynamic skylines.
bool BooleanPlanAnswers(const QueryRequest& request) {
  return request.kind == QueryRequest::Kind::kTopK ||
         (request.skyline.skyband_k == 1 && request.skyline.origin.empty());
}

}  // namespace

Status Workbench::CheckPredicates(const PredicateSet& preds) const {
  for (const Predicate& p : preds.predicates()) {
    if (p.dim < 0 || p.dim >= data_.num_bool()) {
      return Status::InvalidArgument(
          "predicate on boolean dimension " + std::to_string(p.dim) +
          "; the schema has " + std::to_string(data_.num_bool()));
    }
  }
  return Status::OK();
}

Status Workbench::CheckRequest(const QueryRequest& request) const {
  PCUBE_RETURN_NOT_OK(CheckPredicates(request.preds));
  const size_t num_pref = static_cast<size_t>(data_.num_pref());
  const std::string schema =
      "; the schema has " + std::to_string(num_pref) + " preference dimensions";
  if (request.kind == QueryRequest::Kind::kTopK) {
    if (request.ranking == nullptr) {
      return Status::InvalidArgument("top-k query without ranking");
    }
    const size_t dims = request.ranking->dims();
    if (dims != 0 && dims != num_pref) {
      return Status::InvalidArgument(
          "ranking over " + std::to_string(dims) + " dimensions" + schema);
    }
    return Status::OK();
  }
  const SkylineQueryOptions& options = request.skyline;
  for (int d : options.pref_dims) {
    if (d < 0 || static_cast<size_t>(d) >= num_pref) {
      return Status::InvalidArgument(
          "skyline over preference dimension " + std::to_string(d) + schema);
    }
  }
  if (!options.origin.empty() && options.origin.size() != num_pref) {
    return Status::InvalidArgument(
        "dynamic-skyline origin with " + std::to_string(options.origin.size()) +
        " coordinates" + schema);
  }
  if (options.skyband_k < 1) {
    return Status::InvalidArgument("skyband_k must be at least 1");
  }
  return Status::OK();
}

void Workbench::CountPostings() {
  posting_counts_.assign(static_cast<size_t>(data_.num_bool()), {});
  for (int d = 0; d < data_.num_bool(); ++d) {
    posting_counts_[d].assign(data_.schema().bool_cardinality[d], 0);
  }
  for (TupleId t = 0; t < data_.num_tuples(); ++t) {
    for (int d = 0; d < data_.num_bool(); ++d) {
      AddPosting(d, data_.BoolValue(t, d));
    }
  }
}

void Workbench::AddPosting(int dim, uint32_t value) {
  std::vector<uint64_t>& counts = posting_counts_[dim];
  if (value >= counts.size()) counts.resize(value + size_t{1}, 0);
  ++counts[value];
}

Result<PlanEstimate> Workbench::Estimate(const PredicateSet& preds) {
  ReaderLock structure_lock(&struct_mu_);
  PCUBE_RETURN_NOT_OK(CheckPredicates(preds));
  return EstimateLocked(preds);
}

PlanEstimate Workbench::EstimateLocked(const PredicateSet& preds) const {
  PlanEstimate est;
  const uint64_t total = data_.num_tuples();

  // Exact per-predicate counts: the boolean indices' posting counts, kept
  // in memory so costing a plan reads no page.
  uint64_t min_count = total;
  double combined_selectivity = 1.0;
  for (const Predicate& p : preds.predicates()) {
    const std::vector<uint64_t>& counts = posting_counts_[p.dim];
    const uint64_t count = p.value < counts.size() ? counts[p.value] : 0;
    min_count = std::min(min_count, count);
    combined_selectivity *=
        total == 0 ? 0.0 : static_cast<double>(count) / total;
  }
  est.matching_tuples = preds.empty()
                            ? total
                            : static_cast<uint64_t>(combined_selectivity *
                                                    static_cast<double>(total));

  // Boolean-first: fetch the most selective predicate's postings (one
  // random page per tuple) or scan the table, whichever is cheaper — the
  // same rule BooleanFirstExecutor applies.
  uint64_t scan_pages = table_->num_pages();
  est.boolean_pages =
      preds.empty() ? scan_pages : std::min(min_count, scan_pages);

  // Signature plan: the branch-and-bound visits the root path plus the
  // leaf-region around the selected subset's skyline. Model: the traversal
  // touches the fraction of R-tree pages holding matching tuples, discounted
  // by preference pruning (empirically ~2/3 of the subset's pages are
  // pruned), plus one signature page and its directory lookup per predicate.
  double match_fraction =
      preds.empty() ? 1.0
                    : std::max(combined_selectivity,
                               1.0 / static_cast<double>(std::max<uint64_t>(
                                         1, tree_->num_pages())));
  constexpr double kPreferencePruning = 1.0 / 3.0;
  est.signature_pages =
      static_cast<uint64_t>(tree_->height() + 1 +
                            match_fraction * kPreferencePruning *
                                static_cast<double>(tree_->num_pages())) +
      2 * preds.size();

  est.choice = est.signature_pages <= est.boolean_pages
                   ? PlanChoice::kSignature
                   : PlanChoice::kBooleanFirst;
  return est;
}

Result<QueryResponse> Workbench::Run(const QueryRequest& request) {
  // Shared side of the structure lock: the maintenance thread mutates the
  // tree/cube/indices only under the exclusive side, so a query observes a
  // consistent structure snapshot for its whole execution.
  ReaderLock structure_lock(&struct_mu_);
  QueryResponse resp;
  Status status;
  {
    // Every physical read this thread performs, and every io_wait span the
    // BufferPool records, is charged to this query alone.
    BufferPool::ScopedThreadStats io_scope(&resp.io);
    Trace::ScopedBind bind(&resp.trace);
    Timer timer;
    status = Execute(request, &resp);
    resp.seconds = timer.ElapsedSeconds();
  }
  ReportQueryMetrics(request, resp, status);
  if (!status.ok()) return status;
  return resp;
}

Status Workbench::Execute(const QueryRequest& request, QueryResponse* resp) {
  // Wire bytes reach this point: a request that does not fit the schema
  // must fail typed here, before any cache key, index lookup or engine is
  // derived from it.
  PCUBE_RETURN_NOT_OK(CheckRequest(request));
  MetricsRegistry& registry = MetricsRegistry::Default();
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (request.deadline_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(request.deadline_ms);
  }

  // L1 result cache. A forced plan hint bypasses it entirely (lookup AND
  // insert): the caller demands a specific execution — regression tests
  // compare both plans on one query — and an answer produced under duress
  // should not masquerade as the cost-based one later. Queries without a
  // canonical form (custom rankings) cannot be keyed and bypass too.
  ResultCache* cache = result_cache_.get();
  const bool use_cache = cache != nullptr &&
                         request.hint == PlanHint::kAuto &&
                         request.Canonicalizable();
  if (cache != nullptr && !use_cache) {
    resp->cache = CacheOutcome::kBypass;
    registry.GetCounter("pcube_result_cache_bypass_total")->Increment();
  }
  ResultCache::Stamps stamps;
  std::shared_ptr<const SkylineOutput> drill_prev;
  if (use_cache) {
    ResultCache::Lookup found;
    {
      ScopedSpan span(&resp->trace, "cache_lookup");
      found = cache->Find(request, data_);
    }
    resp->cache = found.outcome;
    if (found.outcome != CacheOutcome::kMiss && found.drill_prev == nullptr) {
      // An exact hit, or top-k containment (Find already filtered and
      // truncated the ancestor's list): the final answer.
      resp->tids = std::move(found.tids);
      resp->scores = std::move(found.scores);
      resp->estimate.choice = found.plan;
      return Status::OK();
    }
    drill_prev = std::move(found.drill_prev);
    // Read before the execution whose answer they will guard.
    stamps = cache->SnapshotStamps(request.preds);
  }

  // Plan: the query's shape, then a forced hint, then the cost model. A
  // containment drill-down is a signature run by construction.
  if (drill_prev != nullptr || !BooleanPlanAnswers(request) ||
      request.hint == PlanHint::kSignature) {
    resp->estimate.choice = PlanChoice::kSignature;
  } else if (request.hint == PlanHint::kBooleanFirst) {
    resp->estimate.choice = PlanChoice::kBooleanFirst;
  } else {
    ScopedSpan span(&resp->trace, "plan_estimate");
    resp->estimate = EstimateLocked(request.preds);
  }

  std::shared_ptr<const SkylineOutput> skyline_state;
  if (resp->estimate.choice == PlanChoice::kBooleanFirst) {
    PCUBE_RETURN_NOT_OK(ExecuteBoolean(request, deadline, resp));
  } else {
    Status st = ExecuteSignature(request, drill_prev.get(), deadline, resp,
                                 use_cache ? &skyline_state : nullptr);
    if (!st.ok()) {
      // Signatures and the R-tree are derived, redundant state: when their
      // pages are corrupt or unreadable, the base relation can still answer
      // the query through the boolean-first plan. Timeouts and other
      // failures are not storage damage and propagate unchanged.
      if (!(st.IsCorruption() || st.IsIoError()) ||
          !BooleanPlanAnswers(request)) {
        return st;
      }
      resp->tids.clear();
      resp->scores.clear();
      resp->counters = EngineCounters();
      resp->degraded = true;
      resp->degraded_reason = st.ToString();
      resp->estimate.choice = PlanChoice::kBooleanFirst;
      registry.GetCounter("pcube_queries_degraded_total")->Increment();
      PCUBE_RETURN_NOT_OK(ExecuteBoolean(request, deadline, resp));
    }
  }
  if (request.kind == QueryRequest::Kind::kSkyline) {
    std::sort(resp->tids.begin(), resp->tids.end());
  }

  // Publish the executed answer. Insert() itself refuses degraded
  // responses — a boolean-first answer computed around corrupt pages must
  // not outlive the corruption.
  if (use_cache) {
    cache->Insert(request, *resp, std::move(skyline_state), stamps);
  }
  registry
      .GetCounter(resp->estimate.choice == PlanChoice::kSignature
                      ? "pcube_planner_plans_total{plan=\"signature\"}"
                      : "pcube_planner_plans_total{plan=\"boolean_first\"}")
      ->Increment();
  return Status::OK();
}

Status Workbench::ExecuteSignature(
    const QueryRequest& request, const SkylineOutput* drill_prev,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    QueryResponse* resp, std::shared_ptr<const SkylineOutput>* state) {
  auto probe = cube_->MakeProbe(request.preds);
  if (!probe.ok()) return probe.status();
  if (request.kind == QueryRequest::Kind::kTopK) {
    TopKEngine engine(tree_.get(), probe->get(), nullptr,
                      request.ranking.get(), request.k);
    engine.set_trace(&resp->trace);
    if (deadline) engine.set_deadline(*deadline);
    engine.set_pruned_lists(PrunedLists::kDrop);  // top-k caches no state
    auto run = engine.Run();
    if (!run.ok()) return run.status();
    resp->counters = run->counters;
    for (const SearchEntry& e : run->results) {
      resp->tids.push_back(e.id);
      resp->scores.push_back(e.key);
    }
    return Status::OK();
  }
  SkylineEngine engine(tree_.get(), probe->get(), nullptr, request.skyline);
  engine.set_trace(&resp->trace);
  if (deadline) engine.set_deadline(*deadline);
  // b_list / d_list only matter as the seeds of a later drill-down, so a
  // run whose state is not cached does not file them.
  if (state == nullptr) engine.set_pruned_lists(PrunedLists::kDrop);
  // A containment hit re-runs Algorithm 1 seeded by the cached ancestor's
  // output (Lemma 2, incremental.h) instead of restarting from the root;
  // the merged output can itself seed later drill-downs.
  Result<SkylineOutput> run =
      drill_prev == nullptr ? engine.Run()
                            : engine.RunFrom(DrillDownSeed(*drill_prev));
  if (!run.ok()) return run.status();
  if (drill_prev != nullptr) {
    run = MergeAfterDrillDown(std::move(*run), *drill_prev);
  }
  resp->counters = run->counters;
  for (const SearchEntry& e : run->skyline) resp->tids.push_back(e.id);
  if (state != nullptr) {
    *state = std::make_shared<const SkylineOutput>(std::move(*run));
  }
  return Status::OK();
}

Status Workbench::ExecuteBoolean(
    const QueryRequest& request,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    QueryResponse* resp) {
  ScopedSpan span(&resp->trace, "boolean_first");
  BooleanFirstExecutor boolean(&indices_, table_.get(), &tombstones_);
  if (deadline) boolean.set_deadline(*deadline);
  if (request.kind == QueryRequest::Kind::kSkyline) {
    auto run = boolean.Skyline(request.preds, request.skyline.pref_dims);
    if (!run.ok()) return run.status();
    resp->counters = run->counters;
    resp->tids = run->tids;
  } else {
    auto run = boolean.TopK(request.preds, *request.ranking, request.k);
    if (!run.ok()) return run.status();
    resp->counters = run->counters;
    resp->tids = run->tids;
    resp->scores = run->scores;
  }
  return Status::OK();
}

BatchOutput Workbench::RunBatch(const std::vector<BatchQuery>& queries,
                                size_t num_workers, QueryLog* query_log) {
  Timer timer;
  BatchOutput out;
  out.results.resize(queries.size());
  {
    ThreadPool pool(num_workers);
    std::vector<std::future<void>> futures;
    futures.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      futures.push_back(pool.Submit([this, &queries, &out, query_log, i] {
        BatchQueryResult& r = out.results[i];
        Result<QueryResponse> resp = Run(queries[i]);
        if (!resp.ok()) {
          r.status = resp.status();
          return;
        }
        r.response = std::move(resp).value();
        if (query_log != nullptr) {
          query_log->Append(QueryLogRecord(queries[i], r.response));
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  Histogram latency;
  for (const BatchQueryResult& r : out.results) {
    if (!r.status.ok()) {
      ++out.failed;  // includes timeouts, itemised separately below
      if (r.status.IsTimeout()) ++out.timed_out;
      continue;
    }
    out.io.Merge(r.response.io);
    latency.Observe(r.response.seconds);
  }
  out.latency.p50 = latency.Quantile(0.50);
  out.latency.p95 = latency.Quantile(0.95);
  out.latency.p99 = latency.Quantile(0.99);
  out.latency.mean = latency.Mean();
  out.latency.count = latency.Count();
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<Workbench::IntegrityReport> Workbench::VerifyIntegrity() {
  // The walk checks structural invariants (entry counts, key order), so
  // half-applied batches would read as damage: drain first, then freeze.
  PCUBE_RETURN_NOT_OK(DrainWrites());
  WriterLock structure_lock(&struct_mu_);
  IntegrityReport report;

  // 1. Page sweep: every allocated page must read back — through the
  // checksum layer when enabled, so bit rot surfaces as Corruption here.
  const uint64_t num_pages = pm_->NumPages();
  for (PageId pid = 0; pid < num_pages; ++pid) {
    auto handle = pool_->Get(pid, IoCategory::kHeapFile);
    ++report.pages_checked;
    if (!handle.ok()) {
      report.errors.emplace_back(pid, handle.status().ToString());
    }
  }

  // 2. Boolean indices: a full range scan must succeed, visit keys in
  // ascending order and agree with the recorded entry count.
  for (const BooleanIndex& index : indices_) {
    uint64_t seen = 0;
    uint64_t prev_key = 0;
    bool ordered = true;
    Status scan = index.tree().RangeScan(
        0, ~uint64_t{0}, [&](uint64_t key, uint64_t) {
          if (seen > 0 && key <= prev_key) ordered = false;
          prev_key = key;
          ++seen;
          return true;
        });
    std::string label = "bool index " + std::to_string(index.dim());
    if (!scan.ok()) {
      report.errors.emplace_back(kInvalidPageId,
                                 label + ": " + scan.ToString());
      continue;
    }
    if (!ordered) {
      report.errors.emplace_back(kInvalidPageId,
                                 label + ": keys out of order");
    }
    if (seen != index.tree().num_entries()) {
      report.errors.emplace_back(
          kInvalidPageId, label + ": scanned " + std::to_string(seen) +
                              " entries, recorded " +
                              std::to_string(index.tree().num_entries()));
    }
  }

  // 3. R-tree structural invariants.
  std::vector<std::string> problems;
  Status walk = tree_->CheckStructure(&problems);
  if (!walk.ok()) {
    report.errors.emplace_back(kInvalidPageId, walk.ToString());
  }
  for (std::string& p : problems) {
    report.errors.emplace_back(kInvalidPageId, std::move(p));
  }

  // 4. Signature store: every stored cell's signature must reassemble.
  const SignatureStore& store = cube_->store();
  for (const auto& [cell, dense] : store.dense_cells()) {
    auto sig = store.LoadFull(cell, cube_->fanout(), cube_->levels());
    if (!sig.ok()) {
      report.errors.emplace_back(
          kInvalidPageId, "signature cell " + std::to_string(dense) + ": " +
                              sig.status().ToString());
    }
  }

  PCUBE_RETURN_NOT_OK(ColdStartLocked());
  return report;
}

void Workbench::ExportMetrics(MetricsRegistry* registry) const {
  ReaderLock structure_lock(&struct_mu_);
  pool_->ExportTo(registry, "pcube_bufferpool");
  registry->GetGauge("pcube_pages_total")
      ->Set(static_cast<double>(pm_->NumPages()));
  registry->GetGauge("pcube_table_pages")
      ->Set(static_cast<double>(table_->num_pages()));
  registry->GetGauge("pcube_rtree_pages")
      ->Set(static_cast<double>(tree_->num_pages()));
  registry->GetGauge("pcube_cube_pages")
      ->Set(static_cast<double>(cube_->MaterializedPages()));
  registry->GetGauge("pcube_cube_cells")
      ->Set(static_cast<double>(cube_->num_cells()));
  registry->GetGauge("pcube_io_reads_total")
      ->Set(static_cast<double>(stats_.TotalReads()));
  registry->GetGauge("pcube_io_writes_total")
      ->Set(static_cast<double>(stats_.TotalWrites()));
  registry->GetGauge("pcube_tombstones")
      ->Set(static_cast<double>(tombstones_.size()));
  registry->GetGauge("pcube_wal_durable_lsn")
      ->Set(static_cast<double>(wal_->durable_lsn()));
  registry->GetGauge("pcube_wal_syncs")
      ->Set(static_cast<double>(wal_->sync_count()));

  // Cache occupancy plus per-level hit rates. The caches report their
  // event counters into the process-wide default registry; the rates here
  // are derived from those so one scrape shows both.
  MetricsRegistry& events = MetricsRegistry::Default();
  if (result_cache_ != nullptr) {
    registry->GetGauge("pcube_result_cache_bytes")
        ->Set(static_cast<double>(result_cache_->bytes()));
    registry->GetGauge("pcube_result_cache_entries")
        ->Set(static_cast<double>(result_cache_->entries()));
    double hits =
        events.GetCounter("pcube_result_cache_hits_total")->Value() +
        events.GetCounter("pcube_result_cache_containment_total")->Value();
    double lookups =
        hits + events.GetCounter("pcube_result_cache_misses_total")->Value();
    registry->GetGauge("pcube_result_cache_hit_rate")
        ->Set(lookups > 0 ? hits / lookups : 0.0);
  }
  if (fragment_cache_ != nullptr) {
    registry->GetGauge("pcube_fragment_cache_bytes")
        ->Set(static_cast<double>(fragment_cache_->bytes()));
    registry->GetGauge("pcube_fragment_cache_entries")
        ->Set(static_cast<double>(fragment_cache_->entries()));
    double hits = events.GetCounter("pcube_fragment_cache_hits_total")->Value();
    double lookups =
        hits + events.GetCounter("pcube_fragment_cache_misses_total")->Value() +
        events.GetCounter("pcube_fragment_cache_stale_total")->Value();
    registry->GetGauge("pcube_fragment_cache_hit_rate")
        ->Set(lookups > 0 ? hits / lookups : 0.0);
  }
}

}  // namespace pcube

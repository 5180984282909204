#include "core/pcube.h"

#include <bit>
#include <map>

namespace pcube {

namespace {
/// Bloom-filter bits per stored SID for the §VII signatures (~1% false
/// positives).
constexpr double kBloomBitsPerKey = 10.0;
}  // namespace

Result<PCube> PCube::Build(BufferPool* pool, const Dataset& data,
                           const RStarTree& tree, const PCubeOptions& options) {
  auto store = SignatureStore::Create(pool);
  if (!store.ok()) return store.status();
  PCube cube(std::make_unique<SignatureStore>(std::move(*store)),
             tree.fanout(), tree.height() + 1, options);
  cube.num_bool_dims_ = data.num_bool();
  if (options.build_bloom) cube.bloom_ = std::make_unique<BloomStore>(pool);

  auto paths = PathTable::Collect(tree);
  if (!paths.ok()) return paths.status();
  PCUBE_RETURN_NOT_OK(cube.BuildAllCuboids(data, *paths));
  return cube;
}

Status PCube::BuildAllCuboids(const Dataset& data, const PathTable& paths) {
  // Atomic cuboids (always materialised, paper §IV.B.2).
  for (int dim = 0; dim < data.num_bool(); ++dim) {
    std::vector<Signature> sigs = BuildAtomicCuboidSignatures(
        data, paths, dim, fanout_, levels_);
    for (uint32_t v = 0; v < sigs.size(); ++v) {
      CellId cell = AtomicCellId(dim, v);
      if (sigs[v].Empty()) {
        // On a rebuild a previously-populated cell may have emptied; storing
        // the empty signature tombstones its stale partials.
        auto has = store_->HasCell(cell);
        if (!has.ok()) return has.status();
        if (*has) PCUBE_RETURN_NOT_OK(store_->Put(cell, sigs[v]));
        continue;
      }
      PCUBE_RETURN_NOT_OK(store_->Put(cell, sigs[v]));
      if (bloom_ != nullptr) {
        PCUBE_RETURN_NOT_OK(bloom_->Put(cell, sigs[v], kBloomBitsPerKey));
      }
      ++num_cells_;
    }
  }

  // Optional composite cuboids up to materialize_max_dims.
  if (options_.materialize_max_dims >= 2) {
    for (CuboidMask mask :
         EnumerateCuboids(data.num_bool(), options_.materialize_max_dims)) {
      if (std::popcount(mask) < 2) continue;
      std::vector<int> dims;
      for (int d = 0; d < data.num_bool(); ++d) {
        if (mask & (CuboidMask{1} << d)) dims.push_back(d);
      }
      // Group tuples by their value combination on the cuboid's dimensions.
      std::map<std::vector<uint32_t>, Signature> cells;
      std::vector<uint32_t> key(dims.size());
      for (TupleId t = 0; t < data.num_tuples(); ++t) {
        if (!paths.contains(t)) continue;  // tombstoned: not in the tree
        for (size_t i = 0; i < dims.size(); ++i) {
          key[i] = data.BoolValue(t, dims[i]);
        }
        auto it = cells.find(key);
        if (it == cells.end()) {
          it = cells.emplace(key, Signature(fanout_, levels_)).first;
        }
        it->second.SetPath(paths.path(t));
      }
      for (const auto& [values, sig] : cells) {
        PredicateSet preds;
        for (size_t i = 0; i < dims.size(); ++i) {
          preds.Add({dims[i], values[i]});
        }
        CellId cell = registry_.Intern(preds);
        PCUBE_RETURN_NOT_OK(store_->Put(cell, sig));
        if (bloom_ != nullptr) {
          PCUBE_RETURN_NOT_OK(bloom_->Put(cell, sig, kBloomBitsPerKey));
        }
        ++num_cells_;
      }
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<BooleanProbe>> PCube::MakeProbe(
    const PredicateSet& preds) const {
  if (preds.empty()) return std::unique_ptr<BooleanProbe>(new TrueProbe());
  // Prefer an exactly materialised (possibly composite) cell.
  if (preds.size() >= 2 &&
      static_cast<int>(preds.size()) <= options_.materialize_max_dims) {
    CellId cell = registry_.Lookup(preds);
    if (cell != CellRegistry::kUnknownCell) {
      std::vector<SignatureCursor> cursors;
      cursors.emplace_back(store_.get(), cell, fanout_, levels_,
                           fragment_cache_);
      return std::unique_ptr<BooleanProbe>(
          new SignatureProbe(std::move(cursors)));
    }
  }
  // Otherwise one cursor per atomic predicate, ANDed lazily.
  std::vector<SignatureCursor> cursors;
  cursors.reserve(preds.size());
  for (const Predicate& p : preds.predicates()) {
    cursors.emplace_back(store_.get(), AtomicCellId(p.dim, p.value), fanout_,
                         levels_, fragment_cache_);
  }
  return std::unique_ptr<BooleanProbe>(new SignatureProbe(std::move(cursors)));
}

Result<std::unique_ptr<BooleanProbe>> PCube::MakeBloomProbe(
    const PredicateSet& preds) const {
  if (bloom_ == nullptr) {
    return Status::InvalidArgument("P-Cube built without bloom signatures");
  }
  if (preds.empty()) return std::unique_ptr<BooleanProbe>(new TrueProbe());
  std::vector<BloomFilter> filters;
  uint64_t pages = 0;
  for (const Predicate& p : preds.predicates()) {
    auto filter = bloom_->Load(AtomicCellId(p.dim, p.value), &pages);
    if (!filter.ok()) {
      if (filter.status().IsNotFound()) {
        // Cell is empty: probe that prunes everything (empty filter).
        BloomFilter empty(1);
        filters.clear();
        filters.push_back(std::move(empty));
        return std::unique_ptr<BooleanProbe>(
            new BloomProbe(std::move(filters), fanout_, pages));
      }
      return filter.status();
    }
    filters.push_back(std::move(*filter));
  }
  return std::unique_ptr<BooleanProbe>(
      new BloomProbe(std::move(filters), fanout_, pages));
}

std::vector<CellId> PCube::AffectedCells(const Dataset& data,
                                         TupleId tid) const {
  std::vector<CellId> cells;
  for (int d = 0; d < num_bool_dims_; ++d) {
    cells.push_back(AtomicCellId(d, data.BoolValue(tid, d)));
  }
  if (options_.materialize_max_dims >= 2) {
    for (CuboidMask mask :
         EnumerateCuboids(num_bool_dims_, options_.materialize_max_dims)) {
      if (std::popcount(mask) < 2) continue;
      PredicateSet preds;
      for (int d = 0; d < num_bool_dims_; ++d) {
        if (mask & (CuboidMask{1} << d)) preds.Add({d, data.BoolValue(tid, d)});
      }
      CellId cell = registry_.Lookup(preds);
      if (cell != CellRegistry::kUnknownCell) cells.push_back(cell);
    }
  }
  return cells;
}

Status PCube::ApplyChanges(const Dataset& data, const PathChangeSet& changes) {
  if (changes.root_split) {
    return Status::NotSupported(
        "batch contained a root split: every path changed, call Rebuild()");
  }
  // Group per-cell operations so each affected cell is rewritten once.
  struct CellOps {
    std::vector<Path> clears;
    std::vector<Path> sets;
  };
  std::map<CellId, CellOps> ops;
  for (const PathChange& c : changes.changes) {
    bool moved = c.has_old && c.has_new &&
                 !c.deleted && c.old_path != c.new_path;
    bool inserted = !c.has_old && c.has_new && !c.deleted;
    bool removed = c.deleted && c.has_old;
    if (!moved && !inserted && !removed) continue;  // no net effect
    for (CellId cell : AffectedCells(data, c.tid)) {
      CellOps& o = ops[cell];
      if (c.has_old && (moved || removed)) o.clears.push_back(c.old_path);
      if (c.has_new && (moved || inserted)) o.sets.push_back(c.new_path);
    }
  }
  Status status;
  for (auto& [cell, o] : ops) {
    auto sig = store_->LoadFull(cell, fanout_, levels_);
    if (!sig.ok()) {
      status = sig.status();
      break;
    }
    // Clears before sets: a move within one cell must not drop fresh bits.
    for (const Path& p : o.clears) sig->ClearPath(p);
    for (const Path& p : o.sets) sig->SetPath(p);
    status = store_->Put(cell, *sig);
    if (status.ok() && bloom_ != nullptr) {
      status = bloom_->Put(cell, *sig, kBloomBitsPerKey);
    }
    if (!status.ok()) break;
  }
  if (epoch_ != nullptr) {
    // Bump AFTER the writes (even failed ones — partially applied batches
    // must invalidate too): a concurrent fill that read its stamp before
    // this point can only look stale at lookup, never wrongly fresh. Even
    // an empty ops map bumps the global epoch — the underlying tree
    // mutation may have reshaped nodes without moving any tuple.
    std::vector<CellId> bumped;
    bumped.reserve(ops.size());
    for (const auto& [cell, o] : ops) bumped.push_back(cell);
    epoch_->BumpCells(bumped);
  }
  return status;
}

Status PCube::Rebuild(const Dataset& data, const RStarTree& tree) {
  PCUBE_CHECK_EQ(tree.fanout(), fanout_);
  levels_ = tree.height() + 1;
  auto paths = PathTable::Collect(tree);
  if (!paths.ok()) return paths.status();
  num_cells_ = 0;
  Status s = BuildAllCuboids(data, *paths);
  // Unknown footprint (every signature rewritten): invalidate everything,
  // even on failure — a partial rebuild must not leave fresh-looking
  // entries behind.
  if (epoch_ != nullptr) epoch_->BumpAll();
  return s;
}

uint64_t PCube::MaterializedPages() const {
  uint64_t pages = store_->num_pages() + store_->index().num_pages();
  if (bloom_ != nullptr) pages += bloom_->num_pages();
  return pages;
}

}  // namespace pcube

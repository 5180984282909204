#include "workbench/write_path.h"

#include <string>
#include <unordered_set>
#include <vector>

#include "common/bit_util.h"
#include "workbench/workbench.h"

namespace pcube {

Status WriteApplier::Apply(const WriteBatch& batch, bool replay) {
  Dataset& data = *wb_->mutable_data();
  const TupleId first_new_tid = data.num_tuples();

  // Screen every delete BEFORE any structure mutation. Workbench::Apply
  // already rejected logically invalid deletes at stage time, so finding
  // one here means the record predates that validation or raced a
  // checkpoint: under replay such entries are skipped — recovery must never
  // refuse to open over a delete the original run already refused — and
  // outside replay the whole batch is rejected with nothing applied
  // (WriteBatch's all-or-nothing contract for malformed batches).
  std::vector<TupleId> deletes;
  deletes.reserve(batch.deletes.size());
  {
    const TupleId tid_limit =
        first_new_tid + static_cast<TupleId>(batch.inserts.size());
    std::unordered_set<TupleId> in_batch;
    for (const TupleId tid : batch.deletes) {
      if (tid >= tid_limit) {
        if (replay) continue;
        return Status::InvalidArgument("delete of unknown tuple " +
                                       std::to_string(tid));
      }
      if (wb_->tombstones_.count(tid) > 0 || !in_batch.insert(tid).second) {
        if (replay) continue;  // crash between Save() and the WAL checkpoint
        return Status::NotFound("tuple " + std::to_string(tid) +
                                " is already deleted");
      }
      deletes.push_back(tid);
    }
  }

  PathChangeSet changes;
  // Collect the first failure instead of returning at once: whatever tree
  // changes DID land before the failure must still flow into the cube
  // maintenance below, or the signatures would disagree with the tree and
  // the engines could prune live results.
  Status first_error;

  for (const WriteBatch::Row& row : batch.inserts) {
    TupleId tid = data.Append(row.bools, row.prefs);
    auto appended = wb_->table_->Append(row.bools, row.prefs);
    if (!appended.ok()) {
      first_error = appended.status();
      break;
    }
    PCUBE_CHECK_EQ(*appended, tid);
    for (size_t d = 0; d < wb_->indices_.size() && first_error.ok(); ++d) {
      first_error = wb_->indices_[d].Add(row.bools[d], tid);
      if (first_error.ok()) wb_->AddPosting(static_cast<int>(d), row.bools[d]);
    }
    if (!first_error.ok()) break;
    first_error = wb_->tree_->Insert(data.PrefPoint(tid), tid, &changes);
    if (!first_error.ok()) break;
  }

  for (size_t i = 0; first_error.ok() && i < deletes.size(); ++i) {
    const TupleId tid = deletes[i];
    Status removed = wb_->tree_->Delete(data.PrefPoint(tid), tid, &changes);
    if (!removed.ok()) {
      if (replay && removed.code() == StatusCode::kNotFound) continue;
      first_error = removed;
      break;
    }
    wb_->tombstones_.insert(tid);
  }

  Status maintained = wb_->cube_->ApplyChanges(data, changes);
  if (maintained.code() == StatusCode::kNotSupported) {
    // Root split: every path changed, re-derive all signatures.
    maintained = wb_->cube_->Rebuild(data, *wb_->tree_);
  }
  return first_error.ok() ? maintained : first_error;
}

Status WriteApplier::RebuildCube() {
  return wb_->cube_->Rebuild(*wb_->mutable_data(), *wb_->tree_);
}

Result<std::string> EncodeWalPayload(uint64_t base_rows,
                                     const WriteBatch& batch) {
  auto encoded = EncodeWriteBatch(batch);
  if (!encoded.ok()) return encoded.status();
  std::string payload;
  payload.reserve(8 + encoded->size());
  uint8_t buf[8];
  bit_util::StoreLE(buf, base_rows);
  payload.append(reinterpret_cast<const char*>(buf), sizeof(buf));
  payload.append(*encoded);
  return payload;
}

Status DecodeWalPayload(const std::string& payload, uint64_t* base_rows,
                        WriteBatch* batch) {
  if (payload.size() < 8) {
    return Status::Corruption("WAL payload shorter than its row cursor");
  }
  *base_rows =
      bit_util::LoadLE<uint64_t>(reinterpret_cast<const uint8_t*>(payload.data()));
  return DecodeWriteBatch(
      reinterpret_cast<const uint8_t*>(payload.data()) + 8, payload.size() - 8,
      batch);
}

}  // namespace pcube

// The structure-mutation half of the write path (DESIGN.md §15).
//
// WriteApplier is the ONLY code that calls the raw structure mutators
// (Dataset/TableStore/BooleanIndex appends, RStarTree::Insert/Delete,
// PCube::ApplyChanges/Rebuild — the latter two are private to PCube with
// this class as their sole friend). Routing every mutation through one
// class is what makes the epoch-stamping contract unbypassable: the cube
// bumps the affected cells' DataEpochs inside ApplyChanges, so both cache
// levels invalidate exactly no matter how the batch reached the structures.
//
// Two callers, same code path:
//   * the Workbench maintenance thread, applying durable batches in bounded
//     slices under the structure writer lock (readers keep running between
//     slices — the RediSearch fork_gc discipline);
//   * WAL replay inside Workbench::Open, single-threaded, with `replay`
//     mode tolerating the idempotence cases a crash between Save() and the
//     WAL checkpoint creates (re-deleting an already-deleted tuple).
#pragma once

#include "common/status.h"
#include "query/write_batch.h"

namespace pcube {

class Workbench;

/// Applies WriteBatches to every structure of one Workbench.
class WriteApplier {
 public:
  /// The applier mutates `wb`'s structures directly; the caller owns the
  /// locking (structure writer lock held, or single-threaded recovery).
  explicit WriteApplier(Workbench* wb) : wb_(wb) {}

  /// Applies one batch: inserts get consecutive tids starting at the
  /// dataset's current row count, deletes are removed from the R-tree and
  /// tombstoned for the boolean-first plan, and the cube's signatures are
  /// maintained incrementally (paper Fig. 7), falling back to a full
  /// signature rebuild when the batch split the root. In `replay` mode a
  /// delete of an already-missing tuple is skipped, not an error.
  Status Apply(const WriteBatch& batch, bool replay);

  /// Recomputes every materialised signature from the tree's current state
  /// (the PCube::Rebuild gateway; bumps every epoch).
  Status RebuildCube();

 private:
  Workbench* wb_;
};

/// WAL record payload codec: the Workbench logs `u64 base_rows` (the row
/// count the dataset must have for the batch to apply — the idempotence
/// cursor replay checks) followed by the encoded batch.
Result<std::string> EncodeWalPayload(uint64_t base_rows,
                                     const WriteBatch& batch);
Status DecodeWalPayload(const std::string& payload, uint64_t* base_rows,
                        WriteBatch* batch);

}  // namespace pcube

// Deterministic storage fault injection.
//
// FaultInjectingPageManager is a PageManager decorator that perturbs reads
// and writes according to a seeded FaultPlan. Every decision derives from
// (seed, per-op counter) through SplitMix64, so a plan replays identically
// run after run — a failing fuzz seed is a reproducible test case.
//
// Fault kinds:
//   transient read error — Read returns Status::IoError for a page, healing
//       after `read_error_burst` consecutive attempts on that page (models
//       a flaky device the BufferPool's retry loop can ride out).
//   bit flip  — one deterministic bit of the returned page is inverted
//       after a successful inner read (models media rot; the checksum layer
//       above this one turns it into Status::Corruption).
//   short read — the tail of the returned page is zeroed (models a torn
//       sector; also caught by checksums).
//   torn write — only a prefix of the new content is written; the tail
//       keeps the page's previous bytes (zeroes if the page was never
//       readable), modelling a crash mid-pwrite.
//
// Besides the probabilistic rates, a plan can carry scripted faults pinned
// to a specific page and operation — "the 3rd read of page 17 fails twice"
// — which the degradation tests use to corrupt exactly the signature path.
//
// Stacking order in the Workbench: base (memory/file) → FaultInjecting →
// Checksum → Latency → BufferPool, so injected corruption is subject to
// checksum verification exactly like real corruption would be.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "storage/page_manager.h"

namespace pcube {

/// One scripted fault: after `after` prior operations of kind `op` on page
/// `pid`, inject `kind` for the next `times` such operations.
struct ScriptedFault {
  enum class Op { kRead, kWrite };
  enum class Kind { kTransientError, kBitFlip, kShortRead, kTornWrite };

  PageId pid = 0;
  Op op = Op::kRead;
  Kind kind = Kind::kTransientError;
  uint64_t after = 0;   ///< ops on this page to let through first
  uint64_t times = 1;   ///< how many subsequent ops to fault (~0 = forever)
};

/// Seeded description of what to inject. Rates are per-operation
/// probabilities in [0, 1]; 0 everywhere (the default) disables the layer.
struct FaultPlan {
  uint64_t seed = 1;
  double read_error_rate = 0;    ///< P(transient IoError) per read
  uint32_t read_error_burst = 1; ///< consecutive failures per triggered error
  double bit_flip_rate = 0;      ///< P(single bit flip) per read
  double short_read_rate = 0;    ///< P(zeroed tail) per read
  double torn_write_rate = 0;    ///< P(partial write) per write
  std::vector<ScriptedFault> script;

  bool enabled() const {
    return read_error_rate > 0 || bit_flip_rate > 0 || short_read_rate > 0 ||
           torn_write_rate > 0 || !script.empty();
  }

  /// Parses "seed=7,read_error=0.05,burst=2,bit_flip=0.01,short_read=0.01,
  /// torn_write=0.02" (any subset, any order). Unknown keys are an error.
  static Result<FaultPlan> Parse(const std::string& spec);

  /// Round-trippable textual form of the rate fields (script omitted).
  std::string ToString() const;
};

/// PageManager decorator injecting the faults described by a FaultPlan.
class FaultInjectingPageManager : public PageManager {
 public:
  FaultInjectingPageManager(std::unique_ptr<PageManager> inner,
                            FaultPlan plan);

  PageManager* inner() const { return inner_.get(); }
  const FaultPlan& plan() const { return plan_; }

  /// While disarmed the decorator passes everything through untouched.
  /// Workbench build/open paths disarm injection so faults only start once
  /// the structures exist (mirroring how LatencyPageManager builds at zero
  /// latency).
  void set_armed(bool armed) {
    armed_.store(armed, std::memory_order_relaxed);
  }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  Result<PageId> Allocate() override { return inner_->Allocate(); }
  Status Read(PageId pid, Page* out) override;
  Status Write(PageId pid, const Page& page) override;
  uint64_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override { return inner_->Sync(); }

  uint64_t injected_read_errors() const { return read_errors_.load(); }
  uint64_t injected_bit_flips() const { return bit_flips_.load(); }
  uint64_t injected_short_reads() const { return short_reads_.load(); }
  uint64_t injected_torn_writes() const { return torn_writes_.load(); }

 private:
  /// Deterministic roll in [0, 1) for the `page_op_index`-th operation on
  /// page `pid`; `salt` separates the independent fault kinds. Keyed on
  /// per-page op counts (not a global counter) so outcomes don't depend on
  /// thread interleaving across pages.
  double EventRoll(PageId pid, uint64_t page_op_index, uint64_t salt) const;
  /// Checks the script for a fault matching this op; returns true and sets
  /// `*kind` when one fires.
  bool ScriptFires(PageId pid, ScriptedFault::Op op, uint64_t page_op_index,
                   ScriptedFault::Kind* kind) const;

  // pcube-lint: begin-lock-free(both are fixed in the constructor: inner_
  // is the wrapped manager, plan_ the immutable fault script)
  std::unique_ptr<PageManager> inner_;
  FaultPlan plan_;
  // pcube-lint: end-lock-free
  std::atomic<bool> armed_{true};

  // Per-(page, op) operation counts drive the script and burst state; a
  // mutex keeps them consistent (fault paths are not hot paths).
  mutable Mutex mu_;
  std::map<std::pair<PageId, int>, uint64_t> page_ops_ GUARDED_BY(mu_);
  std::map<PageId, uint32_t> pending_errors_
      GUARDED_BY(mu_);  ///< remaining burst per page

  std::atomic<uint64_t> read_errors_{0};
  std::atomic<uint64_t> bit_flips_{0};
  std::atomic<uint64_t> short_reads_{0};
  std::atomic<uint64_t> torn_writes_{0};
};

}  // namespace pcube

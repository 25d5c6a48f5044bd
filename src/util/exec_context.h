#ifndef LBR_UTIL_EXEC_CONTEXT_H_
#define LBR_UTIL_EXEC_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/bitvector.h"
#include "util/query_control.h"

namespace lbr {

/// Per-engine scratch arena for the query hot path.
///
/// Fold results, unfold masks, and position buffers are needed thousands of
/// times per query but only transiently; allocating them fresh each time put
/// malloc on the prune/join critical path. An ExecContext keeps a free list
/// of Bitvectors and position vectors whose capacity survives across uses,
/// so a warmed-up engine performs zero heap allocations per prune iteration.
///
/// Ownership rules (see DESIGN.md):
///  - Acquire/Release pair up through the RAII guards below; a raw pointer
///    from Acquire* must never outlive its Release*.
///  - Buffer addresses are stable between Acquire and Release (the pool
///    hands out heap buffers, never elements of a reallocating vector).
///  - Release order is unconstrained (free list, not a stack).
///  - An ExecContext is single-threaded; concurrent branches each own one.
class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Hands out a pooled Bitvector. Contents are unspecified — callers must
  /// Resize + Clear (or fully overwrite) before use.
  Bitvector* AcquireBits() {
    if (bit_free_.empty()) {
      ++bits_created_;
      return new Bitvector();
    }
    Bitvector* bv = bit_free_.back().release();
    bit_free_.pop_back();
    return bv;
  }
  void ReleaseBits(Bitvector* bv) {
    bit_free_.emplace_back(bv);
  }

  /// Hands out a pooled position buffer, already cleared (capacity kept).
  std::vector<uint32_t>* AcquirePositions() {
    if (pos_free_.empty()) {
      ++positions_created_;
      return new std::vector<uint32_t>();
    }
    std::vector<uint32_t>* v = pos_free_.back().release();
    pos_free_.pop_back();
    v->clear();
    return v;
  }
  void ReleasePositions(std::vector<uint32_t>* v) {
    pos_free_.emplace_back(v);
  }

  /// Total distinct buffers ever created — a steady-state hot path should
  /// stop growing these after warm-up.
  size_t bitvectors_created() const { return bits_created_; }
  size_t positions_created() const { return positions_created_; }

  /// Fold-memoization telemetry: BitMat::FoldInto reports here whether a
  /// column fold was served from the version-stamped cache (hit) or had to
  /// iterate rows (miss), and when a miss published the memo through the
  /// once-flag (once). Counters are cumulative; the engine snapshots them
  /// around a query to derive per-query deltas for QueryStats.
  void CountFoldHit() { ++fold_cache_hits_; }
  void CountFoldMiss() { ++fold_cache_misses_; }
  void CountFoldOnce() { ++fold_once_publishes_; }
  uint64_t fold_cache_hits() const { return fold_cache_hits_; }
  uint64_t fold_cache_misses() const { return fold_cache_misses_; }
  uint64_t fold_once_publishes() const { return fold_once_publishes_; }

  /// Query lifecycle control (DESIGN.md §9). The engine attaches the
  /// per-query control for the duration of one Execute; ThreadPool mirrors
  /// the caller's control onto its worker arenas for the duration of a
  /// collective. Null (the default, and the state every bench runs in)
  /// makes every check below a single pointer test.
  void SetQueryControl(QueryControl* control) {
    control_ = control;
    check_tick_ = 0;
  }
  QueryControl* query_control() const { return control_; }

  /// The cooperative cancellation check, called at loop/block/recursion
  /// granularity on the prune/join hot paths. With a control attached the
  /// steady-state cost is one relaxed load; every 256th call additionally
  /// polls the deadline clock — the stride bounds how far past a deadline
  /// a query can run in units of hot-loop iterations, not wall time spent
  /// inside one check.
  void CheckCancel() {
    if (control_ == nullptr) return;
    if ((++check_tick_ & 0xFF) == 0) control_->PollNow();
    control_->ThrowIfAborted();
  }

  /// The forced variant for infrequent sites (per-TP load, per semi-join):
  /// always reads the clock, so coarse-grained phases observe a
  /// deadline even when they never tick the stride.
  void CheckCancelNow() {
    if (control_ == nullptr) return;
    control_->PollNow();
    control_->ThrowIfAborted();
  }

  /// Accounts approximate bytes against the attached control's budget
  /// (no-op when detached). Throws QueryAbortedError on budget breach.
  void ChargeMemory(uint64_t bytes) {
    if (control_ != nullptr) control_->ChargeMemory(bytes);
  }

 private:
  std::vector<std::unique_ptr<Bitvector>> bit_free_;
  std::vector<std::unique_ptr<std::vector<uint32_t>>> pos_free_;
  size_t bits_created_ = 0;
  size_t positions_created_ = 0;
  uint64_t fold_cache_hits_ = 0;
  uint64_t fold_cache_misses_ = 0;
  uint64_t fold_once_publishes_ = 0;
  QueryControl* control_ = nullptr;
  uint32_t check_tick_ = 0;
};

/// RAII scratch Bitvector: pooled when `ctx` is non-null, function-local
/// otherwise, so every call site works with or without an arena.
class ScratchBits {
 public:
  explicit ScratchBits(ExecContext* ctx)
      : ctx_(ctx), bv_(ctx != nullptr ? ctx->AcquireBits() : &local_) {}
  /// Acquires and presents a cleared `n`-bit vector.
  ScratchBits(ExecContext* ctx, size_t n) : ScratchBits(ctx) {
    bv_->Resize(n);
    bv_->Clear();
  }
  ~ScratchBits() {
    if (ctx_ != nullptr && bv_ != nullptr) ctx_->ReleaseBits(bv_);
  }
  ScratchBits(ScratchBits&& other) noexcept
      : ctx_(other.ctx_), local_(std::move(other.local_)) {
    bv_ = (ctx_ != nullptr) ? other.bv_ : &local_;
    other.ctx_ = nullptr;
    other.bv_ = nullptr;
  }
  ScratchBits(const ScratchBits&) = delete;
  ScratchBits& operator=(const ScratchBits&) = delete;
  ScratchBits& operator=(ScratchBits&&) = delete;

  Bitvector& operator*() { return *bv_; }
  const Bitvector& operator*() const { return *bv_; }
  Bitvector* operator->() { return bv_; }
  Bitvector* get() { return bv_; }
  const Bitvector* get() const { return bv_; }

 private:
  ExecContext* ctx_;
  Bitvector* bv_;
  Bitvector local_;
};

/// RAII scratch position buffer (sorted uint32 positions), pooled or local.
class ScratchPositions {
 public:
  explicit ScratchPositions(ExecContext* ctx)
      : ctx_(ctx), v_(ctx != nullptr ? ctx->AcquirePositions() : &local_) {}
  ~ScratchPositions() {
    if (ctx_ != nullptr && v_ != nullptr) ctx_->ReleasePositions(v_);
  }
  ScratchPositions(const ScratchPositions&) = delete;
  ScratchPositions& operator=(const ScratchPositions&) = delete;

  std::vector<uint32_t>& operator*() { return *v_; }
  std::vector<uint32_t>* operator->() { return v_; }
  std::vector<uint32_t>* get() { return v_; }

 private:
  ExecContext* ctx_;
  std::vector<uint32_t>* v_;
  std::vector<uint32_t> local_;
};

}  // namespace lbr

#endif  // LBR_UTIL_EXEC_CONTEXT_H_

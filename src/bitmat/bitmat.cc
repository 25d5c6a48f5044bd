#include "bitmat/bitmat.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <istream>
#include <mutex>
#include <ostream>
#include <utility>

#include "util/thread_pool.h"

namespace lbr {

namespace {

/// Minimum *non-empty* rows before a fold/unfold shards across a pool:
/// below this the collective's wake/merge overhead beats the row work.
/// Gating on the populated count matters on the prune hot path — a heavily
/// pruned 100K-row matrix with 50 surviving rows folds serially in a
/// handful of ORs, and waking the pool for it would be a strict loss.
constexpr uint64_t kParallelRowThreshold = 4096;

/// Chunk size for row sharding: large enough to amortize the per-chunk
/// claim + (for folds) the whole-width merge OR, 64-aligned so each
/// non-empty-row word belongs to exactly one chunk.
uint32_t RowGrain(uint32_t num_rows, int slots) {
  uint32_t grain = num_rows / static_cast<uint32_t>(slots * 4);
  grain = std::max<uint32_t>(1024, grain);
  return (grain + 63) & ~63u;
}

bool ShouldParallelize(const ThreadPool* pool, size_t populated) {
  return pool != nullptr && pool->num_workers() > 0 &&
         !ThreadPool::InParallelRegion() && populated >= kParallelRowThreshold;
}

/// Calls fn(i) for every set bit of `bits` in [begin, end), in order.
/// Chunk boundaries are 64-aligned, so each worker reads disjoint words;
/// the chunk cost is O(words in range + set bits in range), matching the
/// serial ForEachSetBit path instead of scanning every row index.
template <typename Fn>
void ForEachSetBitInRange(const Bitvector& bits, uint32_t begin, uint32_t end,
                          Fn&& fn) {
  const std::vector<uint64_t>& words = bits.words();
  size_t w_begin = begin >> 6;
  size_t w_end = std::min<size_t>(words.size(), (end + 63) >> 6);
  for (size_t w = w_begin; w < w_end; ++w) {
    uint64_t word = words[w];
    if (w == w_begin) word &= ~uint64_t{0} << (begin & 63);
    while (word != 0) {
      unsigned tz = __builtin_ctzll(word);
      uint32_t i = static_cast<uint32_t>((w << 6) + tz);
      if (i >= end) return;  // tail word of an unaligned final chunk
      fn(i);
      word &= word - 1;
    }
  }
}

}  // namespace

BitMat::BitMat(uint32_t num_rows, uint32_t num_cols)
    : num_rows_(num_rows), num_cols_(num_cols), non_empty_rows_(num_rows) {}

void BitMat::FillRankDirectory(const std::vector<uint64_t>& words,
                               std::vector<uint32_t>* dir) {
  uint32_t total = 0;
  for (size_t w = 0; w < dir->size(); ++w) {
    (*dir)[w] = total;
    total += static_cast<uint32_t>(__builtin_popcountll(words[w]));
  }
}

void BitMat::SetRow(uint32_t r, const std::vector<uint32_t>& positions) {
  SetRow(r, CompressedRow::FromPositions(positions));
}

void BitMat::SetRow(uint32_t r, CompressedRow row) {
  SetRowShared(r, row.IsEmpty()
                      ? RowHandle()
                      : std::make_shared<const CompressedRow>(std::move(row)));
}

void BitMat::SetRowShared(uint32_t r, RowHandle row) {
  assert(r < num_rows_);
  if (row != nullptr && row->IsEmpty()) row = nullptr;
  Touch();
  const size_t w = r >> 6;
  const uint32_t idx = RankOf(r);
  if (non_empty_rows_.Get(r)) {
    count_ -= rows_[idx]->Count();
    if (row != nullptr) {
      count_ += row->Count();
      rows_[idx] = std::move(row);
      return;
    }
    // Removal: close the slot and shift the later words' prefix counts.
    rows_.erase(rows_.begin() + idx);
    non_empty_rows_.Set(r, false);
    for (size_t v = w + 1; v < rank_.size(); ++v) --rank_[v];
    return;
  }
  if (row == nullptr) return;
  count_ += row->Count();
  non_empty_rows_.Set(r, true);
  if (w >= rank_.size()) {
    // Past every populated row: the ascending-build append. The new words'
    // prefix is every row populated so far. Growth doubles but never past
    // one entry per word.
    if (w >= rank_.capacity()) {
      rank_.reserve(std::min(std::max(2 * rank_.capacity(), w + 1),
                             non_empty_rows_.words().size()));
    }
    rank_.resize(w + 1, static_cast<uint32_t>(rows_.size()));
    rows_.push_back(std::move(row));
    return;
  }
  rows_.insert(rows_.begin() + idx, std::move(row));
  for (size_t v = w + 1; v < rank_.size(); ++v) ++rank_[v];
}

Bitvector BitMat::Fold(Dim retain) const {
  Bitvector out;
  FoldInto(retain, &out);
  return out;
}

void BitMat::FoldInto(Dim retain, Bitvector* out, ExecContext* ctx,
                      ThreadPool* pool) const {
  if (retain == Dim::kRow) {
    // Incrementally maintained metadata — already "memoized" by
    // construction; not counted in the fold-cache telemetry.
    out->AssignResized(non_empty_rows_, num_rows_);
    return;
  }
  uint32_t s = col_fold_.state.load(std::memory_order_acquire);
  if (s == FoldMemo::kPublished) {
    // Word copy of the memo; no row is touched.
    out->AssignResized(*col_fold_.bits, num_cols_);
    if (ctx != nullptr) ctx->CountFoldHit();
    return;
  }
  if (s == FoldMemo::kIdle &&
      col_fold_.state.compare_exchange_strong(s, FoldMemo::kMissed,
                                              std::memory_order_acq_rel)) {
    // First fold at this version: only record that it happened (the
    // second-touch policy). Exactly one racing fold wins this edge.
    ComputeColFoldInto(out, pool);
    if (ctx != nullptr) ctx->CountFoldMiss();
    return;
  }
  // A failed CAS reloads `s`, so it now holds the freshly observed state.
  if (s == FoldMemo::kMissed &&
      col_fold_.state.compare_exchange_strong(s, FoldMemo::kComputing,
                                              std::memory_order_acq_rel)) {
    // Second fold at this version: the result is evidently reused — the
    // once path computes it and publishes the memo for everyone.
    ComputeColFoldInto(out, pool);
    col_fold_.bits = std::make_shared<const Bitvector>(*out);
    col_fold_.state.store(FoldMemo::kPublished, std::memory_order_release);
    if (ctx != nullptr) {
      ctx->CountFoldMiss();
      ctx->CountFoldOnce();
    }
    return;
  }
  if (s == FoldMemo::kPublished) {
    // Lost the race to a publisher: its memo is ready — word-copy it.
    out->AssignResized(*col_fold_.bits, num_cols_);
    if (ctx != nullptr) ctx->CountFoldHit();
    return;
  }
  // Another thread holds the once edge (kComputing) or just recorded the
  // miss: fold locally without touching the memo, never blocking.
  ComputeColFoldInto(out, pool);
  if (ctx != nullptr) ctx->CountFoldMiss();
}

void BitMat::ComputeColFoldInto(Bitvector* out, ThreadPool* pool) const {
  out->Resize(num_cols_);
  out->Clear();
  if (!ShouldParallelize(pool, rows_.size())) {
    // Only populated rows have slots; each ORs in word-at-a-time.
    for (const RowHandle& row : rows_) row->OrInto(out);
    return;
  }
  // Sharded fold over the populated slots: each chunk ORs its rows into a
  // slot-local partial from the worker's arena, then merges into `out`
  // word-wide under a mutex. Workers only read immutable row payload
  // through the shared handles.
  std::mutex merge_mu;
  const uint32_t populated = static_cast<uint32_t>(rows_.size());
  uint32_t grain = RowGrain(populated, pool->num_slots());
  pool->ParallelFor(
      0, populated, grain,
      [this, out, &merge_mu](uint32_t begin, uint32_t end, ExecContext* ctx,
                             int /*slot*/) {
        ScratchBits partial(ctx, num_cols_);
        for (uint32_t i = begin; i < end; ++i) rows_[i]->OrInto(partial.get());
        std::lock_guard<std::mutex> lk(merge_mu);
        out->Or(*partial);
      });
}

void BitMat::MemoizeColFold(ThreadPool* pool) const {
  // Owner-exclusive warm path (cache entries are memoized before they are
  // published): no CAS dance, just compute and publish.
  if (ColFoldMemoized()) return;
  auto fold = std::make_shared<Bitvector>();
  ComputeColFoldInto(fold.get(), pool);
  col_fold_.bits = std::move(fold);
  col_fold_.state.store(FoldMemo::kPublished, std::memory_order_release);
}

BitMat::RowHandle BitMat::MaskedRow(const RowHandle& row,
                                    const Bitvector& mask,
                                    std::vector<uint32_t>* scratch) {
  if (row->IsSubsetOf(mask)) return row;  // no bit dropped: keep sharing
  scratch->clear();
  row->AppendMaskedPositions(mask, scratch);
  if (scratch->empty()) return nullptr;  // nothing survives
  return std::make_shared<const CompressedRow>(
      CompressedRow::FromPositions(*scratch));
}

void BitMat::Unfold(const Bitvector& mask, Dim retain, ExecContext* ctx,
                    ThreadPool* pool) {
  // Per-row-range masking step, shared by the serial and sharded paths.
  // `begin` is 0 or 64-aligned, so the range's first slot is a directory
  // entry and disjoint ranges never share a non-empty-row word or a slot.
  // Returns the count of removed bits in [begin, end) — nonzero exactly
  // when a row changed — and records whether a row emptied; an emptied
  // row's handle is nulled in place (compacted once after the pass).
  // Iteration walks only the populated rows of the range (word scan of
  // non_empty_rows_); clearing the bit of the row just visited is safe
  // because each word is captured before its bits are yielded.
  auto unfold_range = [this, &mask, retain](uint32_t begin, uint32_t end,
                                            std::vector<uint32_t>* scratch,
                                            bool* range_emptied) -> uint64_t {
    uint64_t removed = 0;
    const size_t w0 = begin >> 6;
    size_t i = w0 < rank_.size() ? rank_[w0] : rows_.size();
    ForEachSetBitInRange(non_empty_rows_, begin, end, [&](uint32_t r) {
      RowHandle& slot = rows_[i++];
      // kRow clears entire rows whose mask bit is 0 — a handle drop, no
      // payload walk. kCol ANDs every row with the mask: a row that loses
      // no bit keeps its shared handle (aliased copies are untouched); a
      // changed row is re-encoded into a fresh handle from pooled scratch
      // (MaskedRow, the shared CoW masking step).
      RowHandle masked;
      if (retain == Dim::kRow) {
        if (r < mask.size() && mask.Get(r)) return;
      } else {
        masked = MaskedRow(slot, mask, scratch);
        if (masked == slot) return;  // no bit dropped
      }
      removed += slot->Count();
      if (masked != nullptr) {
        removed -= masked->Count();
      } else {
        non_empty_rows_.Set(r, false);
        *range_emptied = true;
      }
      slot = std::move(masked);
    });
    return removed;
  };

  // No populated row lies in a word past the directory.
  const uint32_t end = static_cast<uint32_t>(
      std::min<uint64_t>(num_rows_, uint64_t{rank_.size()} << 6));
  bool emptied = false;
  uint64_t removed = 0;
  if (!ShouldParallelize(pool, rows_.size())) {
    ScratchPositions scratch(ctx);
    removed = unfold_range(0, end, scratch.get(), &emptied);
  } else {
    // 64-aligned chunks: each non-empty-row word and each slot is written
    // by at most one worker; the count delta is merged through an atomic.
    std::atomic<uint64_t> removed_total{0};
    std::atomic<bool> any_emptied{false};
    uint32_t grain = RowGrain(end, pool->num_slots());
    pool->ParallelFor(
        0, end, grain,
        [&unfold_range, &removed_total, &any_emptied](
            uint32_t begin, uint32_t chunk_end, ExecContext* chunk_ctx,
            int /*slot*/) {
          ScratchPositions scratch(chunk_ctx);
          bool range_emptied = false;
          uint64_t r =
              unfold_range(begin, chunk_end, scratch.get(), &range_emptied);
          if (r != 0) removed_total.fetch_add(r, std::memory_order_relaxed);
          if (range_emptied) {
            any_emptied.store(true, std::memory_order_relaxed);
          }
        },
        ctx);
    removed = removed_total.load();
    emptied = any_emptied.load();
  }
  if (emptied) {
    // One compaction + directory rebuild on the calling thread.
    rows_.erase(std::remove(rows_.begin(), rows_.end(), nullptr),
                rows_.end());
    FillRankDirectory(non_empty_rows_.words(), &rank_);
  }
  count_ -= removed;
  if (removed != 0) Touch();
}

BitMat BitMat::Transposed() const {
  // Bucket the set bits by column — only the populated columns get a
  // bucket: a counting sort into one flat position array, addressed
  // through a rank directory over the column fold. Rows are visited
  // ascending, so every bucket comes out sorted.
  Bitvector cols;
  ComputeColFoldInto(&cols);
  std::vector<uint32_t> col_rank(cols.words().size());
  FillRankDirectory(cols.words(), &col_rank);
  const uint32_t populated = static_cast<uint32_t>(cols.Count());
  auto bucket = [&](uint32_t c) { return RankIn(col_rank, cols.words(), c); };
  std::vector<uint32_t> start(populated + 1, 0);
  ForEachBit([&](uint32_t, uint32_t c) { ++start[bucket(c) + 1]; });
  for (uint32_t b = 0; b < populated; ++b) start[b + 1] += start[b];
  std::vector<uint32_t> flat(count_);
  std::vector<uint32_t> fill(start.begin(), start.end() - 1);
  ForEachBit([&](uint32_t r, uint32_t c) { flat[fill[bucket(c)]++] = r; });

  BitMat t(num_cols_, num_rows_);
  t.rows_.reserve(populated);
  std::vector<uint32_t> positions;
  uint32_t b = 0;
  cols.ForEachSetBit([&](uint32_t c) {
    positions.assign(flat.begin() + start[b], flat.begin() + start[b + 1]);
    t.SetRow(c, positions);
    ++b;
  });
  return t;
}

void BitMat::AppendColumnPositions(uint32_t c,
                                   std::vector<uint32_t>* out) const {
  ForEachRow([c, out](uint32_t r, const CompressedRow& row) {
    if (row.Test(c)) out->push_back(r);
  });
}

BitMat BitMat::DeepCopy() const {
  BitMat out(num_rows_, num_cols_);
  out.rows_.reserve(rows_.size());
  ForEachRow([&out](uint32_t r, const CompressedRow& row) {
    out.SetRow(r, CompressedRow(row));
  });
  return out;
}

size_t BitMat::PayloadBytes() const {
  size_t bytes = 0;
  for (const RowHandle& r : rows_) bytes += r->PayloadBytes();
  return bytes;
}

void BitMat::WriteTo(std::ostream* out) const {
  out->write(reinterpret_cast<const char*>(&num_rows_), sizeof(num_rows_));
  out->write(reinterpret_cast<const char*>(&num_cols_), sizeof(num_cols_));
  // Only non-empty rows are written: (row_index, row) pairs.
  uint32_t non_empty = static_cast<uint32_t>(rows_.size());
  out->write(reinterpret_cast<const char*>(&non_empty), sizeof(non_empty));
  ForEachRow([out](uint32_t r, const CompressedRow& row) {
    out->write(reinterpret_cast<const char*>(&r), sizeof(r));
    row.WriteTo(out);
  });
}

BitMat BitMat::ReadFrom(std::istream* in) {
  uint32_t num_rows = 0, num_cols = 0, non_empty = 0;
  in->read(reinterpret_cast<char*>(&num_rows), sizeof(num_rows));
  in->read(reinterpret_cast<char*>(&num_cols), sizeof(num_cols));
  in->read(reinterpret_cast<char*>(&non_empty), sizeof(non_empty));
  BitMat bm(num_rows, num_cols);
  for (uint32_t i = 0; i < non_empty; ++i) {
    uint32_t r = 0;
    in->read(reinterpret_cast<char*>(&r), sizeof(r));
    bm.SetRow(r, CompressedRow::ReadFrom(in));
  }
  return bm;
}

bool BitMat::operator==(const BitMat& other) const {
  if (num_rows_ != other.num_rows_ || num_cols_ != other.num_cols_ ||
      count_ != other.count_) {
    return false;
  }
  if (non_empty_rows_ != other.non_empty_rows_) return false;
  // Same populated rows, so the slots correspond one to one.
  for (size_t i = 0; i < rows_.size(); ++i) {
    const RowHandle& a = rows_[i];
    const RowHandle& b = other.rows_[i];
    if (a != b && *a != *b) return false;  // same handle: equal
  }
  return true;
}

}  // namespace lbr

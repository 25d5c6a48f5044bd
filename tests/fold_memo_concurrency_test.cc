// The concurrency-safe column-fold memo (DESIGN.md §7): concurrent
// FoldInto callers on one BitMat are safe (the TSan leg runs this suite)
// and always produce the serial fold; the once-flag publishes exactly once
// per version and resets on mutation.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "bitmat/bitmat.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lbr {
namespace {

BitMat RandomBitMat(uint32_t rows, uint32_t cols, double row_density,
                    double bit_density, uint64_t seed) {
  Rng rng(seed);
  BitMat bm(rows, cols);
  std::vector<uint32_t> positions;
  for (uint32_t r = 0; r < rows; ++r) {
    if (!rng.Chance(row_density)) continue;
    positions.clear();
    for (uint32_t c = 0; c < cols; ++c) {
      if (rng.Chance(bit_density)) positions.push_back(c);
    }
    if (!positions.empty()) bm.SetRow(r, positions);
  }
  return bm;
}

TEST(FoldMemoConcurrencyTest, ConcurrentFoldersAgreeAndPublishOnce) {
  BitMat bm = RandomBitMat(8192, 1024, 0.5, 0.02, 17);
  const Bitvector reference = bm.DeepCopy().Fold(Dim::kCol);

  // Many concurrent FoldInto callers on the very same matrix. Every caller
  // must read the serial fold, whether it computed locally, published the
  // memo, or word-copied it.
  ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  pool.ParallelFor(0, 64, /*grain=*/1,
                   [&](uint32_t begin, uint32_t end, ExecContext* ctx,
                       int /*slot*/) {
                     for (uint32_t i = begin; i < end; ++i) {
                       ScratchBits out(ctx);
                       bm.FoldInto(Dim::kCol, out.get(), ctx);
                       if (!(*out == reference)) {
                         mismatches.fetch_add(1, std::memory_order_relaxed);
                       }
                     }
                   });
  EXPECT_EQ(mismatches.load(), 0);
  // With >= 2 folds at one version, some thread must have taken the
  // kMissed -> kComputing once edge and published.
  EXPECT_TRUE(bm.ColFoldMemoized());
}

TEST(FoldMemoConcurrencyTest, MutateBetweenConcurrentFoldRounds) {
  // Read-shared folds, a barrier, an exclusive mutation, another round of
  // read-shared folds. Each round must see the fold of
  // the matrix's current content.
  BitMat bm = RandomBitMat(4096, 512, 0.6, 0.05, 23);
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    const Bitvector reference = bm.DeepCopy().Fold(Dim::kCol);
    std::atomic<int> mismatches{0};
    pool.ParallelFor(0, 16, /*grain=*/1,
                     [&](uint32_t begin, uint32_t end, ExecContext* ctx,
                         int /*slot*/) {
                       for (uint32_t i = begin; i < end; ++i) {
                         ScratchBits out(ctx);
                         bm.FoldInto(Dim::kCol, out.get(), ctx);
                         if (!(*out == reference)) {
                           mismatches.fetch_add(1,
                                                std::memory_order_relaxed);
                         }
                       }
                     });
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
    // Exclusive mutation (the ParallelFor join above is the barrier):
    // drop every third column, resetting the once-flag.
    Bitvector mask(512);
    for (uint32_t c = 0; c < 512; ++c) {
      if (c % 3 != static_cast<uint32_t>(round % 3)) mask.Set(c);
    }
    bm.Unfold(mask, Dim::kCol);
    EXPECT_FALSE(bm.ColFoldMemoized());
  }
}

TEST(FoldMemoConcurrencyTest, FoldOnceCounterCountsThePublish) {
  ExecContext ctx;
  BitMat bm = RandomBitMat(64, 64, 0.8, 0.2, 5);
  Bitvector out;
  bm.FoldInto(Dim::kCol, &out, &ctx);  // first touch: miss, no publish
  EXPECT_EQ(ctx.fold_once_publishes(), 0u);
  bm.FoldInto(Dim::kCol, &out, &ctx);  // second touch: the once publish
  EXPECT_EQ(ctx.fold_once_publishes(), 1u);
  bm.FoldInto(Dim::kCol, &out, &ctx);  // hit: no further publish
  EXPECT_EQ(ctx.fold_once_publishes(), 1u);
  EXPECT_EQ(ctx.fold_cache_hits(), 1u);
  EXPECT_EQ(ctx.fold_cache_misses(), 2u);
}

}  // namespace
}  // namespace lbr

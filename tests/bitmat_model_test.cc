// Model-based test of BitMat's populated-row storage: random op sequences
// run against both a BitMat and a dense reference (one sorted position list
// per row), and every observable read must agree after every op. Covers
// out-of-order inserts and clears, serial and pooled unfolds, fold-memo
// reads, CoW copies mutated on both sides, Transposed, column extraction,
// iteration, equality, DeepCopy and serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bitmat/bitmat.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lbr {
namespace {

/// Dense reference model: row r's set columns, ascending.
struct Model {
  uint32_t rows = 0;
  uint32_t cols = 0;
  std::vector<std::vector<uint32_t>> bits;

  Model(uint32_t r, uint32_t c) : rows(r), cols(c), bits(r) {}

  uint64_t Count() const {
    uint64_t n = 0;
    for (const auto& row : bits) n += row.size();
    return n;
  }
  void Unfold(const Bitvector& mask, Dim retain) {
    for (uint32_t r = 0; r < rows; ++r) {
      if (retain == Dim::kRow) {
        if (r >= mask.size() || !mask.Get(r)) bits[r].clear();
        continue;
      }
      auto& row = bits[r];
      row.erase(std::remove_if(row.begin(), row.end(),
                               [&](uint32_t c) {
                                 return c >= mask.size() || !mask.Get(c);
                               }),
                row.end());
    }
  }
};

/// A BitMat and the model it must match.
struct Pair {
  BitMat bm;
  Model model;
};

std::vector<uint32_t> RandomPositions(Rng* rng, uint32_t cols,
                                      double density) {
  std::vector<uint32_t> out;
  for (uint32_t c = 0; c < cols; ++c) {
    if (rng->Chance(density)) out.push_back(c);
  }
  return out;
}

Bitvector RandomMask(Rng* rng, uint32_t n, double density) {
  Bitvector mask(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (rng->Chance(density)) mask.Set(i);
  }
  return mask;
}

void ExpectMatches(const BitMat& bm, const Model& m) {
  ASSERT_EQ(bm.num_rows(), m.rows);
  ASSERT_EQ(bm.num_cols(), m.cols);
  ASSERT_EQ(bm.Count(), m.Count());
  EXPECT_EQ(bm.IsEmpty(), m.Count() == 0);
  Bitvector want_rows(m.rows), want_cols(m.cols);
  std::vector<std::pair<uint32_t, uint32_t>> want_bits;
  for (uint32_t r = 0; r < m.rows; ++r) {
    const auto& want = m.bits[r];
    ASSERT_EQ(bm.Row(r).SetBits(), want) << "row " << r;
    ASSERT_EQ(bm.SharedRow(r) == nullptr, want.empty()) << "row " << r;
    ASSERT_EQ(bm.NonEmptyRows().Get(r), !want.empty()) << "row " << r;
    if (!want.empty()) want_rows.Set(r);
    for (uint32_t c : want) {
      ASSERT_TRUE(bm.Test(r, c)) << r << "," << c;
      want_cols.Set(c);
      want_bits.emplace_back(r, c);
    }
    // A probe column that is not set (when the row has a hole).
    if (want.size() < m.cols) {
      uint32_t hole = 0;
      while (std::binary_search(want.begin(), want.end(), hole)) ++hole;
      ASSERT_FALSE(bm.Test(r, hole)) << r << "," << hole;
    }
  }
  EXPECT_FALSE(bm.Test(m.rows, 0));
  EXPECT_FALSE(bm.Test(0, m.cols));
  EXPECT_EQ(bm.NonEmptyRows(), want_rows);
  EXPECT_EQ(bm.Fold(Dim::kRow), want_rows);
  EXPECT_EQ(bm.Fold(Dim::kCol), want_cols);
  std::vector<std::pair<uint32_t, uint32_t>> got_bits;
  bm.ForEachBit([&](uint32_t r, uint32_t c) { got_bits.emplace_back(r, c); });
  EXPECT_EQ(got_bits, want_bits);
}

/// Everything derived from a matrix without mutating it: the transpose, the
/// column extraction, the fold memo, DeepCopy, serialization and equality
/// against an ascending rebuild.
void ExpectDerivedReadsMatch(const BitMat& bm, const Model& m, Rng* rng) {
  Model tm(m.cols, m.rows);
  for (uint32_t r = 0; r < m.rows; ++r) {
    for (uint32_t c : m.bits[r]) tm.bits[c].push_back(r);
  }
  BitMat t = bm.Transposed();
  ExpectMatches(t, tm);
  EXPECT_TRUE(t.Transposed() == bm);

  for (int probe = 0; probe < 4 && m.cols > 0; ++probe) {
    uint32_t c = static_cast<uint32_t>(rng->Uniform(m.cols));
    std::vector<uint32_t> got;
    bm.AppendColumnPositions(c, &got);
    EXPECT_EQ(got, tm.bits[c]) << "column " << c;
  }

  // Fold memo: whatever state the copy inherits, three folds reach a
  // word-copy hit, and every one equals a fresh fold.
  ExecContext ctx;
  BitMat copy = bm;
  Bitvector fold;
  for (int i = 0; i < 3; ++i) {
    copy.FoldInto(Dim::kCol, &fold, &ctx);
    EXPECT_EQ(fold, bm.DeepCopy().Fold(Dim::kCol));
  }
  EXPECT_TRUE(copy.ColFoldMemoized());
  EXPECT_GE(ctx.fold_cache_hits(), 1u);

  BitMat deep = bm.DeepCopy();
  EXPECT_TRUE(deep == bm);
  bm.NonEmptyRows().ForEachSetBit([&](uint32_t r) {
    EXPECT_NE(deep.SharedRow(r).get(), bm.SharedRow(r).get());
  });

  std::stringstream ss;
  bm.WriteTo(&ss);
  BitMat read = BitMat::ReadFrom(&ss);
  EXPECT_TRUE(read == bm);
  ExpectMatches(read, m);

  BitMat rebuilt(m.rows, m.cols);
  for (uint32_t r = 0; r < m.rows; ++r) {
    if (!m.bits[r].empty()) rebuilt.SetRow(r, m.bits[r]);
  }
  EXPECT_TRUE(rebuilt == bm);
}

/// Runs `steps` random ops over up to four live (BitMat, Model) pairs, with
/// every CoW copy mutated independently of its source.
void RunRandomOps(uint64_t seed, uint32_t rows, uint32_t cols, int steps,
                  ThreadPool* pool) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  std::vector<Pair> live;
  live.push_back({BitMat(rows, cols), Model(rows, cols)});
  for (int step = 0; step < steps; ++step) {
    Pair& p = live[rng.Uniform(live.size())];
    uint64_t version = p.bm.version();
    switch (rng.Uniform(9)) {
      case 0:
      case 1: {
        // SetRow at a uniform row: appends, middle inserts, replacements,
        // and (with an empty list) clears.
        uint32_t r = static_cast<uint32_t>(rng.Uniform(rows));
        std::vector<uint32_t> pos =
            rng.Chance(0.2) ? std::vector<uint32_t>{}
                            : RandomPositions(&rng, cols, 0.1);
        p.bm.SetRow(r, pos);
        p.model.bits[r] = pos;
        EXPECT_GT(p.bm.version(), version);
        break;
      }
      case 2: {
        // SetRowShared aliasing another populated row (or clearing).
        uint32_t r = static_cast<uint32_t>(rng.Uniform(rows));
        uint32_t from = static_cast<uint32_t>(rng.Uniform(rows));
        BitMat::RowHandle h = p.bm.SharedRow(from);
        p.bm.SetRowShared(r, h);
        p.model.bits[r] = p.model.bits[from];
        if (h != nullptr) {
          EXPECT_EQ(p.bm.SharedRow(r).get(), h.get());
        }
        break;
      }
      case 3:
      case 4: {
        Dim retain = rng.Chance(0.5) ? Dim::kRow : Dim::kCol;
        uint32_t n = retain == Dim::kRow ? rows : cols;
        Bitvector mask = RandomMask(&rng, n, rng.Chance(0.5) ? 0.9 : 0.5);
        ExecContext ctx;
        BitMat serial = p.bm;
        uint64_t before = p.bm.Count();
        p.bm.Unfold(mask, retain, &ctx, rng.Chance(0.5) ? pool : nullptr);
        p.model.Unfold(mask, retain);
        serial.Unfold(mask, retain);
        EXPECT_TRUE(serial == p.bm);  // pooled == serial, bit for bit
        // The version moves exactly when a bit was cleared.
        EXPECT_EQ(p.bm.version() != version, p.bm.Count() != before);
        break;
      }
      case 5: {
        // Fold reads through the memo on the live matrix itself.
        Bitvector fold;
        for (int i = 0; i < 3; ++i) p.bm.FoldInto(Dim::kCol, &fold);
        EXPECT_TRUE(p.bm.ColFoldMemoized());
        Model& m = p.model;
        Bitvector want(m.cols);
        for (const auto& row : m.bits) {
          for (uint32_t c : row) want.Set(c);
        }
        EXPECT_EQ(fold, want);
        EXPECT_EQ(p.bm.version(), version);
        break;
      }
      case 6: {
        // CoW copy: both sides are mutated independently from here on.
        if (live.size() < 4) {
          Pair copy{p.bm, p.model};
          live.push_back(std::move(copy));
        }
        break;
      }
      case 7: {
        ExpectDerivedReadsMatch(p.bm, p.model, &rng);
        EXPECT_EQ(p.bm.version(), version);
        break;
      }
      case 8: {
        // Rewrite random rows in descending order: every store lands
        // before already-populated rows (a middle insert, replacement or
        // clear), never on the append path.
        for (uint32_t r = rows; r-- > 0;) {
          if (!rng.Chance(0.05)) continue;
          std::vector<uint32_t> pos = RandomPositions(&rng, cols, 0.05);
          p.bm.SetRow(r, pos);
          p.model.bits[r] = pos;
        }
        break;
      }
    }
    for (const Pair& q : live) {
      ExpectMatches(q.bm, q.model);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  for (const Pair& q : live) ExpectDerivedReadsMatch(q.bm, q.model, &rng);
}

TEST(BitMatModelTest, SmallMatricesRandomOps) {
  ThreadPool pool(4);
  // Sizes straddle word boundaries in both dimensions.
  const uint32_t shapes[][2] = {{1, 1}, {63, 5}, {64, 64}, {65, 70},
                                {200, 130}, {130, 1}};
  uint64_t seed = 1;
  for (const auto& shape : shapes) {
    for (int rep = 0; rep < 3; ++rep) {
      RunRandomOps(seed++, shape[0], shape[1], 120, &pool);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BitMatModelTest, PooledUnfoldOnLargeMatrices) {
  // Enough populated rows (> the 4096-row parallel threshold) that pooled
  // unfolds and folds really shard.
  ThreadPool pool(4);
  const uint32_t rows = 12000, cols = 40;
  for (uint64_t seed = 100; seed < 103; ++seed) {
    Rng rng(seed);
    Pair p{BitMat(rows, cols), Model(rows, cols)};
    for (uint32_t r = 0; r < rows; ++r) {
      if (!rng.Chance(0.7)) continue;
      std::vector<uint32_t> pos = RandomPositions(&rng, cols, 0.2);
      p.bm.SetRow(r, pos);
      p.model.bits[r] = pos;
    }
    ExpectMatches(p.bm, p.model);
    for (int step = 0; step < 6; ++step) {
      Dim retain = step % 2 == 0 ? Dim::kRow : Dim::kCol;
      Bitvector mask =
          RandomMask(&rng, retain == Dim::kRow ? rows : cols, 0.93);
      BitMat before = p.bm;  // CoW copy must survive the pooled unfold
      Model before_model = p.model;
      BitMat serial = p.bm;
      ExecContext ctx;
      p.bm.Unfold(mask, retain, &ctx, &pool);
      serial.Unfold(mask, retain);
      p.model.Unfold(mask, retain);
      EXPECT_TRUE(serial == p.bm);
      ExpectMatches(p.bm, p.model);
      ExpectMatches(before, before_model);
      Bitvector fold;
      p.bm.FoldInto(Dim::kCol, &fold, nullptr, &pool);
      EXPECT_EQ(fold, serial.Fold(Dim::kCol));
      if (HasFatalFailure()) return;
    }
    ExpectDerivedReadsMatch(p.bm, p.model, &rng);
  }
}

TEST(BitMatModelTest, EmptyMatrixCostsOnlyMetadataWords) {
  // An empty 2^20-row matrix holds only its non-empty-row words; copying
  // and transposing it stay empty.
  BitMat bm(1u << 20, 3);
  EXPECT_TRUE(bm.IsEmpty());
  EXPECT_EQ(bm.NonEmptyRows().words().size(), (1u << 20) / 64);
  BitMat copy = bm;
  EXPECT_TRUE(copy == bm);
  EXPECT_TRUE(bm.Transposed().IsEmpty());
  // Appending far past every populated row, then inserting before it.
  bm.SetRow(1u << 19, {1});
  bm.SetRow(5, {0, 2});
  bm.SetRow((1u << 20) - 1, {2});
  EXPECT_EQ(bm.Count(), 4u);
  EXPECT_EQ(bm.Row(5).SetBits(), (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(bm.Test(1u << 19, 1));
  EXPECT_TRUE(bm.Test((1u << 20) - 1, 2));
  bm.SetRow(1u << 19, CompressedRow());
  EXPECT_EQ(bm.NonEmptyRows().SetBits(),
            (std::vector<uint32_t>{5, (1u << 20) - 1}));
  EXPECT_TRUE(bm.Test((1u << 20) - 1, 2));
  EXPECT_TRUE(copy.IsEmpty());
}

}  // namespace
}  // namespace lbr

// Differential tests of masked TP loads: for every TP shape, random
// active-pruning masks, and both index backends (heap and mapped snapshot),
// a masked LoadTpBitMat must equal the unmasked load followed by Unfold with
// the same masks — bit for bit — and so must TpCache::GetOrLoadMasked on
// both its miss and its hit path. Also pins two cost contracts: a load into
// an n-row BitMat allocates O(n/64) metadata words, not a slot per row, and
// a variable-predicate load on a mapped snapshot materializes only the
// slices that hold its fixed term.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bitmat/tp_cache.h"
#include "bitmat/tp_loader.h"
#include "core/database.h"
#include "test_util.h"
#include "util/rng.h"

// Allocation counting replaces the global operator new/delete. ASan and
// TSan install their own for every variant, so the sanitizer builds leave
// them alone and skip the allocation test. (libstdc++ routes its other
// variants through these two.)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LBR_COUNT_ALLOCATIONS 0
#else
#define LBR_COUNT_ALLOCATIONS 1
#endif

namespace {

// Bytes requested through operator new on this thread while counting is on.
thread_local bool g_count_allocs = false;
thread_local uint64_t g_alloc_bytes = 0;

}  // namespace

#if LBR_COUNT_ALLOCATIONS
void* operator new(std::size_t n) {
  if (g_count_allocs) g_alloc_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace lbr {
namespace {

using testing::T;

/// Bytes allocated by `fn` on the calling thread.
template <typename Fn>
uint64_t AllocatedBytes(Fn&& fn) {
  g_alloc_bytes = 0;
  g_count_allocs = true;
  fn();
  g_count_allocs = false;
  return g_alloc_bytes;
}

PatternTerm Var(const std::string& name) { return PatternTerm::Var(name); }
PatternTerm Iri(const std::string& iri) {
  return PatternTerm::Fixed(Term::Iri(iri));
}

/// A random graph over a shared entity pool, so subjects and objects
/// overlap (the Vso range) and a few self-loops feed the diagonal shape;
/// literal objects extend the object domain past the shared range.
std::vector<TermTriple> RandomTriples(uint64_t seed) {
  Rng rng(seed);
  std::vector<TermTriple> triples;
  for (int i = 0; i < 260; ++i) {
    std::string s = "e" + std::to_string(rng.Uniform(40));
    std::string p = "p" + std::to_string(rng.Uniform(5));
    std::string o = rng.Chance(0.2)
                        ? "\"lit" + std::to_string(rng.Uniform(15)) + "\""
                        : "e" + std::to_string(rng.Uniform(40));
    if (rng.Chance(0.05)) o = s;
    triples.push_back(T(s, p, o));
  }
  return triples;
}

/// Every TP shape the loader accepts, over terms of the random graph
/// (including a fixed term the dictionary does not know).
std::vector<TriplePattern> AllShapes(Rng* rng) {
  auto subject = [&] { return Iri("e" + std::to_string(rng->Uniform(40))); };
  auto object = [&] {
    return rng->Chance(0.3) ? PatternTerm::Fixed(Term::Literal(
                                  "lit" + std::to_string(rng->Uniform(15))))
                            : Iri("e" + std::to_string(rng->Uniform(40)));
  };
  auto pred = [&] { return Iri("p" + std::to_string(rng->Uniform(5))); };
  std::vector<TriplePattern> tps = {
      TriplePattern(Var("x"), pred(), Var("y")),
      TriplePattern(Var("x"), pred(), Var("x")),  // diagonal
      TriplePattern(Var("x"), pred(), object()),
      TriplePattern(subject(), pred(), Var("y")),
      TriplePattern(subject(), pred(), object()),
      TriplePattern(subject(), Var("p"), Var("y")),
      TriplePattern(Var("x"), Var("p"), object()),
      TriplePattern(subject(), Var("p"), object()),
      TriplePattern(Var("x"), Iri("nosuch"), Var("y")),
      TriplePattern(Iri("nosuch"), Var("p"), Var("y")),
  };
  return tps;
}

Bitvector RandomMask(Rng* rng, uint32_t n) {
  const double density = rng->Chance(0.5) ? 0.3 : 0.9;
  Bitvector mask(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (rng->Chance(density)) mask.Set(i);
  }
  return mask;
}

void ExpectSameTp(const TpBitMat& got, const TpBitMat& want) {
  EXPECT_EQ(got.row_kind, want.row_kind);
  EXPECT_EQ(got.col_kind, want.col_kind);
  EXPECT_EQ(got.row_var, want.row_var);
  EXPECT_EQ(got.col_var, want.col_var);
  EXPECT_TRUE(got.bm == want.bm);
  EXPECT_EQ(got.bm.Count(), want.bm.Count());
  EXPECT_EQ(got.bm.NonEmptyRows(), want.bm.NonEmptyRows());
}

/// Runs every shape × orientation × a few random mask draws on one index.
void CheckMaskedLoadsMatchUnfold(const Database& db, uint64_t seed) {
  Rng rng(seed);
  for (int round = 0; round < 6; ++round) {
    for (const TriplePattern& tp : AllShapes(&rng)) {
      for (bool subject_rows : {true, false}) {
        SCOPED_TRACE(tp.ToString() + (subject_rows ? " S-O" : " O-S"));
        TpBitMat full = LoadTpBitMat(db.index(), db.dict(), tp, subject_rows);
        // Masks only on real dimensions, as the engine builds them.
        Bitvector row_mask, col_mask;
        ActiveMasks masks;
        if (full.row_kind != DomainKind::kUnit && rng.Chance(0.7)) {
          row_mask = RandomMask(&rng, full.bm.num_rows());
          masks.row_mask = &row_mask;
        }
        if (full.col_kind != DomainKind::kUnit && rng.Chance(0.7)) {
          col_mask = RandomMask(&rng, full.bm.num_cols());
          masks.col_mask = &col_mask;
        }
        TpBitMat want = full;
        if (masks.row_mask != nullptr) want.bm.Unfold(row_mask, Dim::kRow);
        if (masks.col_mask != nullptr) want.bm.Unfold(col_mask, Dim::kCol);

        ExecContext ctx;
        ExpectSameTp(LoadTpBitMat(db.index(), db.dict(), tp, subject_rows,
                                  masks, &ctx),
                     want);

        TpCache cache;
        ExpectSameTp(cache.GetOrLoadMasked(db.index(), db.dict(), tp,
                                           subject_rows, masks, &ctx),
                     want);
        // Warm the entry unmasked, then take the hit path.
        cache.GetOrLoad(db.index(), db.dict(), tp, subject_rows);
        const uint64_t hits = cache.hits();
        ExpectSameTp(cache.GetOrLoadMasked(db.index(), db.dict(), tp,
                                           subject_rows, masks, &ctx),
                     want);
        EXPECT_EQ(cache.hits(), hits + 1);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(TpLoaderDifferentialTest, MaskedLoadEqualsUnmaskedThenUnfoldHeap) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Database db = Database::Build(RandomTriples(seed));
    CheckMaskedLoadsMatchUnfold(db, seed * 7919);
  }
}

TEST(TpLoaderDifferentialTest, MaskedLoadEqualsUnmaskedThenUnfoldSnapshot) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Database heap = Database::Build(RandomTriples(seed));
    const std::string path = ::testing::TempDir() + "/tp_loader_diff_" +
                             std::to_string(seed) + ".snap";
    heap.SaveSnapshot(path);
    Database snap = Database::OpenSnapshot(path);
    ASSERT_TRUE(snap.index().mapped());
    // A variable-predicate load materializes only the slices that hold its
    // fixed subject (by the resident metadata), not every predicate.
    const TriplePattern by_subject(Iri("e3"), Var("p"), Var("y"));
    const uint32_t s = *snap.dict().SubjectId(Term::Iri("e3"));
    uint64_t holding = 0;
    for (uint32_t p = 0; p < snap.index().num_predicates(); ++p) {
      holding += snap.index().SubjectsOf(p).Get(s);
    }
    ASSERT_LT(holding, snap.index().num_predicates());
    LoadTpBitMat(snap.index(), snap.dict(), by_subject, true);
    EXPECT_EQ(snap.index().snapshot_materializations(), holding);
    CheckMaskedLoadsMatchUnfold(snap, seed * 7919);
    std::remove(path.c_str());
  }
}

TEST(TpLoaderDifferentialTest, LoadAllocatesMetadataWordsNotRowSlots) {
  if (!LBR_COUNT_ALLOCATIONS) {
    GTEST_SKIP() << "allocation counting is off under ASan/TSan";
  }
  // 2^16 subjects, of which the probed predicate touches three. A load
  // into the 2^16-row BitMat may allocate the non-empty-row words (n/8
  // bytes) and the rank directory (at most n/16 bytes, doubled by vector
  // growth) plus per-populated-row constants — far below the n handle
  // slots (16n bytes) of a dense row vector.
  const uint32_t kSubjects = 1u << 16;
  std::vector<TermTriple> triples;
  for (uint32_t i = 0; i < kSubjects; ++i) {
    triples.push_back(T("s" + std::to_string(i), "big", "o0"));
  }
  for (uint32_t i : {7u, 30000u, 65000u}) {
    triples.push_back(T("s" + std::to_string(i), "small", "o1"));
  }
  Database db = Database::Build(triples);
  const uint32_t n = db.index().num_subjects();
  ASSERT_GE(n, kSubjects);
  const uint64_t allowance = n / 8 + n / 8 + 4096;

  Bitvector row_mask(n, true);
  ActiveMasks masked;
  masked.row_mask = &row_mask;
  const TriplePattern two_var(Var("x"), Iri("small"), Var("y"));
  const TriplePattern one_var(Var("x"), Iri("small"), Iri("o1"));
  for (const TriplePattern* tp : {&two_var, &one_var}) {
    for (const ActiveMasks& masks : {ActiveMasks{}, masked}) {
      SCOPED_TRACE(tp->ToString());
      TpBitMat loaded;
      uint64_t bytes = AllocatedBytes([&] {
        loaded = LoadTpBitMat(db.index(), db.dict(), *tp, true, masks);
      });
      EXPECT_EQ(loaded.bm.num_rows(), n);
      EXPECT_EQ(loaded.bm.Count(), 3u);
      EXPECT_LE(bytes, allowance);
    }
  }

  // The cache's masked copy-out on the hit path obeys the same bound.
  TpCache cache;
  cache.GetOrLoad(db.index(), db.dict(), two_var, true);
  TpBitMat hit;
  uint64_t bytes = AllocatedBytes([&] {
    hit = cache.GetOrLoadMasked(db.index(), db.dict(), two_var, true, masked);
  });
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(hit.bm.Count(), 3u);
  EXPECT_LE(bytes, allowance);
}

}  // namespace
}  // namespace lbr

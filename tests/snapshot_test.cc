#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bitmat/snapshot_format.h"
#include "bitmat/tp_loader.h"
#include "core/database.h"
#include "core/explain.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "workload/dbpedia_gen.h"
#include "workload/lubm_gen.h"
#include "workload/query_sets.h"
#include "workload/uniprot_gen.h"

namespace lbr {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Locates a section by kind straight from the on-disk header, so the
/// corruption tests hit the intended bytes regardless of layout changes.
SnapSectionEntry FindSection(const std::string& bytes, uint32_t kind) {
  const uint8_t* base = reinterpret_cast<const uint8_t*>(bytes.data());
  for (uint32_t i = 0; i < kSnapNumSections; ++i) {
    SnapSectionEntry e = ReadPod<SnapSectionEntry>(
        base, sizeof(SnapHeader) + i * sizeof(SnapSectionEntry));
    if (e.kind == kind) return e;
  }
  ADD_FAILURE() << "section kind " << kind << " not found";
  return {};
}

SnapshotErrorCode OpenErrorCode(const std::string& path,
                                SnapshotOptions snap = {}) {
  try {
    Database::OpenSnapshot(path, {}, snap);
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "OpenSnapshot(" << path << ") did not throw";
  return SnapshotErrorCode::kIo;
}

Database SmallLubmDb() {
  LubmConfig cfg;
  cfg.num_universities = 2;
  return Database::Build(GenerateLubm(cfg));
}

/// Saves `heap_db` as a snapshot, reopens it mapped, and requires every
/// query in `queries` to return the bit-identical result multiset.
void ExpectRoundTrip(Database& heap_db, const std::vector<BenchQuery>& queries,
                     const std::string& name) {
  const std::string path = TempPath(name);
  heap_db.SaveSnapshot(path);
  Database snap_db = Database::OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(snap_db.index().mapped());
  ASSERT_FALSE(heap_db.index().mapped());
  EXPECT_EQ(snap_db.num_triples(), heap_db.num_triples());
  for (const BenchQuery& q : queries) {
    SCOPED_TRACE(q.id);
    EXPECT_EQ(testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)),
              testing::Canonicalize(snap_db.engine().ExecuteToTable(q.sparql)));
  }
}

TEST(SnapshotTest, RoundTripLubm) {
  Database db = SmallLubmDb();
  ExpectRoundTrip(db, LubmQueries(), "snap_lubm.snap");
}

TEST(SnapshotTest, RoundTripUniprot) {
  UniprotConfig cfg;
  Database db = Database::Build(GenerateUniprot(cfg));
  ExpectRoundTrip(db, UniprotQueries(), "snap_uniprot.snap");
}

TEST(SnapshotTest, RoundTripDbpedia) {
  DbpediaConfig cfg;
  Database db = Database::Build(GenerateDbpedia(cfg));
  ExpectRoundTrip(db, DbpediaQueries(), "snap_dbpedia.snap");
}

TEST(SnapshotTest, OpenDispatchesOnMagic) {
  const std::string path = TempPath("snap_sniff.snap");
  {
    Database db = SmallLubmDb();
    db.SaveSnapshot(path);
  }
  // Plain Open() must sniff the magic and come back mapped.
  Database db = Database::Open(path);
  std::remove(path.c_str());
  EXPECT_TRUE(db.index().mapped());
  EXPECT_GT(db.num_triples(), 0u);
}

TEST(SnapshotTest, StatsSurviveWithoutCollect) {
  // OpenSnapshot deserializes PredicateStats instead of re-collecting;
  // the table must match what the heap build derived.
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_stats.snap");
  heap_db.SaveSnapshot(path);
  Database snap_db = Database::OpenSnapshot(path);
  std::remove(path.c_str());
  EXPECT_EQ(snap_db.predicate_stats().total_triples(),
            heap_db.predicate_stats().total_triples());
}

TEST(SnapshotTest, LazyMaterializationIsCountedOncePerPredicate) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_lazy.snap");
  heap_db.SaveSnapshot(path);
  Database db = Database::OpenSnapshot(path);
  std::remove(path.c_str());

  const std::string q = LubmQueries()[0].sparql;
  QueryStats first, second;
  ResultTable t1 = db.engine().ExecuteToTable(q, &first);
  ResultTable t2 = db.engine().ExecuteToTable(q, &second);
  EXPECT_EQ(testing::Canonicalize(t1), testing::Canonicalize(t2));
  // The first run pays the materializations; with no budget nothing spills,
  // so the warm run touches only already-resident slices.
  EXPECT_GT(first.snapshot_materializations, 0u);
  EXPECT_EQ(second.snapshot_materializations, 0u);
  EXPECT_EQ(first.snapshot_spills, 0u);
  EXPECT_GT(first.snapshot_resident_bytes, 0u);
}

TEST(SnapshotTest, ResaveFromMappedIndex) {
  // The writer must work from the mapped backend too (materializing each
  // slice as it streams out): snapshot -> open -> snapshot -> open.
  Database heap_db = SmallLubmDb();
  const std::string path1 = TempPath("snap_gen1.snap");
  const std::string path2 = TempPath("snap_gen2.snap");
  heap_db.SaveSnapshot(path1);
  Database gen1 = Database::OpenSnapshot(path1);
  gen1.SaveSnapshot(path2);
  Database gen2 = Database::OpenSnapshot(path2);
  std::remove(path1.c_str());
  std::remove(path2.c_str());
  for (const BenchQuery& q : LubmQueries()) {
    SCOPED_TRACE(q.id);
    EXPECT_EQ(testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)),
              testing::Canonicalize(gen2.engine().ExecuteToTable(q.sparql)));
  }
}

// ---------------------------------------------------------------------------
// Rejection: every malformed input fails closed with a structured code.
// ---------------------------------------------------------------------------

class SnapshotRejectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the fixture's tests as concurrent
    // processes sharing TempDir().
    path_ = TempPath(
        std::string("snap_reject_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".snap");
    Database db = SmallLubmDb();
    db.SaveSnapshot(path_);
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), kSnapHeaderBytes);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Rewrites the file with byte `off` flipped.
  void FlipByte(uint64_t off) {
    ASSERT_LT(off, bytes_.size());
    std::string mutated = bytes_;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x5a);
    WriteFileBytes(path_, mutated);
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotRejectTest, TinyFile) {
  WriteFileBytes(path_, bytes_.substr(0, 4));
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kTruncated);
}

TEST_F(SnapshotRejectTest, BadMagic) {
  FlipByte(0);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kBadMagic);
}

TEST_F(SnapshotRejectTest, BadVersion) {
  // The version field sits right after the 8-byte magic; its check runs
  // before the header crc so the code is specific, not kChecksum.
  FlipByte(8);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kBadVersion);
}

TEST_F(SnapshotRejectTest, TruncatedBody) {
  WriteFileBytes(path_, bytes_.substr(0, bytes_.size() * 3 / 4));
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kTruncated);
}

TEST_F(SnapshotRejectTest, HeaderCrc) {
  // A flipped section-table byte keeps magic/version intact but must trip
  // the header crc before any section is trusted.
  FlipByte(sizeof(SnapHeader) + 4);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kChecksum);
}

TEST_F(SnapshotRejectTest, DictChecksum) {
  SnapSectionEntry dict = FindSection(bytes_, kSnapSectionDict);
  ASSERT_GT(dict.size, 8u);
  FlipByte(dict.offset + dict.size / 2);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kChecksum);
}

TEST_F(SnapshotRejectTest, MetaChecksum) {
  SnapSectionEntry meta = FindSection(bytes_, kSnapSectionMeta);
  ASSERT_GT(meta.size, 8u);
  FlipByte(meta.offset + meta.size / 2);
  EXPECT_EQ(OpenErrorCode(path_), SnapshotErrorCode::kChecksum);
}

TEST_F(SnapshotRejectTest, ExtentChecksumEager) {
  // verify_extents=true promotes the lazy per-slice checksums to open time.
  // Corrupt the section densely: a single flipped byte could land in the
  // inter-slice page padding, which no slice's crc covers (dead bytes).
  SnapSectionEntry ext = FindSection(bytes_, kSnapSectionExtents);
  ASSERT_GT(ext.size, 8u);
  std::string mutated = bytes_;
  for (uint64_t off = ext.offset; off < ext.offset + ext.size; off += 32) {
    mutated[off] = static_cast<char>(mutated[off] ^ 0x5a);
  }
  WriteFileBytes(path_, mutated);
  SnapshotOptions snap;
  snap.verify_extents = true;
  EXPECT_EQ(OpenErrorCode(path_, snap), SnapshotErrorCode::kChecksum);
}

TEST_F(SnapshotRejectTest, ExtentChecksumLazy) {
  // Corrupt the whole extents section: open succeeds (lazy contract), but
  // the first query to materialize any slice must throw kChecksum.
  SnapSectionEntry ext = FindSection(bytes_, kSnapSectionExtents);
  std::string mutated = bytes_;
  for (uint64_t off = ext.offset; off < ext.offset + ext.size; off += 32) {
    mutated[off] = static_cast<char>(mutated[off] ^ 0x5a);
  }
  WriteFileBytes(path_, mutated);
  Database db = Database::OpenSnapshot(path_);
  try {
    db.engine().ExecuteToTable(LubmQueries()[0].sparql);
    FAIL() << "query over corrupted extents did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum);
  }
}

TEST_F(SnapshotRejectTest, RowDirChecksumLazy) {
  SnapSectionEntry dir = FindSection(bytes_, kSnapSectionRowDir);
  std::string mutated = bytes_;
  for (uint64_t off = dir.offset; off < dir.offset + dir.size; off += 8) {
    mutated[off] = static_cast<char>(mutated[off] ^ 0x5a);
  }
  WriteFileBytes(path_, mutated);
  Database db = Database::OpenSnapshot(path_);
  EXPECT_THROW(db.engine().ExecuteToTable(LubmQueries()[0].sparql),
               SnapshotError);
}

// ---------------------------------------------------------------------------
// Budgeted spill: correctness under memory pressure.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, BudgetedSpillStaysBitIdentical) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_budget.snap");
  heap_db.SaveSnapshot(path);

  // Measure the unbudgeted working set first so the budget is guaranteed
  // smaller than the full index on any build config.
  uint64_t full_bytes = 0;
  {
    Database db = Database::OpenSnapshot(path);
    for (const BenchQuery& q : LubmQueries()) {
      db.engine().ExecuteToTable(q.sparql);
    }
    full_bytes = db.index().snapshot_resident_bytes();
  }
  ASSERT_GT(full_bytes, 0u);

  SnapshotOptions snap;
  snap.memory_budget_bytes = full_bytes / 4 + 1;
  Database db = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());

  uint64_t total_spills = 0;
  for (const BenchQuery& q : LubmQueries()) {
    SCOPED_TRACE(q.id);
    QueryStats stats;
    ResultTable got = db.engine().ExecuteToTable(q.sparql, &stats);
    EXPECT_EQ(testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)),
              testing::Canonicalize(got));
    EXPECT_EQ(stats.snapshot_budget_bytes, snap.memory_budget_bytes);
    total_spills += stats.snapshot_spills;
  }
  // A budget a quarter of the working set cannot hold every predicate: the
  // sweep must have spilled and re-materialized cold slices.
  EXPECT_GT(total_spills, 0u);
}

TEST(SnapshotConcurrencyTest, ParallelQueriesUnderBudget) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_conc.snap");
  heap_db.SaveSnapshot(path);

  std::vector<BenchQuery> queries = LubmQueries();
  std::vector<std::vector<std::string>> expected;
  for (const BenchQuery& q : queries) {
    expected.push_back(
        testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)));
  }

  SnapshotOptions snap;
  snap.memory_budget_bytes = 256 * 1024;
  Database db = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());

  // Hammer materialize/spill from a pool of batch workers (one engine per
  // slot, sharing the mapped index, the metered TP cache, and the spill
  // hook); every query must come back heap-identical.
  std::vector<std::string> stream;
  std::vector<size_t> stream_qi;
  for (int rep = 0; rep < 4; ++rep) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      stream.push_back(queries[(qi + static_cast<size_t>(rep)) %
                               queries.size()].sparql);
      stream_qi.push_back((qi + static_cast<size_t>(rep)) % queries.size());
    }
  }
  ThreadPool pool(4);
  std::vector<BatchResult> results = db.ExecuteBatch(stream, &pool);
  ASSERT_EQ(results.size(), stream.size());
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(queries[stream_qi[i]].id);
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_EQ(testing::Canonicalize(results[i].table),
              expected[stream_qi[i]]);
  }
}

// ---------------------------------------------------------------------------
// Fault injection (DESIGN.md §12): crash-safe writes, fail-closed taxonomy
// per site, quarantine, and paranoid reads.
// ---------------------------------------------------------------------------

class SnapshotFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisarmAll();
    FaultRegistry::Instance().ResetCounters();
  }
  void TearDown() override {
    FaultRegistry::Instance().DisarmAll();
    FaultRegistry::Instance().ResetCounters();
  }

  /// Arms `site` with `spec` or fails the test with the parse error.
  static void Arm(const std::string& site, const std::string& spec) {
    std::string error;
    ASSERT_TRUE(FaultRegistry::Instance().Arm(site, spec, &error)) << error;
  }

  /// The temp name SnapshotIO::Write uses in this process.
  static std::string TempFileFor(const std::string& path) {
    return path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  }
};

TEST_F(SnapshotFaultTest, TornWriteNeverCorruptsPreviousSnapshot) {
  // The crash-safety invariant: a SaveSnapshot interrupted at the create,
  // write, fsync, or rename boundary leaves the previous snapshot at
  // `path` bit-identical and openable, and no temp file behind.
  LubmConfig small;
  small.num_universities = 1;
  Database db_old = Database::Build(GenerateLubm(small));
  Database db_new = SmallLubmDb();  // 2 universities: different content
  ASSERT_NE(db_old.num_triples(), db_new.num_triples());

  const std::string path = TempPath("snap_torn.snap");
  db_old.SaveSnapshot(path);
  const std::string old_bytes = ReadFileBytes(path);

  for (const char* site :
       {"snapshot.write.create", "snapshot.write.write",
        "snapshot.write.fsync", "snapshot.write.rename"}) {
    SCOPED_TRACE(site);
    Arm(site, "once");
    try {
      db_new.SaveSnapshot(path);
      FAIL() << "interrupted save did not throw";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrorCode::kIo);
      // Satellite: the errno detail must surface in the message.
      EXPECT_NE(std::string(e.what()).find("Input/output error"),
                std::string::npos)
          << e.what();
    }
    // Bit-identical old snapshot, still openable, no temp litter.
    EXPECT_EQ(ReadFileBytes(path), old_bytes);
    EXPECT_NE(::access(TempFileFor(path).c_str(), F_OK), 0);
    Database reopened = Database::OpenSnapshot(path);
    EXPECT_EQ(reopened.num_triples(), db_old.num_triples());
  }

  // The dirsync site fires AFTER the atomic rename: the error still
  // surfaces (the rename's durability is in question) but `path` now holds
  // the complete NEW snapshot — the invariant is "always a complete,
  // openable snapshot", not "always the old one".
  Arm("snapshot.write.dirsync", "once");
  EXPECT_THROW(db_new.SaveSnapshot(path), SnapshotError);
  EXPECT_NE(::access(TempFileFor(path).c_str(), F_OK), 0);
  Database after_dirsync = Database::OpenSnapshot(path);
  EXPECT_EQ(after_dirsync.num_triples(), db_new.num_triples());
  std::remove(path.c_str());
}

TEST_F(SnapshotFaultTest, OpenSitesFailClosedAsIoErrors) {
  Database db = SmallLubmDb();
  const std::string path = TempPath("snap_opensite.snap");
  db.SaveSnapshot(path);

  Arm("snapshot.open", "once");
  EXPECT_EQ(OpenErrorCode(path), SnapshotErrorCode::kIo);
  // once self-disarmed: the next open succeeds.
  EXPECT_NO_THROW(Database::OpenSnapshot(path));

  Arm("mapped_file.map", "once");
  EXPECT_EQ(OpenErrorCode(path), SnapshotErrorCode::kIo);
  EXPECT_NO_THROW(Database::OpenSnapshot(path));
  std::remove(path.c_str());
}

TEST_F(SnapshotFaultTest, ChecksumFaultQuarantinesOnlyThatPredicate) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_quarantine.snap");
  heap_db.SaveSnapshot(path);
  Database db = Database::OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_GE(db.index().num_predicates(), 2u);

  // Force a checksum mismatch on predicate 0's first materialization.
  Arm("index.checksum", "once");
  try {
    db.index().Slice(0, Orientation::kSO);
    FAIL() << "forced checksum mismatch did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum);
  }

  // Degraded mode: predicate 0 is quarantined and fails fast on every
  // subsequent touch; other predicates keep serving.
  // Quarantine is per predicate: the O-S orientation, never touched,
  // fails fast too.
  EXPECT_EQ(db.index().snapshot_quarantined(), 1u);
  for (Orientation o : {Orientation::kSO, Orientation::kOS}) {
    try {
      db.index().Slice(0, o);
      FAIL() << "quarantined predicate did not fail fast";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum);
      EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
    }
  }
  EXPECT_NO_THROW(db.index().Slice(1, Orientation::kSO));
  EXPECT_NO_THROW(db.index().Slice(1, Orientation::kOS));

  // The verify report distinguishes quarantined (runtime state) from
  // corrupt (bytes on disk — none here, the mismatch was injected).
  Database::SnapshotVerifyReport report = db.VerifySnapshot();
  EXPECT_TRUE(report.mapped);
  EXPECT_TRUE(report.corrupt.empty());
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], 0u);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(db.index().QuarantinedSlices(), std::vector<uint32_t>{0u});

  // Heap-mode databases verify trivially clean.
  Database::SnapshotVerifyReport heap_report = heap_db.VerifySnapshot();
  EXPECT_FALSE(heap_report.mapped);
  EXPECT_TRUE(heap_report.ok());
}

TEST_F(SnapshotFaultTest, TransientMaterializeFaultIsRetriedInvisibly) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_retry.snap");
  heap_db.SaveSnapshot(path);
  Database db = Database::OpenSnapshot(path);
  std::remove(path.c_str());

  // nth=2: every second materialization attempt faults; the retry gets a
  // fresh crossing and lands. The whole query sweep must come back
  // bit-identical with the recovery visible only in the stats.
  Arm("index.materialize", "nth=2");
  uint64_t retries = 0;
  for (const BenchQuery& q : LubmQueries()) {
    SCOPED_TRACE(q.id);
    QueryStats stats;
    EXPECT_EQ(testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)),
              testing::Canonicalize(db.engine().ExecuteToTable(q.sparql,
                                                               &stats)));
    retries += stats.fault_retries;
  }
  EXPECT_GT(retries, 0u);

  // nth=1 fires on every attempt: the retry budget exhausts and the fault
  // surfaces as a structured error — the query fails, the process doesn't.
  FaultRegistry::Instance().DisarmAll();
  Arm("tp_loader.load", "nth=1");
  EXPECT_THROW(db.engine().ExecuteToTable(LubmQueries()[0].sparql),
               FaultInjectedError);
  FaultRegistry::Instance().DisarmAll();
  EXPECT_NO_THROW(db.engine().ExecuteToTable(LubmQueries()[0].sparql));
}

TEST_F(SnapshotFaultTest, ChargeFaultLeavesSliceUnpublished) {
  // query_control.charge is a permanent site on the metered path: the
  // injected failure unwinds the materialization before the slice is
  // published, so the next touch starts clean and succeeds.
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_charge.snap");
  heap_db.SaveSnapshot(path);
  SnapshotOptions snap;
  snap.memory_budget_bytes = 64 * 1024 * 1024;
  Database db = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());

  Arm("query_control.charge", "once");
  EXPECT_THROW(db.engine().ExecuteToTable(LubmQueries()[0].sparql),
               FaultInjectedError);
  EXPECT_EQ(testing::Canonicalize(db.engine().ExecuteToTable(
                LubmQueries()[0].sparql)),
            testing::Canonicalize(heap_db.engine().ExecuteToTable(
                LubmQueries()[0].sparql)));
}

TEST_F(SnapshotFaultTest, ParanoidModeServesIdenticalResults) {
  Database heap_db = SmallLubmDb();
  const std::string path = TempPath("snap_paranoid.snap");
  heap_db.SaveSnapshot(path);

  SnapshotOptions snap;
  snap.paranoid = true;
  Database db = Database::OpenSnapshot(path, {}, snap);
  for (const BenchQuery& q : LubmQueries()) {
    SCOPED_TRACE(q.id);
    EXPECT_EQ(testing::Canonicalize(heap_db.engine().ExecuteToTable(q.sparql)),
              testing::Canonicalize(db.engine().ExecuteToTable(q.sparql)));
  }

  // Paranoid reads keep the same fail-closed taxonomy: corrupted extents
  // trip the checksum on the pread copy.
  std::string bytes = ReadFileBytes(path);
  SnapSectionEntry ext = FindSection(bytes, kSnapSectionExtents);
  for (uint64_t off = ext.offset; off < ext.offset + ext.size; off += 32) {
    bytes[off] = static_cast<char>(bytes[off] ^ 0x5a);
  }
  WriteFileBytes(path, bytes);
  Database corrupted = Database::OpenSnapshot(path, {}, snap);
  std::remove(path.c_str());
  try {
    corrupted.engine().ExecuteToTable(LubmQueries()[0].sparql);
    FAIL() << "paranoid query over corrupted extents did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum);
  }
}

// ---------------------------------------------------------------------------
// Format v2 checksum and per-orientation residency (DESIGN.md §11/§12).
// ---------------------------------------------------------------------------

/// Where one (predicate, orientation) slice lives in a snapshot file: the
/// locators are the meta section's tail, S-O then O-S per predicate.
struct SliceBytes {
  uint64_t dir_off = 0;  ///< Absolute file offset of the row directory.
  uint64_t dir_bytes = 0;
  uint64_t extent_off = 0;  ///< Absolute file offset of the extent.
  uint64_t extent_bytes = 0;
  uint32_t rows = 0;
};

SliceBytes LocateSlice(const std::string& bytes, uint32_t p, Orientation o) {
  const uint8_t* base = reinterpret_cast<const uint8_t*>(bytes.data());
  SnapSectionEntry meta = FindSection(bytes, kSnapSectionMeta);
  const uint32_t np = ReadPod<uint32_t>(base, meta.offset + 4);
  const uint64_t locs =
      meta.offset + meta.size - 2ull * np * sizeof(SnapSliceLocEntry);
  SnapSliceLocEntry e = ReadPod<SnapSliceLocEntry>(
      base, locs + (2ull * p + static_cast<uint32_t>(o)) *
                       sizeof(SnapSliceLocEntry));
  SliceBytes out;
  out.dir_off = FindSection(bytes, kSnapSectionRowDir).offset + e.dir_off;
  out.dir_bytes = uint64_t{e.dir_rows} * sizeof(SnapRowDirEntry);
  out.extent_off =
      FindSection(bytes, kSnapSectionExtents).offset + e.extent_off;
  out.extent_bytes = e.extent_words * 4;
  out.rows = e.dir_rows;
  return out;
}

/// Heap bytes the index meters for a freshly materialized slice of `rows`
/// rows (views own no payload).
uint64_t SliceHeapBytes(uint32_t rows) {
  return sizeof(TripleIndex::OrientedSlice) +
         uint64_t{rows} * sizeof(TripleIndex::Rows::value_type);
}

/// A graph small enough to flip every bit of a slice: predicate `knows`
/// has two subjects and three objects.
Database TinyDb() {
  return Database::Build({testing::T("a", "knows", "b"),
                          testing::T("a", "knows", "c"),
                          testing::T("b", "knows", "c"),
                          testing::T("c", "likes", "a"),
                          testing::T("b", "knows", "d")});
}

class SnapshotChecksumTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().DisarmAll(); }
};

TEST_F(SnapshotChecksumTest, GoldenVectors) {
  // Pins the v2 on-disk checksum: a change here is a format change.
  // Inputs shorter than one 32-byte stripe take the xxHash64 tail path
  // unchanged, so those three match the published XXH64 (seed 0) values.
  EXPECT_EQ(SnapChecksum("", 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(SnapChecksum("a", 1), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(SnapChecksum("abc", 3), 0x44bc2cf5ad770999ull);
  const char* fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(SnapChecksum(fox, std::strlen(fox)), 0x6b62175c29168ec2ull);
  // Every tail shape after one or more stripes: bytes (i*7+3) & 0xff.
  std::vector<uint8_t> buf(100);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  const std::pair<size_t, uint64_t> golden[] = {
      {31, 0xa2aa5f33cc4a6119ull},  {32, 0x46b63888ac171be0ull},
      {33, 0xe02f8f2fa5586338ull},  {39, 0xe24884bb209064aaull},
      {40, 0x5e834a6b640f08acull},  {44, 0xbce103f21f7c3600ull},
      {45, 0x521d5a9ecb34806dull},  {63, 0x3efe05a77c17620bull},
      {64, 0xcc02a1395ff54e38ull},  {100, 0x6903d3b1450fac80ull},
  };
  for (const auto& [len, want] : golden) {
    EXPECT_EQ(SnapChecksum(buf.data(), len), want) << "length " << len;
  }
}

TEST_F(SnapshotChecksumTest, EverySingleBitFlipChangesTheChecksum) {
  // The single-word guarantee on every stripe/tail shape: flipping any one
  // bit of the buffer always changes the checksum.
  std::vector<uint8_t> buf(77);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 31 + 5);
  }
  for (size_t len : {0ul, 1ul, 7ul, 12ul, 31ul, 32ul, 45ul, 77ul}) {
    const uint64_t clean = SnapChecksum(buf.data(), len);
    for (size_t bit = 0; bit < len * 8; ++bit) {
      buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_NE(SnapChecksum(buf.data(), len), clean)
          << "length " << len << " bit " << bit;
      buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
}

TEST_F(SnapshotChecksumTest, EveryBitFlipInOneSliceIsCaughtOnItsFirstTouch) {
  Database tiny = TinyDb();
  const std::string path = TempPath("snap_flip_slice.snap");
  tiny.SaveSnapshot(path);
  const std::string clean = ReadFileBytes(path);
  const uint32_t knows = *tiny.dict().PredicateId(Term::Iri("knows"));
  const SliceBytes so = LocateSlice(clean, knows, Orientation::kSO);
  ASSERT_EQ(so.rows, 2u);  // subjects a and b
  ASSERT_GT(so.extent_bytes, 0u);

  std::vector<std::pair<uint64_t, uint64_t>> regions = {
      {so.dir_off, so.dir_bytes}, {so.extent_off, so.extent_bytes}};
  size_t flips = 0;
  for (const auto& [off, len] : regions) {
    for (uint64_t bit = 0; bit < len * 8; ++bit) {
      std::string mutated = clean;
      mutated[off + bit / 8] ^= static_cast<char>(1u << (bit % 8));
      WriteFileBytes(path, mutated);
      Database db = Database::OpenSnapshot(path);  // lazy: open succeeds
      // The untouched O-S orientation of the same predicate still serves:
      // only the slice a reader asks for is verified.
      EXPECT_NO_THROW(db.index().Slice(knows, Orientation::kOS));
      try {
        db.index().Slice(knows, Orientation::kSO);
        ADD_FAILURE() << "flip of bit " << bit << " at offset " << off
                      << " not detected";
      } catch (const SnapshotError& e) {
        EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum);
      }
      ++flips;
    }
  }
  EXPECT_EQ(flips, (so.dir_bytes + so.extent_bytes) * 8);

  // VerifySnapshot checks both orientations without touching either.
  std::string mutated = clean;
  const SliceBytes os = LocateSlice(clean, knows, Orientation::kOS);
  mutated[os.extent_off] ^= 1;
  WriteFileBytes(path, mutated);
  Database db = Database::OpenSnapshot(path);
  Database::SnapshotVerifyReport report = db.VerifySnapshot();
  EXPECT_EQ(report.corrupt, std::vector<uint32_t>{knows});
  EXPECT_EQ(db.index().snapshot_materializations(), 0u);
  std::remove(path.c_str());
}

TEST_F(SnapshotChecksumTest, EveryBitFlipInTheHeaderIsRejectedAtOpen) {
  Database tiny = TinyDb();
  const std::string path = TempPath("snap_flip_header.snap");
  tiny.SaveSnapshot(path);
  const std::string clean = ReadFileBytes(path);
  for (uint64_t bit = 0; bit < kSnapHeaderBytes * 8; ++bit) {
    std::string mutated = clean;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    WriteFileBytes(path, mutated);
    try {
      Database::OpenSnapshot(path);
      ADD_FAILURE() << "header bit " << bit << " flip not detected";
    } catch (const SnapshotError& e) {
      // Magic, version, size and section-count fields fail their own
      // specific checks first; everything past the fixed header struct
      // (section table, stored checksum) can only be caught by the
      // checksum.
      if (bit / 8 >= sizeof(SnapHeader)) {
        EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum) << "bit " << bit;
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotChecksumTest, VersionOneFileIsRejectedAsBadVersion) {
  // A v1 file (FNV-1a checksums) is refused by version, not misread: the
  // header below is re-signed with the v2 checksum so the version field is
  // the only thing wrong with it.
  Database tiny = TinyDb();
  const std::string path = TempPath("snap_v1.snap");
  tiny.SaveSnapshot(path);
  std::string bytes = ReadFileBytes(path);
  SnapHeader hdr = ReadPod<SnapHeader>(
      reinterpret_cast<const uint8_t*>(bytes.data()), 0);
  ASSERT_EQ(hdr.version, kSnapVersion);
  hdr.version = 1;
  std::memcpy(&bytes[0], &hdr, sizeof(hdr));
  const uint64_t sum = SnapChecksum(bytes.data(), kSnapHeaderBytes - 8);
  std::memcpy(&bytes[kSnapHeaderBytes - 8], &sum, 8);
  WriteFileBytes(path, bytes);
  try {
    Database::OpenSnapshot(path);
    ADD_FAILURE() << "v1 snapshot opened";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kBadVersion);
  }
  std::remove(path.c_str());
}

class SnapshotResidencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisarmAll();
    path_ = TempPath(
        std::string("snap_residency_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".snap");
    heap_.SaveSnapshot(path_);
    bytes_ = ReadFileBytes(path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static TriplePattern VarPredVar(const char* pred) {
    return TriplePattern(PatternTerm::Var("x"),
                         PatternTerm::Fixed(Term::Iri(pred)),
                         PatternTerm::Var("y"));
  }

  Database heap_ = SmallLubmDb();
  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotResidencyTest, OneOrientationLoadDecodesOnlyThatOrientation) {
  Database db = Database::OpenSnapshot(path_);
  const TripleIndex& index = db.index();
  const TriplePattern tp = VarPredVar(lubm::kTakesCourse);
  const uint32_t p = *db.dict().PredicateId(tp.p.term);
  const SliceBytes so = LocateSlice(bytes_, p, Orientation::kSO);
  const SliceBytes os = LocateSlice(bytes_, p, Orientation::kOS);
  ASSERT_GT(so.rows, 0u);
  ASSERT_GT(os.rows, 0u);

  // Subject rows: the S-O slice only — one decode, its bytes verified and
  // metered, nothing of O-S.
  TpBitMat by_subject =
      LoadTpBitMat(index, db.dict(), tp, /*prefer_subject_rows=*/true);
  EXPECT_EQ(index.snapshot_materializations(), 1u);
  EXPECT_EQ(index.snapshot_verified_bytes(), so.dir_bytes + so.extent_bytes);
  EXPECT_EQ(index.snapshot_resident_bytes(), SliceHeapBytes(so.rows));

  // A later object-rows touch adds exactly the O-S slice.
  TpBitMat by_object =
      LoadTpBitMat(index, db.dict(), tp, /*prefer_subject_rows=*/false);
  EXPECT_EQ(index.snapshot_materializations(), 2u);
  EXPECT_EQ(index.snapshot_verified_bytes(),
            so.dir_bytes + so.extent_bytes + os.dir_bytes + os.extent_bytes);
  EXPECT_EQ(index.snapshot_resident_bytes(),
            SliceHeapBytes(so.rows) + SliceHeapBytes(os.rows));
  EXPECT_EQ(by_subject.bm.Count(), by_object.bm.Count());

  // Both resident: re-reads decode and verify nothing.
  LoadTpBitMat(index, db.dict(), tp, true);
  LoadTpBitMat(index, db.dict(), tp, false);
  EXPECT_EQ(index.snapshot_materializations(), 2u);
  EXPECT_EQ(index.snapshot_verified_bytes(),
            so.dir_bytes + so.extent_bytes + os.dir_bytes + os.extent_bytes);
}

TEST_F(SnapshotResidencyTest, PrefetchHintsOnlyTheNamedOrientation) {
  Database db = Database::OpenSnapshot(path_);
  const TripleIndex& index = db.index();
  const uint32_t p = *db.dict().PredicateId(Term::Iri(lubm::kAdvisor));
  index.Slice(p, Orientation::kSO);
  index.Prefetch(p, Orientation::kSO);  // resident: no hint
  EXPECT_EQ(index.snapshot_prefetches(), 0u);
  index.Prefetch(p, Orientation::kOS);  // on disk: hinted
  EXPECT_EQ(index.snapshot_prefetches(), 1u);
  EXPECT_EQ(index.snapshot_materializations(), 1u);  // hints decode nothing
}

TEST_F(SnapshotResidencyTest, QueryStatsCountVerifiedBytesPerQuery) {
  Database db = Database::OpenSnapshot(path_);
  const std::string q = LubmQueries()[0].sparql;
  QueryStats cold, warm;
  db.engine().ExecuteToTable(q, &cold);
  db.engine().ExecuteToTable(q, &warm);
  EXPECT_GT(cold.snapshot_materializations, 0u);
  EXPECT_GT(cold.snapshot_verified_bytes, 0u);
  EXPECT_EQ(cold.snapshot_verified_bytes, db.index().snapshot_verified_bytes());
  // Nothing spilled (no budget), so the warm run verifies nothing.
  EXPECT_EQ(warm.snapshot_materializations, 0u);
  EXPECT_EQ(warm.snapshot_verified_bytes, 0u);
  EXPECT_NE(ExplainCacheStats(cold).find("verified byte(s)"),
            std::string::npos);
}

TEST_F(SnapshotResidencyTest, BothOrientationsReadConcurrentlyWithSpills) {
  // A budget of one byte: every unpinned slice is a spill victim. Four
  // readers alternate orientations of one predicate while a fifth thread
  // spills continuously; every pin must see the full, correct rows.
  SnapshotOptions snap;
  snap.memory_budget_bytes = 1;
  Database db = Database::OpenSnapshot(path_, {}, snap);
  const TripleIndex& index = db.index();
  const uint32_t p = *db.dict().PredicateId(Term::Iri(lubm::kTakesCourse));
  const TripleIndex& heap = heap_.index();
  const size_t want_rows[2] = {heap.SoRows(p).size(), heap.OsRows(p).size()};
  uint64_t want_bits[2] = {0, 0};
  for (const auto& [id, row] : heap.SoRows(p)) want_bits[0] += row.Count();
  for (const auto& [id, row] : heap.OsRows(p)) want_bits[1] += row.Count();

  // Readers run at least kMinIters rounds and until the spiller has
  // reclaimed a slice kMinSpills times (a spill needs a moment when no
  // reader pins that slice), capped so a broken spiller fails, not hangs.
  constexpr int kReaders = 4;
  constexpr int kMinIters = 200;
  constexpr int kMaxIters = 100000;
  constexpr uint64_t kMinSpills = 4;
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::thread spiller([&] {
    while (!done.load()) index.SpillToFit();
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kMaxIters && (i < kMinIters ||
                                        index.snapshot_spills() < kMinSpills);
           ++i) {
        const int k = (t + i) % 2;
        {
          TripleIndex::SlicePin pin =
              index.Slice(p, k == 0 ? Orientation::kSO : Orientation::kOS);
          uint64_t bits = 0;
          for (const auto& [id, row] : pin->rows) bits += row.Count();
          if (pin->rows.size() != want_rows[k] || bits != want_bits[k]) {
            mismatches.fetch_add(1);
          }
        }
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& r : readers) r.join();
  done.store(true);
  spiller.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(index.snapshot_spills(), kMinSpills);
  // With every pin released, one pass drains the accounting to zero.
  index.SpillToFit();
  EXPECT_EQ(index.snapshot_resident_bytes(), 0u);
  EXPECT_EQ(index.snapshot_spills(), index.snapshot_materializations());
}

}  // namespace
}  // namespace lbr

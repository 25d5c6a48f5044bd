// Cancellation stress (DESIGN.md §9): a second thread flips the cancel
// latch at staggered delays while a query runs, across every join
// enumeration mode: unpooled, and on a 4-slot pool over a graph large
// enough that prune shards its unfolds across the workers. Each run must
// either finish cleanly with the full answer or abort kCancelled with
// ZERO rows delivered to the sink (all-or-nothing: the sink only fires
// after the last branch completes), and the engine must stay fully usable
// after an abort. Runs in the TSan CI leg to certify the cross-thread latch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bitmat/triple_index.h"
#include "core/engine.h"
#include "core/row.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/query_control.h"
#include "util/thread_pool.h"
#include "workload/lubm_gen.h"

namespace lbr {
namespace {

using testing::Canonicalize;

constexpr char kTriangleQuery[] =
    "PREFIX ub: <http://lubm/>\n"
    "SELECT * WHERE { ?st ub:memberOf ?dept . ?prof ub:worksFor ?dept . "
    "?st ub:advisor ?prof . OPTIONAL { ?prof ub:emailAddress ?e . } }";

// A star around ?st. On 24 universities its memberOf and takesCourse
// BitMats hold more populated rows than BitMat's parallel row threshold
// (4096), so the clustered semi-join on ?st unfolds them in
// ParallelFor-sharded row ranges: the prune a pooled engine runs. (The
// triangle on 3 universities never crosses the threshold.)
constexpr char kShardedQuery[] =
    "PREFIX ub: <http://lubm/>\n"
    "SELECT * WHERE { ?st ub:memberOf ?d . ?st ub:takesCourse ?c . "
    "?st ub:advisor ?p . OPTIONAL { ?p ub:emailAddress ?e . } }";

// One stress workload: a LUBM graph, a query, and its reference answer
// computed once on a clean engine.
struct StressData {
  Graph graph;
  TripleIndex index;
  const char* sparql;
  std::vector<std::string> expected;

  StressData(int universities, const char* query)
      : graph(Graph::FromTriples(GenerateLubm([universities] {
          LubmConfig cfg;
          cfg.num_universities = universities;
          return cfg;
        }()))),
        index(TripleIndex::Build(graph)),
        sparql(query) {
    Engine reference(&index, &graph.dict());
    expected = Canonicalize(reference.ExecuteToTable(sparql));
  }
};

class CancelStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    unpooled_ = new StressData(3, kTriangleQuery);
    pooled_ = new StressData(24, kShardedQuery);
    ASSERT_FALSE(unpooled_->expected.empty());
    ASSERT_FALSE(pooled_->expected.empty());
  }
  static void TearDownTestSuite() {
    delete unpooled_;
    delete pooled_;
    unpooled_ = nullptr;
    pooled_ = nullptr;
  }

  static StressData* unpooled_;
  static StressData* pooled_;
};

StressData* CancelStressTest::unpooled_ = nullptr;
StressData* CancelStressTest::pooled_ = nullptr;

// Chunks the pool handed out while `fn` ran. ParallelFor crosses the
// thread_pool.dispatch fault site once per chunk when it fans out, and
// never on its inline path. Sites count crossings only while some site is
// armed, so when nothing is, the site is armed with a trigger that never
// fires.
uint64_t DispatchedChunks(const std::function<void()>& fn) {
  FaultRegistry& registry = FaultRegistry::Instance();
  const bool arm = !registry.armed_anywhere();
  if (arm) registry.Arm("thread_pool.dispatch", "nth=4294967295");
  const uint64_t before = registry.hits(FaultSiteId::kThreadPoolDispatch);
  fn();
  const uint64_t after = registry.hits(FaultSiteId::kThreadPoolDispatch);
  if (arm) registry.Disarm(FaultSiteId::kThreadPoolDispatch);
  return after - before;
}

void StressOneConfig(const StressData& data, JoinEnumMode enum_mode,
                     ThreadPool* pool) {
  EngineOptions options;
  options.join_enum_mode = enum_mode;
  options.pool = pool;
  Engine engine(&data.index, &data.graph.dict(), options);
  ParsedQuery query = Parser::Parse(data.sparql);
  if (pool != nullptr) {
    ASSERT_GT(DispatchedChunks([&] { engine.ExecuteToTable(query); }), 0u)
        << "the pooled engine never fanned out: the stress below would not "
           "reach the sharded fold/unfold";
  }

  // Staggered delays target different phases: 0 hits the entry check,
  // small delays land mid-init / mid-prune, larger ones mid-join or after
  // a natural finish (which must then complete cleanly).
  const int delays_us[] = {0, 200, 500, 1000, 2000, 5000, 10000};
  for (int delay_us : delays_us) {
    QueryControl control;
    std::atomic<uint64_t> sinked_rows{0};
    std::thread canceller([&control, delay_us] {
      if (delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      }
      control.Cancel();
    });
    bool aborted = false;
    uint64_t returned = 0;
    try {
      returned = engine.Execute(
          query,
          [&](const RawRow&) {
            sinked_rows.fetch_add(1, std::memory_order_relaxed);
          },
          nullptr, &control);
    } catch (const QueryAbortedError& e) {
      aborted = true;
      EXPECT_EQ(e.code(), QueryTermination::kCancelled);
    }
    canceller.join();
    if (aborted) {
      // All-or-nothing: an aborted query must not have leaked partial rows.
      EXPECT_EQ(sinked_rows.load(), 0u);
    } else {
      EXPECT_EQ(returned, data.expected.size());
      EXPECT_EQ(sinked_rows.load(), data.expected.size());
    }
  }

  // The engine must be fully reusable after the aborts above.
  ResultTable after = engine.ExecuteToTable(data.sparql);
  EXPECT_EQ(Canonicalize(after), data.expected);
}

TEST_F(CancelStressTest, AllEnumModesUnpooled) {
  for (JoinEnumMode mode : {JoinEnumMode::kBlock, JoinEnumMode::kIntersect,
                            JoinEnumMode::kPerBit}) {
    SCOPED_TRACE(static_cast<int>(mode));
    StressOneConfig(*unpooled_, mode, /*pool=*/nullptr);
  }
}

TEST_F(CancelStressTest, AllEnumModesPooled) {
  ThreadPool pool(4);
  for (JoinEnumMode mode : {JoinEnumMode::kBlock, JoinEnumMode::kIntersect,
                            JoinEnumMode::kPerBit}) {
    SCOPED_TRACE(static_cast<int>(mode));
    StressOneConfig(*pooled_, mode, &pool);
  }
}

// Hammer the pooled engine with rapid-fire cancellations to chase latch /
// worker-arena races in the ParallelFor-sharded fold/unfold (this is the
// hot test for the TSan leg).
TEST_F(CancelStressTest, RapidFireCancellationOnPool) {
  ThreadPool pool(4);
  EngineOptions options;
  options.pool = &pool;
  Engine engine(&pooled_->index, &pooled_->graph.dict(), options);
  ParsedQuery query = Parser::Parse(pooled_->sparql);

  for (int round = 0; round < 30; ++round) {
    QueryControl control;
    std::thread canceller([&control, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      control.Cancel();
    });
    try {
      engine.ExecuteToTable(query, nullptr, &control);
    } catch (const QueryAbortedError&) {
    }
    canceller.join();
  }
  ResultTable after = engine.ExecuteToTable(pooled_->sparql);
  EXPECT_EQ(Canonicalize(after), pooled_->expected);
}

}  // namespace
}  // namespace lbr

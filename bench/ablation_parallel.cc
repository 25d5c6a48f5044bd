// Ablation A4: the parallel execution layer. Two sweeps over 1/2/4/8
// threads:
//
//  1. Prune+fold: PruneTriples (Alg 3.2) on the LUBM
//     advisor/teacherOf/takesCourse triangle — the prune-heavy cyclic
//     query shape — with the fold/unfold row work sharded across a
//     ThreadPool. Each timed iteration prunes fresh CoW snapshots of the
//     loaded TP BitMats, so the fixpoint does identical work at every
//     thread count.
//
//  2. Shared-cache batch: Engine::ExecuteBatch fanning the LUBM query set
//     (replicated) across the pool, every worker engine sharing one
//     striped TpCache — the server deployment shape.
//
// With LBR_BENCH_JSON=<path> (or argv[1]) results are written as
// google-benchmark-style JSON (the same schema as micro_bitops /
// ablation_tp_cache) so CI archives them with the bench-json artifact.
// The context records hardware_threads: speedups are only meaningful when
// the machine actually has the cores (a 1-core container shows ~1x).

#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/prune.h"
#include "core/selectivity.h"
#include "util/thread_pool.h"
#include "workload/lubm_gen.h"

namespace lbr::bench {
namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8};

struct SweepResult {
  int threads = 0;
  double sec = 0;
  double speedup_vs_1t = 0;
  uint64_t cache_hits = 0;        // batch sweep only
  uint64_t cache_contention = 0;  // batch sweep only
};

// --- Sweep 1: PruneTriples on the cyclic triangle. --------------------------

struct PruneFixture {
  Gosn gosn;
  Goj goj;
  JvarOrder order;
  std::vector<TpState> base_states;
  uint32_t num_common = 0;
};

PruneFixture BuildPruneFixture(const Graph& graph, const TripleIndex& index) {
  // The Q4/Q5 triangle: every TP holds two jvars, so the fixpoint keeps
  // folding and unfolding the three biggest student-centric slices.
  ParsedQuery q = Parser::Parse(
      "PREFIX ub: <http://lubm/> SELECT * WHERE {"
      "  ?y ub:advisor ?x . ?x ub:teacherOf ?z . ?y ub:takesCourse ?z . }");
  PruneFixture fx{Gosn::Build(*q.body), Goj(), JvarOrder(), {}, 0};
  const std::vector<TriplePattern>& tps = fx.gosn.tps();
  fx.goj = Goj::Build(tps);
  std::vector<uint64_t> cards(tps.size());
  for (size_t i = 0; i < tps.size(); ++i) {
    cards[i] = EstimateTpCardinality(index, graph.dict(), tps[i]);
  }
  fx.order = GetJvarOrder(fx.gosn, fx.goj, cards);
  fx.num_common = index.num_common();

  fx.base_states.resize(tps.size());
  for (size_t i = 0; i < tps.size(); ++i) {
    TpState& st = fx.base_states[i];
    st.tp = tps[i];
    st.tp_id = static_cast<int>(i);
    st.sn_id = fx.gosn.SupernodeOf(st.tp_id);
    st.mat = LoadTpBitMat(index, graph.dict(), tps[i], true);
    // Warm the fold memo so every thread count starts from the same
    // memoized master folds (snapshots share the stored memo words).
    st.mat.bm.MemoizeColFold();
  }
  return fx;
}

std::vector<SweepResult> RunPruneSweep(const PruneFixture& fx, int runs) {
  std::vector<SweepResult> results;
  for (int threads : kThreadSweep) {
    ThreadPool pool(threads);
    ExecContext ctx;
    SweepResult r;
    r.threads = threads;
    r.sec = TimeAvg(runs, [&] {
      // CoW snapshots: O(populated rows) handle bumps, so copy cost is
      // noise next to the fixpoint and identical across thread counts.
      std::vector<TpState> states = fx.base_states;
      PruneTriples(fx.order, fx.gosn, fx.goj, fx.num_common, &states, &ctx,
                   &pool);
    });
    r.speedup_vs_1t = results.empty() ? 1.0 : results.front().sec / r.sec;
    results.push_back(r);
  }
  return results;
}

// --- Sweep 2: shared-cache batch execution. ---------------------------------

std::vector<SweepResult> RunBatchSweep(const Graph& graph,
                                       const TripleIndex& index, int runs,
                                       int replicas) {
  std::vector<std::string> queries;
  for (int rep = 0; rep < replicas; ++rep) {
    for (const BenchQuery& q : LubmQueries()) queries.push_back(q.sparql);
  }

  std::vector<SweepResult> results;
  for (int threads : kThreadSweep) {
    ThreadPool pool(threads);
    BatchOptions options;
    options.engine.enable_tp_cache = true;
    // Unbounded budget: eviction noise would corrupt the scaling numbers
    // at high LBR_SCALE.
    options.engine.tp_cache_budget = ~uint64_t{0};
    options.pool = threads > 1 ? &pool : nullptr;
    options.shared_cache = std::make_shared<TpCache>(
        options.engine.tp_cache_budget, options.engine.tp_cache_shards);

    SweepResult r;
    r.threads = threads;
    r.sec = TimeAvg(runs, [&] {
      std::vector<BatchResult> batch =
          Engine::ExecuteBatch(index, graph.dict(), queries, options);
      for (const BatchResult& br : batch) {
        if (!br.ok()) {
          std::cerr << "batch query failed: " << br.error << "\n";
          std::exit(1);
        }
      }
    });
    r.speedup_vs_1t = results.empty() ? 1.0 : results.front().sec / r.sec;
    r.cache_hits = options.shared_cache->hits();
    r.cache_contention = options.shared_cache->lock_contention();
    results.push_back(r);
  }
  return results;
}

// --- Reporting. -------------------------------------------------------------

void PrintSweep(const std::string& title,
                const std::vector<SweepResult>& results, bool with_cache) {
  std::vector<std::string> header = {"threads", "avg time", "speedup vs 1t"};
  if (with_cache) {
    header.push_back("cache hits");
    header.push_back("contended locks");
  }
  TablePrinter table(header);
  for (const SweepResult& r : results) {
    std::vector<std::string> row = {
        std::to_string(r.threads), TablePrinter::Seconds(r.sec),
        TablePrinter::Count(static_cast<uint64_t>(r.speedup_vs_1t * 100)) +
            "%"};
    if (with_cache) {
      row.push_back(TablePrinter::Count(r.cache_hits));
      row.push_back(TablePrinter::Count(r.cache_contention));
    }
    table.AddRow(row);
  }
  table.Print(title);
}

void WriteJson(const std::vector<SweepResult>& prune,
               const std::vector<SweepResult>& batch,
               const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  auto ns = [](double sec) { return sec * 1e9; };
  out << "{\n  " << JsonContext("ablation_parallel", "LUBM-like")
      << ",\n  \"benchmarks\": [\n";
  bool first = true;
  auto emit_family = [&](const char* family,
                         const std::vector<SweepResult>& results) {
    double speedup_4t = 0;
    for (const SweepResult& r : results) {
      if (!first) out << ",\n";
      first = false;
      out << "    {\"name\": \"" << family << "/threads:" << r.threads
          << "\", \"run_type\": \"iteration\", \"real_time\": " << ns(r.sec)
          << ", \"cpu_time\": " << ns(r.sec)
          << ", \"time_unit\": \"ns\", \"threads\": " << r.threads
          << ", \"speedup_vs_1thread\": " << r.speedup_vs_1t << "}";
      if (r.threads == 4) speedup_4t = r.speedup_vs_1t;
    }
    out << ",\n    {\"name\": \"" << family
        << "/speedup_4t_vs_1t\", \"run_type\": \"aggregate\", "
        << "\"real_time\": " << speedup_4t << ", \"cpu_time\": " << speedup_4t
        << ", \"time_unit\": \"x\"}";
  };
  // `first` is false after the first family, so the second family's first
  // entry emits its own separator.
  emit_family("ParallelPruneFold", prune);
  emit_family("SharedCacheBatch", batch);
  out << "\n  ]\n}\n";
  std::cout << "parallel-sweep JSON written to " << path << "\n";
}

void Run(const char* json_path_arg) {
  double scale = ScaleFromEnv();
  int runs = RunsFromEnv();

  // Prune sweep wants big matrices (the row sharding needs rows to chew
  // on); the batch sweep reuses the cache-ablation scale.
  LubmConfig prune_cfg;
  prune_cfg.num_universities = static_cast<uint32_t>(100 * scale);
  Graph prune_graph = Graph::FromTriples(GenerateLubm(prune_cfg));
  TripleIndex prune_index = TripleIndex::Build(prune_graph);
  PrintDatasetHeader("LUBM-like (parallel prune+fold)", prune_graph);

  PruneFixture fx = BuildPruneFixture(prune_graph, prune_index);
  std::vector<SweepResult> prune = RunPruneSweep(fx, runs);
  PrintSweep("Ablation A4a: PruneTriples thread sweep (triangle query)",
             prune, /*with_cache=*/false);

  LubmConfig batch_cfg;
  batch_cfg.num_universities = static_cast<uint32_t>(40 * scale);
  Graph batch_graph = Graph::FromTriples(GenerateLubm(batch_cfg));
  TripleIndex batch_index = TripleIndex::Build(batch_graph);
  PrintDatasetHeader("LUBM-like (shared-cache batch)", batch_graph);

  std::vector<SweepResult> batch =
      RunBatchSweep(batch_graph, batch_index, runs, /*replicas=*/4);
  PrintSweep("Ablation A4b: shared-cache batch thread sweep", batch,
             /*with_cache=*/true);

  const char* env_path = std::getenv("LBR_BENCH_JSON");
  std::string json_path = json_path_arg != nullptr ? json_path_arg
                          : env_path != nullptr    ? env_path
                                                   : "";
  if (!json_path.empty()) WriteJson(prune, batch, json_path);
}

}  // namespace
}  // namespace lbr::bench

int main(int argc, char** argv) {
  lbr::bench::Run(argc > 1 ? argv[1] : nullptr);
  return 0;
}

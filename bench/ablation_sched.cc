// Ablation A5: the semi-join wave scheduler (DESIGN.md §7). For each
// prune-heavy LUBM query shape, PruneTriples runs under both scheduling
// modes:
//
//   serial  — Algorithm 3.2's fully ordered sequence (no pool);
//   waves   — the conflict-scheduled task DAG, at 1/2/4 threads.
//
// Each timed iteration prunes fresh CoW snapshots of the loaded TP
// BitMats, so every mode does identical logical work; the driver also
// asserts the scheduled result is bit-identical to the serial one.
//
// JSON (LBR_BENCH_JSON=<path> or argv[1]): the 1-thread entries are
// `run_type: iteration` and GATED by bench/check_regression.py against
// bench/baselines/ablation_sched.json — waves at 1 thread must stay ~1.0x
// of serial, so graph-compile/wave overhead regressions trip the gate on
// any runner class. The multi-thread sweep entries are `run_type:
// aggregate` (archived, never gated): like ablation_parallel, their
// speedups only mean something on multi-core runners — the context records
// hardware_threads/nproc_online for that judgment.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/prune.h"
#include "core/selectivity.h"
#include "util/thread_pool.h"
#include "workload/lubm_gen.h"

namespace lbr::bench {
namespace {

constexpr int kWaveThreadSweep[] = {1, 2, 4};

struct SchedCase {
  const char* id;
  const char* sparql;
};

// Multi-master shapes: one master BGP plus OPTIONAL slaves sharing its
// jvars, so each pass compiles to one wide wave of independent semi-joins
// (distinct written slaves, one shared memo-warmed master). The triangle is
// the adversarial case — every task conflicts, waves degenerate to the
// serial order and only the scheduling overhead remains.
const SchedCase kCases[] = {
    {"star4",
     "PREFIX ub: <http://lubm/> SELECT * WHERE {"
     "  ?x ub:worksFor ?d ."
     "  OPTIONAL { ?x ub:teacherOf ?c1 . }"
     "  OPTIONAL { ?x ub:doctoralDegreeFrom ?u . }"
     "  OPTIONAL { ?x ub:researchInterest ?r . }"
     "  OPTIONAL { ?y ub:advisor ?x . } }"},
    {"twomaster",
     "PREFIX ub: <http://lubm/> SELECT * WHERE {"
     "  ?x ub:advisor ?p ."
     "  OPTIONAL { ?x ub:takesCourse ?c . }"
     "  OPTIONAL { ?x ub:memberOf ?d . }"
     "  OPTIONAL { ?p ub:teacherOf ?c2 . }"
     "  OPTIONAL { ?p ub:researchInterest ?r . } }"},
    {"triangle",
     "PREFIX ub: <http://lubm/> SELECT * WHERE {"
     "  ?y ub:advisor ?x . ?x ub:teacherOf ?z . ?y ub:takesCourse ?z . }"},
};

struct SchedFixture {
  Gosn gosn;
  Goj goj;
  JvarOrder order;
  std::vector<TpState> base_states;
  uint32_t num_common = 0;
};

SchedFixture BuildFixture(const Graph& graph, const TripleIndex& index,
                          const std::string& sparql) {
  ParsedQuery q = Parser::Parse(sparql);
  SchedFixture fx{Gosn::Build(*q.body), Goj(), JvarOrder(), {}, 0};
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
    // Warm the fold memo so every mode starts from the same memoized
    // master folds (snapshots share the stored memo words).
    st.mat.bm.MemoizeColFold();
  }
  return fx;
}

std::vector<TpState> PruneOnce(const SchedFixture& fx, SemiJoinSched sched,
                               ThreadPool* pool, ExecContext* ctx) {
  // CoW snapshots: O(populated rows) handle bumps, identical across modes.
  std::vector<TpState> states = fx.base_states;
  PruneTriples(fx.order, fx.gosn, fx.goj, fx.num_common, &states, ctx, pool,
               sched);
  return states;
}

struct CaseResult {
  std::string id;
  double serial_1t = 0;                  // gated
  double waves_1t = 0;                   // gated
  std::vector<double> waves_sweep;       // per kWaveThreadSweep entry
};

/// Median of max(runs, 3) timed samples after one warm-up. The 1-thread
/// entries feed the regression gate, and CI times them at LBR_RUNS=1 —
/// an averaged cold-start outlier there could eat most of the gate's 25%
/// headroom, while the median discards it.
template <typename Fn>
double TimeMedian(int runs, Fn&& fn) {
  int samples = std::max(runs, 3);
  fn();  // warm-up
  std::vector<double> secs;
  secs.reserve(samples);
  for (int i = 0; i < samples; ++i) {
    Stopwatch w;
    fn();
    secs.push_back(w.Seconds());
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

CaseResult RunCase(const Graph& graph, const TripleIndex& index,
                   const SchedCase& c, int runs) {
  SchedFixture fx = BuildFixture(graph, index, c.sparql);
  ExecContext ctx;
  CaseResult r;
  r.id = c.id;

  // Bit-identity guard: the scheduler must be an execution detail.
  {
    std::vector<TpState> serial =
        PruneOnce(fx, SemiJoinSched::kSerial, nullptr, &ctx);
    ThreadPool pool(4);
    std::vector<TpState> waves =
        PruneOnce(fx, SemiJoinSched::kWaves, &pool, &ctx);
    for (size_t i = 0; i < serial.size(); ++i) {
      if (!(waves[i].mat.bm == serial[i].mat.bm)) {
        std::cerr << "BUG: scheduled prune diverged from serial on " << c.id
                  << " tp" << i << "\n";
        std::exit(1);
      }
    }
  }

  r.serial_1t = TimeMedian(runs, [&] {
    PruneOnce(fx, SemiJoinSched::kSerial, nullptr, &ctx);
  });
  for (int threads : kWaveThreadSweep) {
    ThreadPool pool(threads);
    double sec = TimeMedian(runs, [&] {
      PruneOnce(fx, SemiJoinSched::kWaves, &pool, &ctx);
    });
    if (threads == 1) r.waves_1t = sec;
    r.waves_sweep.push_back(sec);
  }
  return r;
}

void PrintResults(const std::vector<CaseResult>& results) {
  std::vector<std::string> header = {"query", "serial 1t", "waves 1t",
                                     "overhead 1t"};
  for (int threads : kWaveThreadSweep) {
    header.push_back("waves " + std::to_string(threads) + "t speedup");
  }
  TablePrinter table(header);
  for (const CaseResult& r : results) {
    std::vector<std::string> row = {
        r.id, TablePrinter::Seconds(r.serial_1t),
        TablePrinter::Seconds(r.waves_1t),
        TablePrinter::Count(
            static_cast<uint64_t>(r.waves_1t / r.serial_1t * 100)) + "%"};
    for (double sec : r.waves_sweep) {
      row.push_back(TablePrinter::Count(static_cast<uint64_t>(
                        r.serial_1t / sec * 100)) + "%");
    }
    table.AddRow(row);
  }
  table.Print("Ablation A5: semi-join scheduler (serial vs waves)");
}

void WriteJson(const std::vector<CaseResult>& results,
               const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  auto ns = [](double sec) { return sec * 1e9; };
  out << "{\n  " << JsonContext("ablation_sched", "LUBM-like")
      << ",\n  \"benchmarks\": [\n";
  bool first = true;
  double log_overhead_sum = 0, log_speedup4_sum = 0;
  for (const CaseResult& r : results) {
    auto emit = [&](const std::string& name, const char* run_type,
                    double sec) {
      if (!first) out << ",\n";
      first = false;
      out << "    {\"name\": \"PruneSched/" << r.id << "/" << name
          << "\", \"run_type\": \"" << run_type
          << "\", \"real_time\": " << ns(sec) << ", \"cpu_time\": " << ns(sec)
          << ", \"time_unit\": \"ns\"}";
    };
    // Gated: both modes at 1 thread — hardware-comparable on any runner.
    emit("serial/threads:1", "iteration", r.serial_1t);
    emit("waves/threads:1", "iteration", r.waves_1t);
    // Archived only (aggregate => skipped by the gate): the thread sweep,
    // meaningful on multi-core hardware.
    for (size_t i = 0; i < r.waves_sweep.size(); ++i) {
      if (kWaveThreadSweep[i] == 1) continue;
      emit("waves/threads:" + std::to_string(kWaveThreadSweep[i]),
           "aggregate", r.waves_sweep[i]);
    }
    log_overhead_sum += std::log(r.waves_1t / r.serial_1t);
    double waves_4t = r.waves_sweep.back();
    log_speedup4_sum += std::log(r.serial_1t / waves_4t);
  }
  double n = static_cast<double>(results.size());
  double overhead = std::exp(log_overhead_sum / n);
  double speedup4 = std::exp(log_speedup4_sum / n);
  out << ",\n    {\"name\": \"PruneSched/waves_overhead_geomean_1t\", "
      << "\"run_type\": \"aggregate\", \"real_time\": " << overhead
      << ", \"cpu_time\": " << overhead << ", \"time_unit\": \"x\"}";
  out << ",\n    {\"name\": \"PruneSched/waves_speedup_geomean_4t\", "
      << "\"run_type\": \"aggregate\", \"real_time\": " << speedup4
      << ", \"cpu_time\": " << speedup4 << ", \"time_unit\": \"x\"}\n";
  out << "  ]\n}\n";
  std::cout << "sched JSON written to " << path << " (1t waves overhead "
            << overhead << "x, 4t waves speedup " << speedup4 << "x)\n";
}

void Run(const char* json_path_arg) {
  double scale = ScaleFromEnv();
  int runs = RunsFromEnv();

  LubmConfig cfg;
  cfg.num_universities = static_cast<uint32_t>(80 * scale);
  Graph graph = Graph::FromTriples(GenerateLubm(cfg));
  TripleIndex index = TripleIndex::Build(graph);
  PrintDatasetHeader("LUBM-like (semi-join scheduler)", graph);

  std::vector<CaseResult> results;
  for (const SchedCase& c : kCases) {
    results.push_back(RunCase(graph, index, c, runs));
  }
  PrintResults(results);

  const char* env_path = std::getenv("LBR_BENCH_JSON");
  std::string json_path = json_path_arg != nullptr ? json_path_arg
                          : env_path != nullptr    ? env_path
                                                   : "";
  if (!json_path.empty()) WriteJson(results, json_path);
}

}  // namespace
}  // namespace lbr::bench

int main(int argc, char** argv) {
  lbr::bench::Run(argc > 1 ? argv[1] : nullptr);
  return 0;
}

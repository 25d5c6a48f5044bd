// The LBR pipeline benchmark: one seeded, fixed op sequence per workload,
// served through the engine's public entry points, with end-to-end metrics
// from an untraced run and per-layer self times from a traced run.
//
//   lbrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--ops <n>] [--scale <f>] [--workdir <dir>]
//
// Workloads (README.md says why each exists):
//   lubm_lowsel     LUBM heap index, TP cache off, one client, E.1 Q1-Q3 plus
//                   a best-match-heavy class (Q4 with the department unbound).
//                   Not in BENCHMARK.json: its runs follow the host's speed
//                   too closely to gate on (README.md, "Noise").
//   lubm_selective  LUBM heap index, E.1 Q4-Q6 shapes with a seeded random
//                   department per op, sent as text; two clients draining
//                   30-query Database::ExecuteBatch calls on a 2-slot pool,
//                   sharing the TP cache and the plan cache.
//   dbpedia_budget  DBpedia x2 served from Database::OpenSnapshot with a
//                   memory budget of a quarter of the query set's working
//                   set, TP cache on, one client, E.3 Q1-Q6.
//
// Query classes are interleaved round-robin (a seeded permutation per
// round), so host drift hits every class alike. --ops replaces the time
// window with a fixed op count (the determinism test uses it); --scale
// shrinks the datasets.
//
// The last stdout line is the result object
//   {"correct", "attempted", "failed", "metrics"}
// and the line before it a {"context": ...} object with the drift probe,
// the share of slow ops the tail averages, raw layer counts and the trace
// file path.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baseline/pairwise_engine.h"
#include "bitmat/tp_loader.h"
#include "core/bestmatch.h"
#include "core/database.h"
#include "core/global_ids.h"
#include "core/multiway_join.h"
#include "core/prune.h"
#include "sparql/parser.h"
#include "sparql/plan_shape.h"
#include "util/thread_pool.h"
#include "workload/dbpedia_gen.h"
#include "workload/lubm_gen.h"
#include "workload/query_sets.h"

namespace lbrbench {
namespace {

using lbr::BatchResult;
using lbr::CompiledPlan;
using lbr::Database;
using lbr::EngineOptions;
using lbr::QueryStats;
using lbr::RawRow;
using lbr::ResultTable;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Arguments ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t ops = 0;  // > 0: fixed op count instead of a time window
  double scale = 1.0;
  std::string workdir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--ops") {
      a.ops = std::stoull(v);
    } else if (flag == "--scale") {
      a.scale = std::stod(v);
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0 && a.ops == 0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  if (a.scale <= 0) throw std::invalid_argument("--scale must be positive");
  return a;
}

// --- Seeded inputs ---------------------------------------------------------

struct SplitMix {
  uint64_t s;
  uint64_t Next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

constexpr char kDeptSlot[] = "{DEPT}";

// Replaces the first <http://lubm/Department...> IRI in `text`.
std::string ReplaceDepartment(const std::string& text,
                              const std::string& replacement) {
  size_t b = text.find("<http://lubm/Department");
  if (b == std::string::npos) throw std::logic_error("no department IRI");
  size_t e = text.find('>', b);
  return text.substr(0, b) + replacement + text.substr(e + 1);
}

std::string Substitute(std::string text, const std::string& iri) {
  size_t at = text.find(kDeptSlot);
  if (at != std::string::npos) {
    text.replace(at, sizeof(kDeptSlot) - 1, "<" + iri + ">");
  }
  return text;
}

// Dataset sizes at --scale 1: LUBM 80 universities (~136K triples) and the
// DBpedia generator x2 (~132K triples). A larger working set is more exposed
// to other tenants' use of the shared last-level cache, the largest noise
// source measured (README.md, "Noise"); at this size init, prune and join
// still dominate lubm_lowsel.
constexpr double kLubmUniversities = 80;
constexpr double kDbpediaMultiplier = 2;

struct QueryClass {
  std::string name;
  std::string text;  // may hold kDeptSlot
};

struct Workload {
  std::string name;
  bool lubm = true;      // dataset: LUBM, else DBpedia
  bool snapshot = false;  // serve from a budgeted snapshot, else the heap
  bool tp_cache = false;
  int clients = 1;
  int batch = 1;  // ops per serving step: > 1 serves them via ExecuteBatch
  std::vector<QueryClass> classes;
};

Workload MakeWorkload(const std::string& name) {
  std::vector<lbr::BenchQuery> lubm = lbr::LubmQueries();
  Workload w;
  w.name = name;
  if (name == "lubm_lowsel") {
    for (int i = 0; i < 3; ++i) w.classes.push_back({lubm[i].id, lubm[i].sparql});
    // Q4 with the department left unbound: every op needs nullification
    // and best-match.
    w.classes.push_back({"Q4_any_dept", ReplaceDepartment(lubm[3].sparql, "?d")});
  } else if (name == "lubm_selective") {
    w.tp_cache = true;
    w.clients = 2;
    for (int i = 3; i < 6; ++i) {
      w.classes.push_back({lubm[i].id, ReplaceDepartment(lubm[i].sparql, kDeptSlot)});
    }
    // Five class rounds per client per batch: one dispatch and one wake-up
    // per 30 ops. With one op per client per batch those handoffs took as
    // long as an op and set qps by how fast the host woke idle vCPUs
    // (README.md, "Noise").
    w.batch = w.clients * static_cast<int>(w.classes.size()) * 5;
  } else if (name == "dbpedia_budget") {
    w.lubm = false;
    w.snapshot = true;
    w.tp_cache = true;
    for (const lbr::BenchQuery& q : lbr::DbpediaQueries()) {
      w.classes.push_back({q.id, q.sparql});
    }
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

// The op sequence: classes round-robin, each round a seeded permutation;
// parameterized classes draw a seeded department per op.
class OpSequence {
 public:
  OpSequence(const Workload& w, const std::vector<std::string>& depts,
             uint64_t seed)
      : w_(w), depts_(depts), rng_{seed}, order_(w.classes.size()) {}

  std::string Next(int* cls) {
    size_t k = order_.size();
    if (pos_ % k == 0) {
      for (size_t i = 0; i < k; ++i) order_[i] = static_cast<int>(i);
      for (size_t i = k - 1; i > 0; --i) {
        std::swap(order_[i], order_[rng_.Below(i + 1)]);
      }
    }
    *cls = order_[pos_++ % k];
    const std::string& t = w_.classes[*cls].text;
    std::string text =
        t.find(kDeptSlot) == std::string::npos
            ? t
            : Substitute(t, depts_[rng_.Below(depts_.size())]);
    for (unsigned char c : text) hash_ = (hash_ ^ c) * 1099511628211ull;
    return text;
  }
  uint64_t hash() const { return hash_; }

 private:
  const Workload& w_;
  const std::vector<std::string>& depts_;
  SplitMix rng_;
  std::vector<int> order_;
  size_t pos_ = 0;
  uint64_t hash_ = 1469598103934665603ull;
};

// --- Measurement helpers ---------------------------------------------------

volatile uint64_t g_probe_sink = 0;

// Host-drift probe: sort and stride over a seeded 32 MiB buffer. Uses no
// engine code; reported in the context only, never folded into a metric.
double DriftProbeSeconds(uint64_t seed) {
  std::vector<uint64_t> buf(4u << 20);
  SplitMix rng{seed};
  for (uint64_t& v : buf) v = rng.Next();
  Clock::time_point t0 = Clock::now();
  std::sort(buf.begin(), buf.end());
  uint64_t acc = 0;
  for (size_t i = 0; i < buf.size(); ++i) acc += buf[(i * 4099) % buf.size()];
  double s = Since(t0);
  g_probe_sink = acc;
  return s;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The share of a class's slowest ops that the tail averages, for classes
// of at least `n` samples: a tenth when that holds at least 10 samples,
// else half. Far percentiles measure the shared host's stalls more than
// the program: p99.9 over all ops of lubm_selective spread 0.58 across
// five runs (README.md, "Noise").
std::pair<double, const char*> TailShare(size_t n) {
  if (n >= 100) return {0.1, "slowest 10%"};
  return {0.5, "slowest 50%"};
}

// The mean of the slowest `share` of the samples in `v`.
double TailMean(std::vector<double> v, double share) {
  std::sort(v.begin(), v.end(), std::greater<double>());
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(share * static_cast<double>(v.size()))));
  return std::accumulate(v.begin(), v.begin() + k, 0.0) / static_cast<double>(k);
}

// The sample of `v` with a share `p` of the samples at or below it.
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx > 0 ? idx - 1 : 0)];
}

// A "Vm...:" field of /proc/self/status in MiB, or -1 when absent.
double StatusMiB(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::stod(line.substr(n + 1)) / 1024.0;  // the kernel reports kB
    }
  }
  return -1;
}

// The peak RSS since the process started or since the last ResetPeakRss.
double PeakRssMiB() {
  double hwm = StatusMiB("VmHWM");
  if (hwm >= 0) return hwm;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Resets the peak RSS to the current RSS; false where the kernel refuses.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

uint64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

// --- Correctness -----------------------------------------------------------

// Canonical multiset of a result table: each row rendered with its columns
// in variable-name order, rows sorted.
std::vector<std::string> Canonical(const ResultTable& t) {
  std::vector<size_t> cols(t.var_names.size());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  std::sort(cols.begin(), cols.end(),
            [&t](size_t a, size_t b) { return t.var_names[a] < t.var_names[b]; });
  std::vector<std::string> out;
  out.reserve(t.rows.size());
  for (const auto& row : t.rows) {
    std::string s;
    for (size_t c : cols) {
      s += t.var_names[c] + "=" + (row[c] ? row[c]->ToString() : "NULL") + "\t";
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- The traced run's replay -----------------------------------------------

struct ReplayOut {
  double join_s = 0;
  double bestmatch_s = 0;
  double delivery_s = 0;
  uint64_t join_rows = 0;
  uint64_t bestmatch_in = 0;
  uint64_t bestmatch_out = 0;
  uint64_t rows = 0;
};

// Splits an op's post-prune time by replaying it outside the engine through
// the layers' public functions, the way bench/ablation_join does: the
// engine's own compiled plan (from a replay engine's private plan cache,
// compiled from the same warm texts), masked TP loads, prune_triples, then
// timed MultiwayJoin::Run, BestMatch, and projection + decode to a
// ResultTable.
class Replayer {
 public:
  Replayer(const Database& db, EngineOptions options)
      : db_(db),
        engine_(&db.index(), &db.dict(), PlanOnly(options)),
        ids_(lbr::GlobalIds::FromDictionary(db.dict())) {}

  void Warm(const std::string& text) {
    engine_.ExecuteToTable(text);
    std::string key = lbr::CanonicalizeQuery(text, lbr::ShapeDetail::kKeyOnly).key;
    plans_[key] = engine_.shared_plan_cache()->GetOrCompile(
        key, []() -> std::shared_ptr<CompiledPlan> {
          throw std::logic_error("replay plan evicted");
        });
  }

  ReplayOut Run(const std::string& text) {
    lbr::QueryShape shape =
        lbr::CanonicalizeQuery(text, lbr::ShapeDetail::kKeyOnly);
    if (plans_.count(shape.key) == 0) Warm(text);
    const CompiledPlan& plan = *plans_.at(shape.key);
    ReplayOut out;
    for (const lbr::BranchPlan& branch : plan.branches) {
      RunBranch(plan, branch, shape.constants, &out);
    }
    return out;
  }

 private:
  static EngineOptions PlanOnly(EngineOptions o) {
    o.enable_tp_cache = false;
    o.plan_cache = nullptr;  // private cache: replay lookups stay off the served one
    return o;
  }

  void RunBranch(const CompiledPlan& plan, const lbr::BranchPlan& branch,
                 const std::vector<lbr::Term>& constants, ReplayOut* out) {
    const lbr::Gosn& gosn = branch.gosn;
    std::vector<lbr::TriplePattern> tps = gosn.tps();
    for (const lbr::TpSlotSite& site : branch.tp_slot_sites) {
      if (site.slot >= constants.size()) continue;
      lbr::TriplePattern& tp = tps[static_cast<size_t>(site.tp)];
      (site.field == 0 ? tp.s : site.field == 1 ? tp.p : tp.o).term =
          constants[site.slot];
    }
    std::vector<lbr::ScopedFilter> filters = gosn.filters();
    for (lbr::ScopedFilter& f : filters) {
      lbr::RewriteScopedFilterTerms(&f, [&constants](lbr::Term* term) {
        size_t slot = 0;
        if (lbr::IsShapeParam(*term, &slot) && slot < constants.size()) {
          *term = constants[slot];
        }
      });
    }
    const lbr::TripleIndex& index = db_.index();

    // init + prune (untimed here: QueryStats times them in the engine).
    // Loads follow the plan's load order with the engine's active-pruning
    // masks (folds of already-loaded master/peer TPs), so the join below
    // sees the same BitMats the engine's join saw.
    std::vector<lbr::TpState> states(tps.size());
    std::vector<int> loaded;
    bool empty_master = false;
    for (int i : branch.load_order) {
      lbr::TpState& st = states[static_cast<size_t>(i)];
      st.tp = tps[static_cast<size_t>(i)];
      st.tp_id = i;
      st.sn_id = gosn.SupernodeOf(i);
      const bool subject_rows = branch.prefer_subject_rows[i];
      st.mat = lbr::LoadTpBitMat(index, db_.dict(), st.tp, subject_rows, {}, &ctx_);
      lbr::Bitvector masks[2];
      lbr::ActiveMasks active;
      if (engine_.options().enable_active_pruning) {
        const std::pair<const std::string*, lbr::DomainKind> dims[2] = {
            {&st.mat.row_var, st.mat.row_kind}, {&st.mat.col_var, st.mat.col_kind}};
        const uint32_t sizes[2] = {st.mat.bm.num_rows(), st.mat.bm.num_cols()};
        for (int d = 0; d < 2; ++d) {
          const auto& [var, kind] = dims[d];
          if (var->empty() || kind == lbr::DomainKind::kPredicate) continue;
          bool restricted = false;
          for (int j : loaded) {
            const lbr::TpState& prev = states[static_cast<size_t>(j)];
            if (!prev.mat.HasVar(*var) ||
                !(gosn.TpIsMasterOf(j, i) || gosn.TpIsPeer(j, i))) {
              continue;
            }
            lbr::Bitvector fold, aligned;
            prev.mat.bm.FoldInto(prev.mat.DimOf(*var), &fold, &ctx_);
            lbr::AlignMaskInto(fold, prev.mat.KindOf(*var), kind,
                               index.num_common(), sizes[d], &aligned);
            if (restricted) {
              masks[d].And(aligned);
            } else {
              masks[d].AssignResized(aligned, sizes[d]);
              restricted = true;
            }
          }
          if (restricted) (d == 0 ? active.row_mask : active.col_mask) = &masks[d];
        }
      }
      if (active.row_mask != nullptr || active.col_mask != nullptr) {
        st.mat = lbr::LoadTpBitMat(index, db_.dict(), st.tp, subject_rows,
                                   active, &ctx_);
      }
      loaded.push_back(i);
      if (st.mat.bm.IsEmpty() && gosn.IsAbsoluteMaster(st.sn_id)) {
        empty_master = true;
        break;
      }
    }
    if (!empty_master) {
      lbr::PruneTriples(branch.order, gosn, branch.goj, index.num_common(),
                        &states, &ctx_);
      for (const lbr::TpState& st : states) {
        if (st.mat.bm.IsEmpty() && gosn.IsAbsoluteMaster(st.sn_id)) {
          empty_master = true;
        }
      }
    }

    // join: the engine's stps order, nullification flag and phantom dedup.
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<lbr::MultiwayJoin> join;
    std::vector<RawRow> rows;
    bool any_nulled = false;
    if (!empty_master) {
      std::vector<int> stps(states.size());
      for (size_t i = 0; i < stps.size(); ++i) stps[i] = static_cast<int>(i);
      std::stable_sort(stps.begin(), stps.end(), [&](int a, int b) {
        bool am_a = gosn.IsAbsoluteMaster(states[a].sn_id);
        bool am_b = gosn.IsAbsoluteMaster(states[b].sn_id);
        if (am_a != am_b) return am_a;
        if (!am_a) {
          if (gosn.TpIsMasterOf(a, b)) return true;
          if (gosn.TpIsMasterOf(b, a)) return false;
          int da = gosn.MasterDepth(states[a].sn_id);
          int db = gosn.MasterDepth(states[b].sn_id);
          if (da != db) return da < db;
        }
        return states[a].CurrentCount() < states[b].CurrentCount();
      });
      lbr::MultiwayJoin::Options jo;
      jo.nullification = branch.nb_reqd;
      jo.filters = std::move(filters);
      jo.enum_mode = engine_.options().join_enum_mode;
      join = std::make_unique<lbr::MultiwayJoin>(gosn, ids_, db_.dict(),
                                                 &states, stps, jo);
      std::unordered_set<RawRow, lbr::RawRowHash> seen_nulled;
      join->Run(
          [&](const RawRow& row, bool nulled) {
            if (nulled) {
              any_nulled = true;
              if (!seen_nulled.insert(row).second) return;
            }
            rows.push_back(row);
          },
          &ctx_);
    }
    out->join_s += Since(t0);
    out->join_rows += rows.size();

    // best-match: when bypassed the span covers only the decision.
    t0 = Clock::now();
    if (join != nullptr &&
        (branch.nb_reqd || join->nulling_applied() || any_nulled)) {
      out->bestmatch_in += rows.size();
      rows = lbr::BestMatch(std::move(rows), join->MasterColumns(), &ctx_);
      out->bestmatch_out += rows.size();
    }
    out->bestmatch_s += Since(t0);

    // delivery: projection onto the SELECT list + decode to a ResultTable.
    t0 = Clock::now();
    ResultTable table;
    if (join != nullptr) {
      std::vector<int> col(plan.projection.size());
      for (size_t i = 0; i < col.size(); ++i) {
        col[i] = join->VarIndex(plan.projection[i]);
      }
      table.rows.reserve(rows.size());
      for (const RawRow& row : rows) {
        std::vector<std::optional<lbr::Term>> decoded(col.size());
        for (size_t i = 0; i < col.size(); ++i) {
          if (col[i] >= 0 && row[col[i]] != lbr::kNullBinding) {
            decoded[i] = ids_.Decode(db_.dict(), row[col[i]]);
          }
        }
        table.rows.push_back(std::move(decoded));
      }
    }
    out->delivery_s += Since(t0);
    out->rows += table.rows.size();
  }

  const Database& db_;
  lbr::Engine engine_;
  lbr::GlobalIds ids_;
  lbr::ExecContext ctx_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledPlan>> plans_;
};

// --- Spans -----------------------------------------------------------------

// One span per layer step of a traced op. `source` says where its duration
// came from: measured around a call here, the engine's QueryStats, or the
// replay. QueryStats/replay spans are placed back to back inside the
// engine span in pipeline order (their true offsets are not observable).
struct Span {
  uint64_t op;
  const char* name;
  const char* parent;
  const char* source;
  double start_ms;
  double dur_ms;
};

// Per-op layer times of a traced op (ms).
struct LayerTimes {
  double op = 0, queue_wait = 0, plan = 0, init = 0, prune = 0, join = 0,
         bestmatch = 0, delivery = 0;
  double Residual() const {
    return op - plan - init - prune - join - bestmatch - delivery;
  }
};

void RecordSpans(uint64_t op, double start_ms, const LayerTimes& t,
                 std::vector<Span>* spans) {
  spans->push_back({op, "op", "", "measured", start_ms, t.queue_wait + t.op});
  spans->push_back({op, "queue_wait", "op", "measured", start_ms, t.queue_wait});
  double engine_start = start_ms + t.queue_wait;
  spans->push_back({op, "engine", "op", "measured", engine_start, t.op});
  double at = engine_start;
  const std::pair<const char*, std::pair<double, const char*>> children[] = {
      {"plan", {t.plan, "query_stats"}},   {"init", {t.init, "query_stats"}},
      {"prune", {t.prune, "query_stats"}}, {"join", {t.join, "replay"}},
      {"bestmatch", {t.bestmatch, "replay"}},
      {"delivery", {t.delivery, "replay"}}};
  for (const auto& [name, d] : children) {
    spans->push_back({op, name, "engine", d.second, at, d.first});
    at += d.first;
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << std::setprecision(9);
  for (const Span& s : spans) {
    out << "{\"op\": " << s.op << ", \"name\": \"" << s.name
        << "\", \"parent\": \"" << s.parent << "\", \"source\": \""
        << s.source << "\", \"start_ms\": " << s.start_ms
        << ", \"dur_ms\": " << s.dur_ms << "}\n";
  }
}

// --- The benchmark ----------------------------------------------------------

struct Metric {
  double value;
  const char* unit;
};

struct Served {
  std::unique_ptr<Database> heap;  // the heap-backed database
  std::unique_ptr<Database> snap;  // the budgeted snapshot (dbpedia_budget)
  Database& serving() { return snap != nullptr ? *snap : *heap; }
};

class Bench {
 public:
  explicit Bench(Args args)
      : args_(std::move(args)),
        w_(MakeWorkload(args_.workload)),
        pool_(std::make_unique<lbr::ThreadPool>(w_.clients)) {}

  int Run() {
    GenerateData();
    probes_.push_back(DriftProbeSeconds(args_.seed));
    Setup();
    bool correct = CheckCorrectness();
    ReleaseHarnessMemory();
    Measure();
    probes_.push_back(DriftProbeSeconds(args_.seed + kPauses + 1));
    SetupGroup(false);
    std::cerr << w_.name << ": setup " << Median(setups_) << " s (median of "
              << setups_.size() << ")\n";
    correct = correct && failed_ == 0;
    Report(correct);
    return correct ? 0 : 1;
  }

 private:
  EngineOptions Options() const {
    EngineOptions o;
    o.enable_tp_cache = w_.tp_cache;
    return o;
  }

  // Generates the triples (again, after ReleaseHarnessMemory) and, once,
  // the department IRIs. Never timed.
  void GenerateData() {
    if (w_.lubm) {
      lbr::LubmConfig cfg;
      cfg.num_universities =
          std::max<uint32_t>(2, static_cast<uint32_t>(kLubmUniversities * args_.scale));
      triples_ = lbr::GenerateLubm(cfg);
      const uint32_t universities = depts_.empty() ? cfg.num_universities : 0;
      for (uint32_t u = 0; u < universities; ++u) {
        for (uint32_t d = 0; d < cfg.departments_per_university; ++d) {
          depts_.push_back(lbr::LubmDepartmentIri(u, d));
        }
      }
    } else {
      lbr::DbpediaConfig cfg;
      double m = kDbpediaMultiplier * args_.scale;
      auto mul = [m](uint32_t* v) {
        *v = std::max<uint32_t>(1, static_cast<uint32_t>(*v * m));
      };
      mul(&cfg.num_places);
      mul(&cfg.num_persons);
      mul(&cfg.num_soccer_players);
      mul(&cfg.num_settlements);
      mul(&cfg.num_airports);
      mul(&cfg.num_companies);
      mul(&cfg.num_noise_triples);
      triples_ = lbr::GenerateDbpedia(cfg);
    }
  }

  // The first op text of every class (the warm pass, identical for the
  // served engine and the replay engine so both compile the same plans).
  std::vector<std::string> WarmTexts() const {
    std::vector<std::string> texts;
    for (const QueryClass& c : w_.classes) {
      texts.push_back(Substitute(c.text, depts_.empty() ? "" : depts_.front()));
    }
    return texts;
  }

  std::string SnapPath() const { return args_.workdir + "/" + w_.name + ".snap"; }

  // One setup: Build [-> SaveSnapshot -> OpenSnapshot] -> one warm pass.
  Served SetupOnce() {
    Clock::time_point t0 = Clock::now();
    Served s;
    s.heap = std::make_unique<Database>(Database::Build(triples_, Options()));
    if (w_.snapshot) {
      s.heap->SaveSnapshot(SnapPath());
      s.snap = std::make_unique<Database>(
          Database::OpenSnapshot(SnapPath(), Options(), snap_options_));
    }
    for (const std::string& t : WarmTexts()) s.serving().engine().ExecuteToTable(t);
    setups_.push_back(Since(t0));
    return s;
  }

  // setup_s is the median of (kPauses + 2) x kSetupReps setups, made in
  // groups spread over the run: before the timed loop (its last setup
  // serves), at each of the loop's kPauses pauses, and after it. Back to
  // back, a run's setups sampled one host episode of a few seconds and
  // runs spread by 30% (README.md, "Noise"). The later groups regenerate
  // the triples and build databases that do not serve.
  static constexpr int kSetupReps = 4;
  static constexpr int kPauses = 2;
  void SetupGroup(bool serve) {
    if (triples_.empty()) GenerateData();
    for (int rep = 0; rep < kSetupReps; ++rep) {
      Served s = SetupOnce();
      if (serve) served_ = std::move(s);
    }
    // The open mapping outlives the unlink; nothing is left behind.
    if (w_.snapshot) std::remove(SnapPath().c_str());
    if (!serve) ReleaseTriples();
  }

  void Setup() {
    if (w_.snapshot) {
      // Working set of the query set, measured by an unbudgeted pass.
      Database db = Database::Build(triples_);
      db.SaveSnapshot(SnapPath());
      Database open = Database::OpenSnapshot(SnapPath());
      for (const std::string& t : WarmTexts()) open.engine().ExecuteToTable(t);
      working_set_bytes_ = open.index().snapshot_resident_bytes();
      snap_options_.memory_budget_bytes = working_set_bytes_ / 4 + 1;
    }
    SetupGroup(true);
    if (args_.trace) {
      replayer_ = std::make_unique<Replayer>(*served_.heap, Options());
      for (const std::string& t : WarmTexts()) replayer_->Warm(t);
    }
  }

  // Every distinct query against the pairwise baseline's multiset; for
  // lubm_selective, the first kCheckedOps ops of the run's own op sequence.
  // Ops are served the way the timed loop serves them (one at a time, or
  // ExecuteBatch calls on the same pool), dbpedia_budget's also checked
  // against the heap-backed database. Runs outside the timed loop.
  static constexpr size_t kCheckedOps = 90;
  bool CheckCorrectness() {
    std::vector<std::string> texts;
    if (w_.classes[0].text.find(kDeptSlot) != std::string::npos) {
      OpSequence seq(w_, depts_, args_.seed);
      int cls = 0;
      for (size_t i = 0; i < kCheckedOps; ++i) texts.push_back(seq.Next(&cls));
    } else {
      for (const QueryClass& c : w_.classes) texts.push_back(c.text);
    }
    std::vector<std::vector<std::string>> served(texts.size());
    std::vector<std::string> errors(texts.size());
    const size_t round = static_cast<size_t>(w_.batch);
    for (size_t i = 0; i < texts.size(); i += round) {
      if (round == 1) {
        served[i] = Canonical(served_.serving().engine().ExecuteToTable(texts[i]));
        continue;
      }
      std::vector<std::string> batch(
          texts.begin() + i, texts.begin() + std::min(texts.size(), i + round));
      std::vector<BatchResult> results =
          served_.serving().ExecuteBatch(batch, pool_.get());
      for (size_t j = 0; j < results.size(); ++j) {
        served[i + j] = Canonical(results[j].table);
        errors[i + j] = results[j].error;
      }
    }
    lbr::PairwiseEngine pairwise(&served_.heap->index(), &served_.heap->dict());
    bool ok = true;
    for (size_t i = 0; i < texts.size(); ++i) {
      const std::vector<std::string>& got = served[i];
      std::vector<std::string> want =
          Canonical(pairwise.ExecuteToTable(lbr::Parser::Parse(texts[i])));
      bool same = errors[i].empty() && got == want;
      if (same && w_.snapshot) {
        same = got == Canonical(served_.heap->engine().ExecuteToTable(texts[i]));
      }
      if (!same) {
        std::cerr << "MISMATCH on query " << i << " (" << got.size()
                  << " rows vs " << want.size() << " from the pairwise baseline"
                  << (errors[i].empty() ? "" : "; failed: " + errors[i])
                  << ")\n" << texts[i] << "\n";
        ok = false;
      }
      expected_rows_[texts[i]] = want.size();
    }
    return ok;
  }

  // Frees what only the harness needs before the timed loop, so that
  // rss_mb is the serving process's peak: the generated triples and, on an
  // untraced dbpedia_budget run, the heap database beside the snapshot.
  // Free heap pages go back to the kernel, then the peak is reset.
  void ReleaseHarnessMemory() {
    num_triples_ = served_.heap->num_triples();
    if (served_.snap != nullptr && !args_.trace) served_.heap.reset();
    ReleaseTriples();
    rss_setup_peak_mib_ = PeakRssMiB();
    rss_after_setup_mib_ = StatusMiB("VmRSS");
    rss_scoped_ = ResetPeakRss();
  }

  void ReleaseTriples() {
    std::vector<lbr::TermTriple>().swap(triples_);
    malloc_trim(0);
  }

  // Layer totals read around the timed loop (never per-query deltas, which
  // double count under concurrency).
  struct Totals {
    uint64_t tp_hits, tp_misses, tp_contention, tp_waits, plan_hits,
        plan_misses, materializations, spills;
  };
  Totals ReadTotals() {
    Database& db = served_.serving();
    const lbr::TpCache& tc = db.engine().tp_cache();
    const lbr::PlanCache& pc = db.engine().plan_cache();
    return {tc.hits(),      tc.misses(),  tc.lock_contention(),
            tc.single_flight_waits(),     pc.hits(),
            pc.misses(),    db.index().snapshot_materializations(),
            db.index().snapshot_spills()};
  }

  struct OpResult {
    int cls;
    std::string text;
    QueryStats stats;
    double latency_s = 0;
    double queue_wait_s = 0;  // in ExecuteBatch's queue, before latency_s
    uint64_t rows = 0;
    bool ok = true;
  };

  // One serving step: one op, or one ExecuteBatch call of w_.batch ops.
  std::vector<OpResult> Step(OpSequence* seq) {
    std::vector<OpResult> ops(static_cast<size_t>(w_.batch));
    for (OpResult& op : ops) op.text = seq->Next(&op.cls);
    Database& db = served_.serving();
    if (w_.batch == 1) {
      OpResult& op = ops[0];
      Clock::time_point t0 = Clock::now();
      try {
        ResultTable table = db.engine().ExecuteToTable(op.text, &op.stats);
        op.latency_s = Since(t0);  // before the table is freed
        op.rows = table.rows.size();
      } catch (const std::exception& e) {
        std::cerr << "op failed: " << e.what() << "\n";
        op.latency_s = Since(t0);
        op.ok = false;
      }
    } else {
      std::vector<std::string> batch;
      for (const OpResult& op : ops) batch.push_back(op.text);
      std::vector<BatchResult> results = db.ExecuteBatch(batch, pool_.get());
      for (size_t i = 0; i < ops.size(); ++i) {
        // Pickup to completion: the engine's own T_total. The wait behind
        // the ops ahead in the batch is the batch layer's, kept apart.
        ops[i].latency_s = results[i].stats.t_total_sec;
        ops[i].queue_wait_s = results[i].queue_wait_sec;
        ops[i].stats = results[i].stats;
        ops[i].rows = results[i].table.rows.size();
        ops[i].ok = results[i].ok();
        if (!ops[i].ok) std::cerr << "op failed: " << results[i].error << "\n";
      }
    }
    for (OpResult& op : ops) {
      auto it = expected_rows_.find(op.text);
      if (op.ok && it != expected_rows_.end() && it->second != op.rows) {
        std::cerr << "op returned " << op.rows << " rows, expected "
                  << it->second << "\n";
        op.ok = false;
      }
    }
    return ops;
  }

  // A pause in the timed loop, off the serving clock: a drift probe and a
  // setup group. The serving peak RSS is read before it and reset after it,
  // so neither the probe's buffer nor the setups count in rss_mb.
  void Pause(int k) {
    rss_peak_mib_ = std::max(rss_peak_mib_, PeakRssMiB());
    probes_.push_back(DriftProbeSeconds(args_.seed + k));
    SetupGroup(false);
    if (rss_scoped_) ResetPeakRss();
  }

  static constexpr double kFaultSettleS = 1.0;
  void Measure() {
    OpSequence seq(w_, depts_, args_.seed);
    latencies_.assign(w_.classes.size(), {});
    Totals before = ReadTotals();
    // Minor faults of the serving calls, each leg's first kFaultSettleS
    // left out: the harness hands free pages back to the kernel before the
    // loop and at each pause, and serving faults about 4K of them in again.
    uint64_t faults = 0, fault_ops = 0;
    double loop_s = 0;  // serving time, pauses excluded
    double step_s[2] = {0, 0};  // [untraced, traced] serving time (trace run)
    uint64_t step_ops[2] = {0, 0};
    // Steps per trace on/off block: one class round.
    const size_t block = w_.batch > 1 ? 1 : w_.classes.size();
    int pauses = 0;
    Clock::time_point run0 = Clock::now();
    Clock::time_point leg0 = run0;
    for (uint64_t step = 0;; ++step) {
      uint64_t done = attempted_;
      double elapsed = loop_s + Since(leg0);
      const bool both_sides = step_ops[0] > 0 && step_ops[1] > 0;
      if ((args_.ops > 0 ? done >= args_.ops : elapsed >= args_.seconds) &&
          (!args_.trace || both_sides)) {
        break;
      }
      // kPauses pauses, evenly spaced over the run.
      const double share = static_cast<double>(pauses + 1) / (kPauses + 1);
      if (pauses < kPauses &&
          (args_.ops > 0 ? done >= args_.ops * share
                         : elapsed >= args_.seconds * share)) {
        loop_s += Since(leg0);
        Pause(++pauses);
        leg0 = Clock::now();
      }
      const bool traced = args_.trace && (step / block) % 2 == 1;
      double start_ms = Since(run0) * 1e3;
      uint64_t f0 = MinorFaults();
      Clock::time_point t0 = Clock::now();
      std::vector<OpResult> ops = Step(&seq);
      double took = Since(t0);
      if (Since(leg0) >= kFaultSettleS) {
        faults += MinorFaults() - f0;
        fault_ops += ops.size();
      }
      for (OpResult& op : ops) {
        ++attempted_;
        rows_total_ += op.rows;
        if (!op.ok) ++failed_;
        latencies_[op.cls].push_back(op.latency_s);
        if (traced) Trace(op, start_ms);
      }
      // A traced step costs its tracing too: replay, spans and row check.
      step_s[traced] += traced ? Since(t0) : took;
      step_ops[traced] += ops.size();
    }
    loop_s += Since(leg0);
    rss_peak_mib_ = std::max(rss_peak_mib_, PeakRssMiB());
    // Per-class statistics over the whole run. The host's speed moves by
    // 20-50% in episodes of seconds to minutes (README.md, "Noise"), so a
    // class's latencies mix a fast and a slow mode. Its median and its p90
    // jump between the modes as the share of slow time crosses a half or a
    // tenth; its lower quartile stays in the fast mode, and the mean of its
    // slowest tenth moves in proportion to the share.
    size_t fewest = attempted_;
    for (const std::vector<double>& v : latencies_) fewest = std::min(fewest, v.size());
    auto [tail_share, tail_name] = TailShare(fewest);
    tail_name_ = tail_name;
    Totals after = ReadTotals();
    const double n = static_cast<double>(std::max<uint64_t>(attempted_, 1));

    // End-to-end: geomeans over the classes, so each class weighs alike.
    double log_low = 0, log_tail = 0;
    for (const std::vector<double>& v : latencies_) {
      log_low += std::log(Percentile(v, 0.25) * 1e3);
      log_tail += std::log(TailMean(v, tail_share) * 1e3);
    }
    const double classes = static_cast<double>(latencies_.size());
    e2e_ = {{"setup_s", {Median(setups_), "s"}},
            {"qps", {attempted_ / loop_s, "1/s"}},
            {"latency_p25_ms", {std::exp(log_low / classes), "ms"}},
            {"latency_tail_ms", {std::exp(log_tail / classes), "ms"}},
            {"rss_mb", {rss_peak_mib_, "MiB"}}};

    // Layer counters from the layers' own totals.
    counts_ = {{"tp_cache_hits", after.tp_hits - before.tp_hits},
               {"tp_cache_misses", after.tp_misses - before.tp_misses},
               {"tp_cache_contention", after.tp_contention - before.tp_contention},
               {"tp_cache_flight_waits", after.tp_waits - before.tp_waits},
               {"plan_cache_hits", after.plan_hits - before.plan_hits},
               {"plan_cache_misses", after.plan_misses - before.plan_misses},
               {"materializations", after.materializations - before.materializations},
               {"spills", after.spills - before.spills},
               {"rows", rows_total_},
               {"minor_faults", faults},
               {"op_sequence_hash", seq.hash()}};
    if (!args_.trace) return;

    const double t = static_cast<double>(std::max<uint64_t>(traced_ops_, 1));
    const LayerTimes& s = layer_sum_;
    auto share = [](double part, double whole) {
      return whole == 0 ? 0.0 : part / whole;
    };
    auto hit_ratio = [&share](uint64_t hits, uint64_t misses) {
      return share(static_cast<double>(hits), static_cast<double>(hits + misses));
    };
    double untraced_qps = step_ops[0] / std::max(step_s[0], 1e-9);
    double traced_qps = step_ops[1] / std::max(step_s[1], 1e-9);
    layer_ = {
        {"op.ms", {s.op / t, "ms"}},
        {"batch.queue_wait_ms", {s.queue_wait / t, "ms"}},
        {"plan.ms", {s.plan / t, "ms"}},
        {"plan_cache.hit_ratio",
         {hit_ratio(counts_["plan_cache_hits"], counts_["plan_cache_misses"]),
          "ratio"}},
        {"init.ms", {s.init / t, "ms"}},
        {"init.triples_per_op", {initial_triples_ / t, "triples"}},
        {"tp_cache.hit_ratio",
         {hit_ratio(counts_["tp_cache_hits"], counts_["tp_cache_misses"]),
          "ratio"}},
        {"tp_cache.contention_per_op", {counts_["tp_cache_contention"] / n, "count"}},
        {"tp_cache.flight_waits_per_op",
         {counts_["tp_cache_flight_waits"] / n, "count"}},
        {"index.materializations_per_op", {counts_["materializations"] / n, "count"}},
        {"index.spills_per_op", {counts_["spills"] / n, "count"}},
        {"index.resident_mb",
         {served_.serving().index().snapshot_resident_bytes() / double(1 << 20),
          "MiB"}},
        {"index.minor_faults_per_op",
         {faults / static_cast<double>(std::max<uint64_t>(fault_ops, 1)), "count"}},
        {"prune.ms", {s.prune / t, "ms"}},
        {"prune.kept_ratio",
         {share(after_prune_triples_, initial_triples_), "ratio"}},
        {"join.ms", {s.join / t, "ms"}},
        {"join.rows_per_op", {join_rows_ / t, "rows"}},
        {"bestmatch.ms", {s.bestmatch / t, "ms"}},
        {"bestmatch.kept_ratio", {share(bestmatch_out_, bestmatch_in_), "ratio"}},
        {"delivery.ms", {s.delivery / t, "ms"}},
        {"delivery.rows_per_op", {delivered_rows_ / t, "rows"}},
        {"delivery.null_ratio", {share(null_rows_, delivered_rows_), "ratio"}},
        {"engine.unattributed_ms", {s.Residual() / t, "ms"}},
        {"trace.qps", {traced_qps, "1/s"}},
        {"trace.overhead_ratio", {untraced_qps / traced_qps, "ratio"}}};
  }

  // Per-layer accounting of one traced op: QueryStats phases, then the
  // replay's join / best-match / delivery split and its row-count check.
  void Trace(OpResult& op, double start_ms) {
    ReplayOut r = replayer_->Run(op.text);
    if (r.rows != op.stats.num_results) {
      std::cerr << "replay returned " << r.rows << " rows, engine "
                << op.stats.num_results << "\n";
      if (op.ok) ++failed_;
      op.ok = false;
    }
    LayerTimes t;
    // op latency; on one client it includes the ExecuteToTable call
    // overhead outside T_total, which lands in the residual.
    t.op = op.latency_s * 1e3;
    t.queue_wait = op.queue_wait_s * 1e3;
    t.plan = op.stats.t_plan_sec * 1e3;
    t.init = op.stats.t_init_sec * 1e3;
    t.prune = op.stats.t_prune_sec * 1e3;
    t.join = r.join_s * 1e3;
    t.bestmatch = r.bestmatch_s * 1e3;
    t.delivery = r.delivery_s * 1e3;
    RecordSpans(traced_ops_, start_ms, t, &spans_);
    LayerTimes& s = layer_sum_;
    s.op += t.op;
    s.queue_wait += t.queue_wait;
    s.plan += t.plan;
    s.init += t.init;
    s.prune += t.prune;
    s.join += t.join;
    s.bestmatch += t.bestmatch;
    s.delivery += t.delivery;
    ++traced_ops_;
    initial_triples_ += op.stats.initial_triples;
    after_prune_triples_ += op.stats.triples_after_prune;
    join_rows_ += r.join_rows;
    bestmatch_in_ += r.bestmatch_in;
    bestmatch_out_ += r.bestmatch_out;
    delivered_rows_ += op.stats.num_results;
    null_rows_ += op.stats.num_results_with_nulls;
  }

  void Report(bool correct) {
    std::ostringstream ctx;
    ctx << std::setprecision(9);
    ctx << "{\"context\": {\"workload\": \"" << w_.name << "\", \"seed\": "
        << args_.seed << ", \"triples\": " << num_triples_
        << ", \"tail\": \"" << tail_name_
        << "\", \"samples\": " << attempted_
        << ", \"setup_runs_s\": [";
    for (size_t i = 0; i < setups_.size(); ++i) ctx << (i ? ", " : "") << setups_[i];
    ctx << "], \"drift_probe_s\": [";
    for (size_t i = 0; i < probes_.size(); ++i) ctx << (i ? ", " : "") << probes_[i];
    ctx << "], \"class_median_ms\": {";
    for (size_t c = 0; c < w_.classes.size(); ++c) {
      ctx << (c ? ", " : "") << "\"" << w_.classes[c].name
          << "\": " << Median(latencies_[c]) * 1e3;
    }
    ctx << "}, \"working_set_bytes\": " << working_set_bytes_
        << ", \"rss_scope\": \"" << (rss_scoped_ ? "serving" : "process")
        << "\", \"rss_after_setup_mb\": " << rss_after_setup_mib_
        << ", \"rss_setup_peak_mb\": " << rss_setup_peak_mib_
        << ", \"counts\": {";
    bool first = true;
    for (const auto& [k, v] : counts_) {
      ctx << (first ? "" : ", ") << "\"" << k << "\": " << v;
      first = false;
    }
    ctx << "}";
    if (args_.trace) {
      std::string path = args_.workdir + "/trace_" + w_.name + "_seed" +
                         std::to_string(args_.seed) + ".jsonl";
      WriteSpans(path, spans_);
      ctx << ", \"trace_file\": \"" << path << "\", \"traced_ops\": " << traced_ops_;
    }
    ctx << "}}";
    std::cout << ctx.str() << "\n";

    const std::map<std::string, Metric>& metrics = args_.trace ? layer_ : e2e_;
    std::ostringstream res;
    res << std::setprecision(12);
    res << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    first = true;
    for (const auto& [k, v] : metrics) {
      res << (first ? "" : ", ") << "\"" << k << "\": {\"value\": " << v.value
          << ", \"unit\": \"" << v.unit << "\"}";
      first = false;
    }
    res << "}}";
    std::cout << res.str() << std::endl;
  }

  Args args_;
  Workload w_;
  std::unique_ptr<lbr::ThreadPool> pool_;  // the batch clients' pool
  std::vector<lbr::TermTriple> triples_;
  uint64_t num_triples_ = 0;
  bool rss_scoped_ = false;  // the peak RSS was reset after setup
  double rss_setup_peak_mib_ = 0, rss_after_setup_mib_ = 0, rss_peak_mib_ = 0;
  std::vector<std::string> depts_;
  Served served_;
  std::unique_ptr<Replayer> replayer_;
  lbr::SnapshotOptions snap_options_;  // the budget, from Setup's calibration
  uint64_t working_set_bytes_ = 0;
  std::vector<double> setups_, probes_;
  std::map<std::string, uint64_t> expected_rows_;

  uint64_t attempted_ = 0, failed_ = 0, rows_total_ = 0;
  std::vector<std::vector<double>> latencies_;
  std::string tail_name_;
  std::map<std::string, Metric> e2e_, layer_;
  std::map<std::string, uint64_t> counts_;

  // Traced-op accumulators.
  std::vector<Span> spans_;
  LayerTimes layer_sum_;
  uint64_t traced_ops_ = 0, initial_triples_ = 0, after_prune_triples_ = 0,
           join_rows_ = 0, bestmatch_in_ = 0, bestmatch_out_ = 0,
           delivered_rows_ = 0, null_rows_ = 0;
};

}  // namespace
}  // namespace lbrbench

int main(int argc, char** argv) {
  try {
    lbrbench::Bench bench(lbrbench::ParseArgs(argc, argv));
    return bench.Run();
  } catch (const std::exception& e) {
    std::cerr << "lbrbench: " << e.what() << "\n";
    return 2;
  }
}

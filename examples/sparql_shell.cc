// Interactive SPARQL shell: load an N-Triples file, a saved .lbr database,
// or a built-in demo graph, then type queries at the prompt.
//   EXPLAIN <query>   print the GoSN/GoJ plan instead of executing
//   .stats            toggle per-query metrics
//   .format tsv|csv|table   switch the output serialization
//   .save <path>      persist the loaded data as a single-file database
//   .snapshot <path>  persist as an mmap-ready page-organized snapshot
//                     (reopen with the same shell: predicates load lazily)
//   .batch <path>     run a file of blank-line-separated queries across
//                     the thread pool (shared warm TP cache)
//   .timeout <ms>     per-query deadline for subsequent queries (0 clears);
//                     also applied to .batch queries
//   .maxmem <bytes>   per-query memory budget (0 clears); also for .batch
//   .cancel <ms>      arm a one-shot canceller: the NEXT query is cancelled
//                     from a second thread after <ms> milliseconds
//   .predstats        print the load-time per-predicate statistics table
//   .quit             exit
//
// Usage:  sparql_shell [--threads N] [--planner heuristic|cost]
//                      [--budget=BYTES] [data.nt | data.lbr]
//         echo 'SELECT ...' | sparql_shell data.nt
//
// Any other argument starting with "--" prints the usage line and exits 1.
// --threads N (default 1) sizes the worker pool: interactive queries shard
// their prune/fold row work across it, and .batch fans whole queries over
// it with one engine per worker against the shared TP cache.
// --budget=BYTES caps the resident memory of a snapshot's slices.
// --planner cost orders jvars and TP loads from the load-time
// PredicateStats densities (DESIGN.md §10) instead of the per-query
// exact metadata counts; results are identical, planning is O(1) per TP.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/engine.h"
#include "core/explain.h"
#include "core/result_writer.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "util/query_control.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

std::vector<lbr::TermTriple> DemoTriples() {
  using lbr::Term;
  using lbr::TermTriple;
  auto iri = [](const char* v) { return Term::Iri(v); };
  return {
      {iri("Julia"), iri("actedIn"), iri("Seinfeld")},
      {iri("Julia"), iri("actedIn"), iri("Veep")},
      {iri("Larry"), iri("actedIn"), iri("CurbYourEnthu")},
      {iri("Jerry"), iri("hasFriend"), iri("Julia")},
      {iri("Jerry"), iri("hasFriend"), iri("Larry")},
      {iri("Seinfeld"), iri("location"), iri("NewYorkCity")},
      {iri("Veep"), iri("location"), iri("D.C.")},
      {iri("CurbYourEnthu"), iri("location"), iri("LosAngeles")},
  };
}

constexpr const char* kUsage =
    "usage: sparql_shell [--threads N] [--planner heuristic|cost] "
    "[--budget=BYTES] [data.nt | data.lbr]\n";

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWithWord(const std::string& line, const std::string& word) {
  if (line.size() < word.size()) return false;
  for (size_t i = 0; i < word.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(line[i])) != word[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbr;

  int num_threads = 1;
  uint64_t budget_bytes = 0;  // snapshot resident-memory budget (--budget=)
  std::string data_path;
  std::string planner = "heuristic";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      num_threads = std::atoi(argv[++i]);
    } else if (arg.rfind("--threads=", 0) == 0) {
      num_threads = std::atoi(arg.c_str() + 10);
    } else if (arg == "--planner" && i + 1 < argc) {
      planner = argv[++i];
    } else if (arg.rfind("--planner=", 0) == 0) {
      planner = arg.substr(10);
    } else if (arg.rfind("--budget=", 0) == 0) {
      budget_bytes = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag '" << arg << "'\n" << kUsage;
      return 1;
    } else {
      data_path = arg;
    }
  }
  if (num_threads < 1) num_threads = ThreadPool::HardwareThreads();
  if (planner != "heuristic" && planner != "cost") {
    std::cerr << "unknown --planner mode '" << planner
              << "' (expected heuristic or cost)\n";
    return 1;
  }

  std::unique_ptr<ThreadPool> pool;
  EngineOptions options;
  options.enable_tp_cache = true;  // shell reruns queries: cache pays off
  options.planner =
      planner == "cost" ? PlannerMode::kCost : PlannerMode::kHeuristic;
  if (num_threads > 1) {
    pool = std::make_unique<ThreadPool>(num_threads);
    options.pool = pool.get();
    std::cerr << "thread pool: " << num_threads << " slots ("
              << pool->num_workers() << " workers + caller)\n";
  }

  Database db = [&] {
    Stopwatch load;
    if (!data_path.empty() &&
        (EndsWith(data_path, ".lbr") || EndsWith(data_path, ".snap"))) {
      SnapshotOptions snap;
      snap.memory_budget_bytes = budget_bytes;
      // Open() sniffs the magic: legacy files load eagerly, snapshots map
      // lazily. A budget only makes sense for snapshots, so route through
      // OpenSnapshot when one is requested (legacy files then fail with a
      // clear bad-magic error).
      Database opened = budget_bytes > 0
                            ? Database::OpenSnapshot(data_path, options, snap)
                            : Database::Open(data_path, options);
      std::cerr << "opened database " << data_path << " ("
                << opened.num_triples() << " triples"
                << (opened.index().mapped() ? ", mapped" : "") << ") in "
                << load.Seconds() << " s\n";
      return opened;
    }
    if (!data_path.empty()) {
      Database built = Database::BuildFromNTriples(data_path, options);
      std::cerr << "built database from " << data_path << " ("
                << built.num_triples() << " triples) in " << load.Seconds()
                << " s\n";
      return built;
    }
    std::cerr << "no data file given; using the built-in demo graph\n";
    return Database::Build(DemoTriples(), options);
  }();
  Engine& engine = db.engine();

  // Reads a .batch file: queries separated by blank lines.
  auto read_batch_file = [](const std::string& path) {
    std::vector<std::string> queries;
    std::ifstream in(path);
    if (!in) return queries;
    std::string current, file_line;
    while (std::getline(in, file_line)) {
      if (file_line.empty()) {
        if (!current.empty()) queries.push_back(current);
        current.clear();
      } else {
        current += file_line;
        current += '\n';
      }
    }
    if (!current.empty()) queries.push_back(current);
    return queries;
  };

  // Per-query lifecycle knobs (DESIGN.md §9): 0 = off. `cancel_after_ms`
  // is one-shot, armed by `.cancel <ms>` for the next query only.
  uint64_t timeout_ms = 0;
  uint64_t maxmem_bytes = 0;
  int64_t cancel_after_ms = -1;

  auto run_batch = [&](const std::string& path) {
    std::vector<std::string> queries = read_batch_file(path);
    if (queries.empty()) {
      std::cout << "no queries in " << path << "\n";
      return;
    }
    Stopwatch watch;
    BatchOptions batch_options;
    batch_options.pool = pool.get();
    batch_options.timeout_ms = timeout_ms;
    batch_options.memory_budget = maxmem_bytes;
    std::vector<BatchResult> results =
        db.ExecuteBatch(queries, std::move(batch_options));
    double wall = watch.Seconds();
    uint64_t total_rows = 0, failures = 0;
    uint64_t hits = 0, misses = 0, contention = 0, flight_waits = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const BatchResult& r = results[i];
      if (!r.ok()) {
        ++failures;
        std::cout << "  q" << i << " ["
                  << QueryTerminationName(r.outcome.code)
                  << "]: " << r.error << "\n";
        continue;
      }
      total_rows += r.stats.num_results;
      hits += r.stats.tp_cache_hits;
      misses += r.stats.tp_cache_misses;
      contention += r.stats.tp_cache_contention;
      flight_waits += r.stats.tp_cache_flight_waits;
      std::cout << "  q" << i << ": " << r.stats.num_results << " rows in "
                << r.stats.t_total_sec << " s\n";
    }
    std::cout << "batch: " << queries.size() << " queries ("
              << failures << " failed), " << total_rows << " rows in " << wall
              << " s wall on " << (pool != nullptr ? pool->num_slots() : 1)
              << " thread(s); tp cache " << hits << " hit(s) / " << misses
              << " miss(es), " << contention << " contended lock(s), "
              << flight_waits << " single-flight wait(s)\n";
  };

  bool show_stats = true;
  std::string format = "table";
  std::cerr << "enter SPARQL queries (end with a blank line); "
               "'EXPLAIN <query>' for plans; '.stats', '.format tsv|csv|"
               "table', '.save <path>', '.snapshot <path>', '.batch <path>', '.timeout <ms>', "
               "'.maxmem <bytes>', '.cancel <ms>', '.predstats', '.verify', "
               "'.quit'\n";

  std::string buffer;
  std::string line;
  auto run_buffer = [&]() {
    if (buffer.empty()) return;
    std::string text = buffer;
    buffer.clear();
    try {
      if (StartsWithWord(text, "EXPLAIN")) {
        std::cout << ExplainQuery(db.index(), db.dict(), text.substr(7))
                  << "\n";
        return;
      }
      if (text == ".stats") {
        show_stats = !show_stats;
        std::cout << "stats " << (show_stats ? "on" : "off") << "\n";
        return;
      }
      if (text.rfind(".format ", 0) == 0) {
        format = text.substr(8);
        std::cout << "format: " << format << "\n";
        return;
      }
      if (text.rfind(".save ", 0) == 0) {
        std::string path = text.substr(6);
        db.Save(path);
        std::cout << "saved to " << path << "\n";
        return;
      }
      if (text.rfind(".snapshot ", 0) == 0) {
        std::string path = text.substr(10);
        db.SaveSnapshot(path);
        std::cout << "snapshot written to " << path << "\n";
        return;
      }
      if (text.rfind(".batch ", 0) == 0) {
        run_batch(text.substr(7));
        return;
      }
      if (text.rfind(".timeout ", 0) == 0) {
        timeout_ms = std::strtoull(text.c_str() + 9, nullptr, 10);
        std::cout << "timeout: "
                  << (timeout_ms ? std::to_string(timeout_ms) + " ms" : "off")
                  << "\n";
        return;
      }
      if (text.rfind(".maxmem ", 0) == 0) {
        maxmem_bytes = std::strtoull(text.c_str() + 8, nullptr, 10);
        std::cout << "memory budget: "
                  << (maxmem_bytes ? std::to_string(maxmem_bytes) + " bytes"
                                   : "off")
                  << "\n";
        return;
      }
      if (text.rfind(".cancel ", 0) == 0) {
        cancel_after_ms = std::strtoll(text.c_str() + 8, nullptr, 10);
        std::cout << "canceller armed: next query cancelled after "
                  << cancel_after_ms << " ms\n";
        return;
      }
      if (text == ".predstats") {
        std::cout << db.predicate_stats().Summary(db.dict());
        return;
      }
      if (text == ".verify") {
        Database::SnapshotVerifyReport report = db.VerifySnapshot();
        if (!report.mapped) {
          std::cout << "verify: heap-backed database, nothing to check\n";
          return;
        }
        std::cout << "verify: " << report.num_predicates << " predicate(s), "
                  << report.corrupt.size() << " corrupt, "
                  << report.quarantined.size() << " quarantined"
                  << (report.ok() ? " -- ok" : "") << "\n";
        for (uint32_t p : report.corrupt) {
          std::cout << "  corrupt: predicate " << p << "\n";
        }
        for (uint32_t p : report.quarantined) {
          std::cout << "  quarantined: predicate " << p << "\n";
        }
        return;
      }
      QueryStats stats;
      QueryControl control;
      if (timeout_ms > 0) {
        control.SetTimeout(std::chrono::milliseconds(timeout_ms));
      }
      if (maxmem_bytes > 0) control.SetMemoryBudget(maxmem_bytes);
      // One-shot canceller: a second thread sleeps then flips the latch,
      // exactly what an external "kill this query" endpoint would do.
      std::thread canceller;
      if (cancel_after_ms >= 0) {
        int64_t delay = cancel_after_ms;
        cancel_after_ms = -1;
        canceller = std::thread([&control, delay] {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay));
          control.Cancel();
        });
      }
      ResultTable result;
      try {
        result = engine.ExecuteToTable(text, &stats, &control);
      } catch (...) {
        if (canceller.joinable()) canceller.join();
        throw;
      }
      if (canceller.joinable()) canceller.join();
      if (format == "csv") {
        ResultWriter::WriteCsv(result, &std::cout);
      } else if (format == "tsv") {
        ResultWriter::WriteTsv(result, &std::cout);
      } else {
        for (const std::string& var : result.var_names) {
          std::cout << "?" << var << "\t";
        }
        std::cout << "\n";
        for (const auto& row : result.rows) {
          for (const auto& cell : row) {
            std::cout << (cell ? cell->ToString() : "NULL") << "\t";
          }
          std::cout << "\n";
        }
      }
      if (show_stats) {
        std::cout << "-- " << stats.num_results << " rows ("
                  << stats.num_results_with_nulls << " with NULLs) in "
                  << stats.t_total_sec << " s; init " << stats.t_init_sec
                  << " s, prune " << stats.t_prune_sec
                  << " s; triples " << stats.initial_triples << " -> "
                  << stats.triples_after_prune
                  << (stats.best_match_used ? "; best-match used" : "")
                  << (stats.empty_result_shortcut
                          ? "; empty-master shortcut"
                          : "")
                  << "\n";
        std::cout << ExplainCacheStats(stats);
      }
    } catch (const QueryAbortedError& e) {
      std::cout << "aborted [" << QueryTerminationName(e.code())
                << "]: " << e.what() << "\n";
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  };

  while (std::getline(std::cin, line)) {
    if (line == ".quit") break;
    if (line == ".stats" || line.rfind(".format ", 0) == 0 ||
        line.rfind(".save ", 0) == 0 || line.rfind(".snapshot ", 0) == 0 ||
        line.rfind(".batch ", 0) == 0 ||
        line.rfind(".timeout ", 0) == 0 || line.rfind(".maxmem ", 0) == 0 ||
        line.rfind(".cancel ", 0) == 0 || line == ".predstats" ||
        line == ".verify" || StartsWithWord(line, "EXPLAIN")) {
      buffer = line;
      run_buffer();
      continue;
    }
    if (line.empty()) {
      run_buffer();
      continue;
    }
    buffer += line;
    buffer += '\n';
  }
  run_buffer();  // flush a trailing query without a blank line
  return 0;
}

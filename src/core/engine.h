#ifndef LBR_CORE_ENGINE_H_
#define LBR_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bitmat/tp_cache.h"
#include "bitmat/triple_index.h"
#include "core/plan_cache.h"
#include "core/row.h"
#include "core/tp_state.h"
#include "rdf/graph.h"
#include "sparql/ast.h"
#include "util/exec_context.h"
#include "util/query_control.h"

namespace lbr {

class ThreadPool;
class Stopwatch;
class PredicateStats;

/// Strategy knob for the jvar-ordering ablation (Table/figure A2).
enum class JvarOrderStrategy {
  kPaper,          ///< Algorithm 3.1 (default).
  kNaiveBottomUp,  ///< Single whole-tree bottom-up pass (Section 3.2 strawman).
  kGreedy,         ///< Greedy descending-selectivity order.
};

/// Engine tunables; defaults reproduce the paper's configuration. The other
/// settings exist for the ablation benches and the cache extension.
struct EngineOptions {
  bool enable_prune = true;           ///< Run prune_triples (Alg 3.2).
  bool enable_active_pruning = true;  ///< Prune while loading BitMats (init).
  JvarOrderStrategy order_strategy = JvarOrderStrategy::kPaper;
  /// Cache unmasked TP BitMats across queries (the paper's future-work item
  /// for short-running queries); active-pruning masks are re-applied on the
  /// cached copies.
  bool enable_tp_cache = false;
  /// Triple budget for the TP cache (total set bits held).
  uint64_t tp_cache_budget = 4u << 20;
  /// Lock stripes for the TP cache (concurrent engines sharing one cache).
  size_t tp_cache_shards = 8;
  /// Worker pool (not owned; may be null) for sharding prune/fold row work
  /// across threads. The engine itself stays single-threaded — the pool
  /// only parallelizes the interior of fold/unfold ops (DESIGN.md §5).
  ThreadPool* pool = nullptr;
  /// Candidate enumeration inside the multiway join: block-at-a-time
  /// descent over the intersected candidates (default), word-parallel
  /// intersection with per-candidate descent, or the legacy per-bit
  /// probing. Results are identical; the knob exists for
  /// bench/ablation_join (DESIGN.md §6, §8).
  JoinEnumMode join_enum_mode = JoinEnumMode::kBlock;
  /// Cardinality source for jvar ordering and TP load order (DESIGN.md
  /// §10). kHeuristic is the paper's per-query exact metadata estimation;
  /// kCost plans from the load-time PredicateStats table (O(1) per TP) and
  /// additionally loads masters-first / smallest-first so active-pruning
  /// masks from selective TPs exist before large TPs load. Result streams
  /// are identical either way (the jvar order changes cost, not answers);
  /// kHeuristic stays the differential oracle.
  PlannerMode planner = PlannerMode::kHeuristic;
  /// Stats table for the cost planner (not owned; Database wires its own).
  /// Null with planner = kCost makes the engine collect a private table
  /// lazily on first use.
  const PredicateStats* predicate_stats = nullptr;
  /// Cache compiled plan skeletons keyed by query shape, so parameterized
  /// traffic pays parse/rewrite/GoSN/jvar-order once per shape. Only the
  /// text entry points (Execute(std::string), ExecuteToTable(std::string))
  /// consult it; ParsedQuery entry points always plan afresh.
  bool enable_plan_cache = true;
  /// Maximum cached plan skeletons (global across stripes).
  size_t plan_cache_capacity = 256;
  /// Lock stripes for the plan cache.
  size_t plan_cache_shards = 8;
  /// Share a plan cache across engines (the server deployment). Null makes
  /// the engine create a private one.
  std::shared_ptr<PlanCache> plan_cache;
  /// Mapped-snapshot readahead (DESIGN.md §11): before the TP load loop,
  /// madvise(WILLNEED) the extents of every fixed predicate in the branch's
  /// load order, so the kernel faults them in while earlier TPs load. No-op
  /// on heap-backed indexes.
  bool snapshot_prefetch = true;
};

/// Per-query statistics mirroring the evaluation metrics of Section 6.1.
struct QueryStats {
  double t_init_sec = 0;      ///< BitMat loading time (T_init).
  double t_prune_sec = 0;     ///< prune_triples time (T_prune).
  double t_total_sec = 0;     ///< End-to-end time (T_total).
  uint64_t initial_triples = 0;       ///< Sum of matching triples before init.
  uint64_t triples_after_prune = 0;   ///< Sum of BitMat triples after pruning.
  uint64_t num_results = 0;
  uint64_t num_results_with_nulls = 0;
  bool best_match_used = false;       ///< Nullification/best-match were needed.
  bool goj_cyclic = false;
  bool well_designed = true;
  /// How execution ended (DESIGN.md §9). kOk includes the empty-result
  /// shortcut below — that is a complete (empty) answer, not an abort; the
  /// two used to be conflated in a single `aborted_early` flag. On an
  /// abort the engine stamps the code here before rethrowing, so the stats
  /// carry the partial phase timings/counters accumulated up to the abort.
  QueryTermination termination = QueryTermination::kOk;
  /// The empty-absolute-master "simple optimization" (Section 5) fired:
  /// some branch was answered empty without running prune/join.
  bool empty_result_shortcut = false;
  int num_supernodes = 0;
  int num_union_branches = 1;
  // Cache observability (the CoW snapshot / fold-memo extension): per-query
  // TpCache hit/miss deltas, the cache's current held-triple load, and the
  // fold-memo hit/miss deltas across init + prune + the join's candidate
  // intersection. When several engines
  // share one cache (batch execution), the deltas include concurrent
  // queries' traffic — read them as cache-wide activity during this query.
  uint64_t tp_cache_hits = 0;
  uint64_t tp_cache_misses = 0;
  uint64_t tp_cache_held_triples = 0;
  uint64_t fold_cache_hits = 0;
  uint64_t fold_cache_misses = 0;
  // Contention observability (shared-cache deployments): shard-lock
  // acquisitions that found the lock held, and single-flight sleeps behind
  // another thread's load of the same pattern, during this query.
  uint64_t tp_cache_contention = 0;
  uint64_t tp_cache_flight_waits = 0;
  // Fold memos published through the once-flag during this query
  // (DESIGN.md §7).
  uint64_t fold_once_publishes = 0;
  // Planning observability (the compiled-plan cache, DESIGN.md §10).
  // t_plan_sec covers canonicalize + (on miss) parse/rewrite/GoSN/jvar
  // order + constant rebinding. The planning_* counters record how many
  // times each planning phase actually ran for THIS query — all zero on a
  // plan-cache hit, which is the observable proof that a hit skipped
  // parse, rewrite, GoSN clustering, and jvar ordering. The hit/miss
  // counters are per-query (not cache-wide deltas): a single-flight wait
  // served by another thread's compile counts as a hit.
  double t_plan_sec = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t planning_parses = 0;
  uint64_t planning_rewrites = 0;
  uint64_t planning_gosn_builds = 0;
  uint64_t planning_jvar_orders = 0;
  // Snapshot-tier observability (DESIGN.md §11; all zero on heap-backed
  // indexes). Materialization/spill/prefetch/verified-byte counts are
  // per-query deltas of the index-wide counters — like the tp_cache_*
  // deltas, concurrent queries' traffic is included. A materialization is
  // one (predicate, orientation) slice decode; verified bytes are the
  // directory + extent bytes those decodes checksummed. resident/budget
  // bytes are end-of-query levels.
  uint64_t snapshot_materializations = 0;
  uint64_t snapshot_spills = 0;
  uint64_t snapshot_prefetches = 0;
  uint64_t snapshot_verified_bytes = 0;
  uint64_t snapshot_resident_bytes = 0;
  uint64_t snapshot_budget_bytes = 0;
  // Fault-injection observability (DESIGN.md §12; all zero with the
  // registry disarmed). Per-query deltas of the process-wide registry
  // totals: faults injected at any site and transient-fault retry attempts
  // absorbed by the backoff layer during this query. Like the cache
  // deltas, concurrent queries' traffic is included. quarantined_slices is
  // the end-of-query level of degraded (quarantined) predicates.
  uint64_t faults_injected = 0;
  uint64_t fault_retries = 0;
  uint64_t quarantined_slices = 0;
};

/// A fully decoded result table (SELECT projection applied).
struct ResultTable {
  std::vector<std::string> var_names;
  std::vector<std::vector<std::optional<Term>>> rows;
};

/// One query's outcome in a batch execution (Engine::ExecuteBatch).
struct BatchResult {
  ResultTable table;
  QueryStats stats;
  /// Structured termination report: kOk, kOverloaded (admission rejected),
  /// kDeadlineExceeded / kCancelled / kMemoryExceeded (lifecycle abort), or
  /// kError (parse/unsupported/...). `error` mirrors the detail message of
  /// every non-ok outcome, so legacy `ok()` callers keep working.
  QueryOutcome outcome;
  std::string error;  ///< Non-empty when the query did not complete.
  /// Admission-to-start latency: how long the query sat in the run queue
  /// behind the concurrency cap before a runner picked it up.
  double queue_wait_sec = 0;
  bool ok() const { return error.empty(); }
};

/// Configuration for Engine::ExecuteBatch / Database::ExecuteBatch.
struct BatchOptions {
  /// Per-worker engine configuration. `engine.pool` is ignored — worker
  /// threads are already parallel, and nested collectives would inline
  /// anyway; intra-query sharding is a single-client optimization.
  EngineOptions engine;
  /// Fan-out pool; null runs the batch serially on the calling thread.
  ThreadPool* pool = nullptr;
  /// Cache shared by every worker engine. Null creates a fresh one when
  /// `engine.enable_tp_cache` is set.
  std::shared_ptr<TpCache> shared_cache;
  // --- Admission control (the serving-endpoint embryo, DESIGN.md §9).
  /// Maximum queries executing concurrently; 0 = one per pool slot (the
  /// pre-admission behavior), clamped to the pool's slot count.
  int max_concurrent_queries = 0;
  /// Bounded run queue behind the concurrency cap: queries beyond
  /// max_concurrent + max_queued_queries are load-shed upfront with
  /// QueryTermination::kOverloaded (never executed). Negative = unbounded.
  int max_queued_queries = -1;
  /// Per-query deadline in milliseconds, measured from the moment a runner
  /// picks the query up (queue wait is reported separately); 0 = none.
  uint64_t timeout_ms = 0;
  /// Per-query memory budget in approximate bytes; 0 = unlimited.
  uint64_t memory_budget = 0;
};

/// The Left Bit Right query engine (Algorithm 5.1).
///
/// Pipeline per UNION-free branch: GoSN + GoJ construction, well-designed
/// check (non-well-designed branches take the Appendix B edge conversion),
/// metadata selectivity estimation, get_jvar_order (Alg 3.1), BitMat init
/// with active pruning and the empty-absolute-master early abort,
/// prune_triples (Alg 3.2), multi-way pipelined join (Alg 5.4) with FaN for
/// filters, and best-match when Lemma 3.4's condition fails. UNION queries
/// are rewritten to UNF first (Section 5.2); rule-3 rewrites trigger a
/// final cross-branch best-match.
class Engine {
 public:
  /// Builds an engine over a prebuilt index. Both referents must outlive
  /// the engine.
  Engine(const TripleIndex* index, const Dictionary* dict,
         EngineOptions options = {});

  /// Builds an engine sharing a TP cache with other engines (the server
  /// deployment: N threads, one warm cache of CoW snapshots). A null
  /// `shared_cache` falls back to a private cache.
  Engine(const TripleIndex* index, const Dictionary* dict,
         EngineOptions options, std::shared_ptr<TpCache> shared_cache);

  // Out-of-line so `own_stats_`'s unique_ptr<PredicateStats> destructor
  // instantiates where the type is complete (engine.cc).
  ~Engine();

  /// Row callback: bindings follow `projection` order; kNullBinding slots
  /// are OPTIONAL misses.
  using RowSink = std::function<void(const RawRow&)>;

  /// Executes a parsed query, streaming projected rows to `sink`.
  /// Returns the number of rows. Throws UnsupportedQueryError for query
  /// shapes outside the engine's scope (Section 5: all-variable TPs,
  /// P-to-S/O joins, Cartesian products, unit OPTIONAL groups).
  ///
  /// `control` (optional, not owned, single-use) attaches a query lifecycle
  /// control: deadline, external Cancel(), and memory budget (DESIGN.md
  /// §9). On abort the engine stamps `stats->termination`, detaches the
  /// control, and rethrows the QueryAbortedError; no rows reach `sink`,
  /// and the engine stays fully reusable for the next query.
  uint64_t Execute(const ParsedQuery& query, const RowSink& sink,
                   QueryStats* stats = nullptr,
                   QueryControl* control = nullptr);

  /// Executes SPARQL text, streaming projected rows to `sink`. This is the
  /// plan-cache entry point (DESIGN.md §10): the text is canonicalized to
  /// a shape key, the compiled skeleton is fetched or compiled
  /// (single-flight), constants are rebound, and execution proceeds — so a
  /// repeated shape skips parse/rewrite/GoSN/jvar-order entirely. With
  /// enable_plan_cache off it parses and plans per call. `projection_out`
  /// (optional) receives the effective projection (the sink's row layout).
  uint64_t Execute(const std::string& sparql, const RowSink& sink,
                   QueryStats* stats = nullptr, QueryControl* control = nullptr,
                   std::vector<std::string>* projection_out = nullptr);

  /// Executes and materializes a decoded table.
  ResultTable ExecuteToTable(const ParsedQuery& query,
                             QueryStats* stats = nullptr,
                             QueryControl* control = nullptr);
  /// Executes SPARQL text (through the plan cache) into a decoded table.
  ResultTable ExecuteToTable(const std::string& sparql,
                             QueryStats* stats = nullptr,
                             QueryControl* control = nullptr);

  /// Batch driver: fans `queries` (SPARQL text) across `options.pool`, one
  /// engine per pool slot, all sharing one index and one TP cache. Each
  /// query runs single-threaded on its worker (engines are not re-entrant);
  /// parallelism comes from queries running side by side against the shared
  /// warm cache. Per-query failures are captured in BatchResult::error /
  /// BatchResult::outcome, not thrown. Results are positionally aligned
  /// with `queries`.
  ///
  /// Admission control: at most `options.max_concurrent_queries` runners
  /// drain a FIFO run queue; queries beyond the runners plus
  /// `options.max_queued_queries` waiting slots are rejected upfront with
  /// kOverloaded. Admitted queries get a per-query QueryControl carrying
  /// `options.timeout_ms` / `options.memory_budget`, and report their
  /// queue wait in BatchResult::queue_wait_sec.
  static std::vector<BatchResult> ExecuteBatch(
      const TripleIndex& index, const Dictionary& dict,
      const std::vector<std::string>& queries,
      const BatchOptions& options = {});

  const TripleIndex& index() const { return *index_; }
  const Dictionary& dict() const { return *dict_; }
  const EngineOptions& options() const { return options_; }

  /// The TP BitMat cache (meaningful when enable_tp_cache is set).
  const TpCache& tp_cache() const { return *tp_cache_; }
  void ClearTpCache() { tp_cache_->Clear(); }
  /// The shareable cache handle, for wiring sibling engines to one cache.
  std::shared_ptr<TpCache> shared_tp_cache() const { return tp_cache_; }

  /// The compiled-plan cache (meaningful when enable_plan_cache is set).
  const PlanCache& plan_cache() const { return *plan_cache_; }
  std::shared_ptr<PlanCache> shared_plan_cache() const { return plan_cache_; }
  /// Version-stamped invalidation hook: cached plans compiled before this
  /// call are recompiled on next use (for future incremental updates).
  void InvalidatePlans() { plan_cache_->BumpEpoch(); }

  /// The cost planner's stats table: the wired one, or a lazily collected
  /// private table.
  const PredicateStats& predicate_stats();

 private:
  struct BranchResult;
  /// Per-branch rebinding overlay for plan-cache hits: just the Terms that
  /// can differ from the template. Empty vectors mean "use the template's"
  /// — a branch whose TPs/filters contain no slot markers copies nothing.
  struct ReboundTerms {
    std::vector<TriplePattern> tps;
    std::vector<ScopedFilter> filters;
  };
  /// Planning half of a branch: GoSN/GoJ construction, validation,
  /// WD-violation conversion, nb_reqd, cardinalities, jvar order,
  /// orientations, load order. `slot_constants` (nullable) substitutes
  /// shape-marker terms before cardinality estimation, so a template
  /// compile plans with the triggering query's real constants.
  BranchPlan PlanBranch(const Algebra& branch,
                        const std::vector<Term>* slot_constants,
                        QueryStats* stats);
  /// Whole-query planning: rewrite to UNF, plan each branch.
  CompiledPlan CompilePlan(const ParsedQuery& query,
                           const std::vector<Term>* slot_constants,
                           QueryStats* stats);
  /// Execution half of a branch: init/prune/join/best-match. `rebound`
  /// (nullable) overlays concrete constants on a plan-cache hit; null (or
  /// empty members) means plan.gosn's own Terms are already concrete. The
  /// Gosn's structural state is always read from the shared template.
  BranchResult ExecuteBranchPlan(const BranchPlan& plan,
                                 const ReboundTerms* rebound,
                                 const std::vector<std::string>& projection,
                                 QueryStats* stats);
  /// Branch loop + rule-3 spurious cleanup + sink delivery. `rebound`
  /// (nullable, parallel to plan.branches) supplies per-branch constant
  /// overlays on a plan-cache hit; null means the plan is already concrete.
  uint64_t ExecutePlanned(const CompiledPlan& plan,
                          const std::vector<ReboundTerms>* rebound,
                          const RowSink& sink, QueryStats* st,
                          const Stopwatch& total_watch);
  /// Execute's body once the lifecycle control is attached: Execute wraps
  /// it to stamp stats->termination and detach the control on abort.
  uint64_t ExecuteControlled(const ParsedQuery& query, const RowSink& sink,
                             QueryStats* st, const Stopwatch& total_watch);
  /// Text-path body: canonicalize, fetch-or-compile, rebind, execute.
  uint64_t ExecuteTextControlled(const std::string& sparql,
                                 const RowSink& sink, QueryStats* st,
                                 const Stopwatch& total_watch,
                                 std::vector<std::string>* projection_out);

  const TripleIndex* index_;
  const Dictionary* dict_;
  EngineOptions options_;
  std::shared_ptr<TpCache> tp_cache_;
  std::shared_ptr<PlanCache> plan_cache_;
  /// Lazily collected stats when the cost planner runs without a wired
  /// table (options_.predicate_stats == nullptr).
  std::unique_ptr<PredicateStats> own_stats_;
  /// Scratch arena threaded through init/prune/join; buffer capacity is
  /// retained across queries, so a warm engine's hot path stays off the
  /// heap. Makes the engine single-threaded per instance (as before).
  ExecContext exec_ctx_;
};

}  // namespace lbr

#endif  // LBR_CORE_ENGINE_H_

#ifndef LBR_CORE_PRUNE_H_
#define LBR_CORE_PRUNE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/goj.h"
#include "core/gosn.h"
#include "core/jvar_order.h"
#include "core/tp_state.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace lbr {

/// Semi-join (Algorithm 5.2): restricts the slave TP's bindings of `jvar`
/// to those shared with the master TP —
///   beta = fold(master, dim_j) AND fold(slave, dim_j); unfold(slave, beta).
/// Folds over different dimension domains (subject vs object position) are
/// aligned through AlignMask, truncating at the Vso bound. Only the slave's
/// BitMat is modified. All fold/mask buffers come from `ctx` when given.
/// With a `pool`, the memo-miss folds and the unfold shard their row ranges
/// across the pool's workers (DESIGN.md §5).
void SemiJoin(const std::string& jvar, TpState* slave, const TpState& master,
              uint32_t num_common, ExecContext* ctx = nullptr,
              ThreadPool* pool = nullptr);

/// Clustered semi-join (Definition 3.1, Algorithm 5.3): intersects the
/// `jvar` bindings of every TP in the cluster and unfolds each TP with the
/// intersection.
void ClusteredSemiJoin(const std::string& jvar,
                       const std::vector<TpState*>& cluster,
                       uint32_t num_common, ExecContext* ctx = nullptr,
                       ThreadPool* pool = nullptr);

/// prune_triples (Algorithm 3.2): walks order_bu then order_td; for each
/// jvar, first semi-joins every master/slave TP pair sharing it (slave takes
/// the master's restrictions), then clustered-semi-joins the TPs sharing it
/// within each peer group of supernodes.
///
/// For an acyclic well-designed query this leaves every TP with a minimal
/// set of triples (Lemma 3.3); for cyclic queries it only reduces them.
///
/// With an ExecContext the whole fixpoint loop runs out of pooled fold and
/// mask buffers — no per-iteration Bitvector allocations. Folds of TPs no
/// semi-join has changed (most of the second pass) are served from the
/// BitMats' version-stamped fold memos without row iteration (DESIGN.md §4).
///
/// With a `pool` the semi-join sequence stays in Alg 3.2 order; each
/// semi-join shards its fold/unfold row work across the pool's workers
/// (DESIGN.md §5), so every TpState is mutated only by the calling thread
/// through its own collectives.
void PruneTriples(const JvarOrder& order, const Gosn& gosn, const Goj& goj,
                  uint32_t num_common, std::vector<TpState>* tps,
                  ExecContext* ctx = nullptr, ThreadPool* pool = nullptr);

}  // namespace lbr

#endif  // LBR_CORE_PRUNE_H_

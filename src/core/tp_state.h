#ifndef LBR_CORE_TP_STATE_H_
#define LBR_CORE_TP_STATE_H_

#include <cstdint>

#include "bitmat/tp_loader.h"
#include "sparql/ast.h"

namespace lbr {

/// Candidate-enumeration strategy of the multiway pipelined join
/// (Alg 5.4). All modes emit the exact same row sequence; the knob exists
/// for the bench/ablation_join comparison.
enum class JoinEnumMode : uint8_t {
  /// Word-parallel intersection of the candidate row with the folds/bound
  /// rows of unvisited absolute-master TPs sharing the variable, before
  /// recursing.
  kIntersect = 0,
  /// Legacy per-bit enumeration: every set bit of the candidate row
  /// recurses and is Test-probed by the sibling TPs one level down.
  kPerBit = 1,
  /// Block-at-a-time (default, DESIGN.md §8): the intersect filtering plus
  /// block descent — an absolute-master TP's surviving matches are
  /// materialized into a per-level block and iterated in a tight loop with
  /// binding setup/teardown and child-TP selection hoisted out of the
  /// per-candidate path; slave TPs stay per-bit (NULL-row contract) with
  /// their expansions memoized by binding signature.
  kBlock = 2,
};

/// Per-triple-pattern query state: the TP, its supernode, its loaded BitMat
/// (with the variable/dimension mapping), and bookkeeping counters used by
/// the evaluation metrics of Section 6 (#initial triples, #triples after
/// pruning).
struct TpState {
  TriplePattern tp;
  int tp_id = 0;
  int sn_id = 0;
  TpBitMat mat;
  uint64_t estimated_count = 0;  ///< Metadata estimate, before loading.
  uint64_t initial_count = 0;    ///< Triples loaded by init (after active pruning).

  uint64_t CurrentCount() const { return mat.bm.Count(); }
};

}  // namespace lbr

#endif  // LBR_CORE_TP_STATE_H_

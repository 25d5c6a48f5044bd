#include "bitmat/tp_loader.h"

#include <algorithm>

#include "util/fault_injection.h"

namespace lbr {

namespace {

using SliceRows = TripleIndex::Rows;

// Copies (id, row) pairs into `bm`, applying the active-pruning masks.
// `present` is the slice's non-empty-row bit array (exactly the ids in
// `rows`): a row mask is intersected with it word-wise, and only the
// surviving ids are sought in `rows` with a forward cursor, so a selective
// mask never scans the whole slice.
void FillRows(const SliceRows& rows, const Bitvector& present,
              const ActiveMasks& masks, ExecContext* ctx, BitMat* bm) {
  ScratchPositions scratch(ctx);
  auto store = [&](uint32_t id, const CompressedRow& row) {
    if (masks.col_mask != nullptr) {
      SetRowMasked(id, row, *masks.col_mask, scratch.get(), bm);
    } else {
      bm->SetRow(id, row);
    }
  };
  if (masks.row_mask == nullptr) {
    for (const auto& [id, row] : rows) store(id, row);
    return;
  }
  ScratchPositions ids(ctx);
  present.AppendAndSetBits(*masks.row_mask, ids.get());
  auto it = rows.begin();
  for (uint32_t id : *ids) {
    it = std::lower_bound(it, rows.end(), id,
                          [](const SliceRows::value_type& e, uint32_t v) {
                            return e.first < v;
                          });
    if (it == rows.end()) break;
    if (it->first == id) store(id, it->second);
  }
}

// The row every single-column load stores: bit 0 set. One immutable handle
// is shared by all rows of a load.
BitMat::RowHandle UnitRow() {
  return std::make_shared<const CompressedRow>(
      CompressedRow::FromPositions({0}));
}

// Sets the single-column rows of `bm` from the set bits of `row`, honoring
// the row-domain mask (ANDed into the row before iterating).
void FillColumnVector(const CompressedRow& row, const ActiveMasks& masks,
                      ExecContext* ctx, BitMat* bm) {
  if (row.IsEmpty()) return;
  BitMat::RowHandle unit = UnitRow();
  if (masks.row_mask == nullptr) {
    row.ForEachSetBit([&](uint32_t id) { bm->SetRowShared(id, unit); });
    return;
  }
  ScratchPositions ids(ctx);
  row.AppendMaskedPositions(*masks.row_mask, ids.get());
  for (uint32_t id : *ids) bm->SetRowShared(id, unit);
}

// Restricts a same-variable TP (?x p ?x) to its diagonal: only IDs in the
// shared Vso range can denote the same term on both dimensions. Rebuilt in
// ascending row order (appends) from the populated rows only.
void KeepDiagonal(uint32_t num_common, BitMat* bm) {
  BitMat diag(bm->num_rows(), bm->num_cols());
  bm->NonEmptyRows().ForEachSetBit([&](uint32_t r) {
    if (r < num_common && bm->Row(r).Test(r)) {
      diag.SetRow(r, CompressedRow::FromPositions({r}));
    }
  });
  *bm = std::move(diag);
}

}  // namespace

Bitvector AlignMask(const Bitvector& src, DomainKind src_kind,
                    DomainKind dst_kind, uint32_t num_common,
                    uint32_t dst_size) {
  Bitvector out;
  AlignMaskInto(src, src_kind, dst_kind, num_common, dst_size, &out);
  return out;
}

void AlignMaskInto(const Bitvector& src, DomainKind src_kind,
                   DomainKind dst_kind, uint32_t num_common,
                   uint32_t dst_size, Bitvector* out) {
  if (src_kind == DomainKind::kPredicate || dst_kind == DomainKind::kPredicate) {
    if (src_kind != dst_kind) {
      throw UnsupportedQueryError(
          "joins between predicate-position and subject/object-position "
          "variables are not supported (Section 5 limitation)");
    }
  }
  // Word-wise prefix copy, then Vso truncation for subject<->object
  // conversions (only the shared ID range is join-compatible).
  out->AssignResized(src, dst_size);
  if (src_kind != dst_kind &&
      (src_kind == DomainKind::kSubject || src_kind == DomainKind::kObject)) {
    out->TruncateBitsFrom(num_common);
  }
}

Orientation SliceOrientationOf(const TriplePattern& tp,
                               bool prefer_subject_rows) {
  // A fixed subject is found as an S-O row; a fixed object (with a
  // variable subject) as an O-S row; (?a :p ?b) goes by the jvar order.
  return tp.s.is_var && (!tp.o.is_var || !prefer_subject_rows)
             ? Orientation::kOS
             : Orientation::kSO;
}

namespace {

TpBitMat LoadTpBitMatImpl(const TripleIndex& index, const Dictionary& dict,
                          const TriplePattern& tp, bool prefer_subject_rows,
                          const ActiveMasks& masks, ExecContext* ctx) {
  const bool sv = tp.s.is_var, pv = tp.p.is_var, ov = tp.o.is_var;
  if (sv && pv && ov) {
    throw UnsupportedQueryError(
        "triple patterns with all three positions variable are not "
        "supported: " +
        tp.ToString());
  }

  TpBitMat out;
  auto subject_id = [&]() -> std::optional<uint32_t> {
    return dict.SubjectId(tp.s.term);
  };
  auto predicate_id = [&]() -> std::optional<uint32_t> {
    return dict.PredicateId(tp.p.term);
  };
  auto object_id = [&]() -> std::optional<uint32_t> {
    return dict.ObjectId(tp.o.term);
  };

  if (!pv) {
    std::optional<uint32_t> p = predicate_id();
    if (sv && ov) {
      // (?a :p ?b): full predicate slice, orientation by the jvar order.
      // Pin the slice across the copy-out so a concurrent snapshot spill
      // cannot free the row vector mid-iteration (mapped mode).
      TripleIndex::SlicePin pin =
          p ? index.Slice(*p, SliceOrientationOf(tp, prefer_subject_rows))
            : nullptr;
      if (prefer_subject_rows) {
        out.row_kind = DomainKind::kSubject;
        out.col_kind = DomainKind::kObject;
        out.row_var = tp.s.var;
        out.col_var = tp.o.var;
        out.bm = BitMat(index.num_subjects(), index.num_objects());
        if (pin) {
          FillRows(pin->rows, index.SubjectsOf(*p), masks, ctx, &out.bm);
        }
      } else {
        out.row_kind = DomainKind::kObject;
        out.col_kind = DomainKind::kSubject;
        out.row_var = tp.o.var;
        out.col_var = tp.s.var;
        out.bm = BitMat(index.num_objects(), index.num_subjects());
        if (pin) {
          FillRows(pin->rows, index.ObjectsOf(*p), masks, ctx, &out.bm);
        }
      }
      if (tp.s.var == tp.o.var) KeepDiagonal(index.num_common(), &out.bm);
      return out;
    }
    if (sv) {
      // (?a :p :o): one row of the P-S BitMat of :o == OsRow(p, o).
      out.row_kind = DomainKind::kSubject;
      out.row_var = tp.s.var;
      out.bm = BitMat(index.num_subjects(), 1);
      std::optional<uint32_t> o = object_id();
      if (p && o) {
        TripleIndex::SlicePin pin = index.Slice(*p, Orientation::kOS);
        FillColumnVector(TripleIndex::FindRowIn(pin->rows, *o), masks,
                         ctx, &out.bm);
      }
      return out;
    }
    if (ov) {
      // (:s :p ?b): one row of the P-O BitMat of :s == SoRow(p, s).
      out.row_kind = DomainKind::kObject;
      out.row_var = tp.o.var;
      out.bm = BitMat(index.num_objects(), 1);
      std::optional<uint32_t> s = subject_id();
      if (p && s) {
        TripleIndex::SlicePin pin = index.Slice(*p, Orientation::kSO);
        FillColumnVector(TripleIndex::FindRowIn(pin->rows, *s), masks,
                         ctx, &out.bm);
      }
      return out;
    }
    // Fully fixed (:s :p :o): a 1x1 existence matrix.
    out.bm = BitMat(1, 1);
    std::optional<uint32_t> s = subject_id();
    std::optional<uint32_t> o = object_id();
    if (p && s && o) {
      TripleIndex::SlicePin pin = index.Slice(*p, Orientation::kSO);
      if (TripleIndex::FindRowIn(pin->rows, *s).Test(*o)) {
        out.bm.SetRow(0, CompressedRow::FromPositions({0}));
      }
    }
    return out;
  }

  // Variable predicate.
  if (!sv && ov) {
    // (:s ?p ?b): the P-O BitMat of :s.
    out.row_kind = DomainKind::kPredicate;
    out.col_kind = DomainKind::kObject;
    out.row_var = tp.p.var;
    out.col_var = tp.o.var;
    out.bm = BitMat(index.num_predicates(), index.num_objects());
    std::optional<uint32_t> s = subject_id();
    if (s) {
      ScratchPositions scratch(ctx);
      for (uint32_t p = 0; p < index.num_predicates(); ++p) {
        if (masks.row_mask != nullptr &&
            (p >= masks.row_mask->size() || !masks.row_mask->Get(p))) {
          continue;
        }
        // The always-resident metadata rules out slices without :s, so
        // a mapped index materializes only the slices that hold it.
        if (!index.SubjectsOf(p).Get(*s)) continue;
        TripleIndex::SlicePin pin = index.Slice(p, Orientation::kSO);
        const CompressedRow& row = TripleIndex::FindRowIn(pin->rows, *s);
        if (row.IsEmpty()) continue;
        if (masks.col_mask != nullptr) {
          SetRowMasked(p, row, *masks.col_mask, scratch.get(), &out.bm);
        } else {
          out.bm.SetRow(p, row);
        }
      }
    }
    return out;
  }
  if (sv && !ov) {
    // (?a ?p :o): the P-S BitMat of :o.
    out.row_kind = DomainKind::kPredicate;
    out.col_kind = DomainKind::kSubject;
    out.row_var = tp.p.var;
    out.col_var = tp.s.var;
    out.bm = BitMat(index.num_predicates(), index.num_subjects());
    std::optional<uint32_t> o = object_id();
    if (o) {
      ScratchPositions scratch(ctx);
      for (uint32_t p = 0; p < index.num_predicates(); ++p) {
        if (masks.row_mask != nullptr &&
            (p >= masks.row_mask->size() || !masks.row_mask->Get(p))) {
          continue;
        }
        if (!index.ObjectsOf(p).Get(*o)) continue;
        TripleIndex::SlicePin pin = index.Slice(p, Orientation::kOS);
        const CompressedRow& row = TripleIndex::FindRowIn(pin->rows, *o);
        if (row.IsEmpty()) continue;
        if (masks.col_mask != nullptr) {
          SetRowMasked(p, row, *masks.col_mask, scratch.get(), &out.bm);
        } else {
          out.bm.SetRow(p, row);
        }
      }
    }
    return out;
  }
  // (:s ?p :o): predicates linking the fixed pair.
  out.row_kind = DomainKind::kPredicate;
  out.row_var = tp.p.var;
  out.bm = BitMat(index.num_predicates(), 1);
  std::optional<uint32_t> s = subject_id();
  std::optional<uint32_t> o = object_id();
  if (s && o) {
    BitMat::RowHandle unit = UnitRow();
    for (uint32_t p = 0; p < index.num_predicates(); ++p) {
      if (masks.row_mask != nullptr &&
          (p >= masks.row_mask->size() || !masks.row_mask->Get(p))) {
        continue;
      }
      if (!index.SubjectsOf(p).Get(*s)) continue;
      TripleIndex::SlicePin pin = index.Slice(p, Orientation::kSO);
      if (TripleIndex::FindRowIn(pin->rows, *s).Test(*o)) {
        out.bm.SetRowShared(p, unit);
      }
    }
  }
  return out;
}

}  // namespace

TpBitMat LoadTpBitMat(const TripleIndex& index, const Dictionary& dict,
                      const TriplePattern& tp, bool prefer_subject_rows,
                      const ActiveMasks& masks, ExecContext* ctx) {
  // Materialization is a pure read of the index: a transient fault injected
  // at tp_loader.load (or bubbling up from a slice materialization) leaves
  // nothing partial behind, so the whole load is safely retryable.
  return RetryTransient([&] {
    FaultRegistry::Instance().MaybeInject(FaultSiteId::kTpLoaderLoad);
    return LoadTpBitMatImpl(index, dict, tp, prefer_subject_rows, masks, ctx);
  });
}

}  // namespace lbr

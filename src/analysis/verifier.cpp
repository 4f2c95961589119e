#include "analysis/verifier.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "analysis/facts.h"
#include "analysis/verdict.h"

namespace folvec::analysis {

namespace {

/// A maybe-stale index span [lo, hi) of one table region (the replay's
/// pointer-free analogue of the analyzer's ClobSpan).
struct IdxSpan {
  Word lo = 0;
  Word hi = 0;
  bool exact = false;
};

struct ReplayWindow {
  std::uint32_t region = kNoRegion;
  WindowCtx kind = WindowCtx::kNone;
  std::vector<IdxSpan> writes;
};

class Replay {
 public:
  explicit Replay(const OpGraph& g) : g_(g) { facts_.resize(g.nodes.size()); }

  ReplayResult run() {
    for (std::uint32_t id = 0; id < g_.nodes.size(); ++id) {
      const OpNode& n = g_.nodes[id];
      step(id, n);
    }
    return std::move(result_);
  }

 private:
  LaneFacts in_facts(const OpNode& n, std::size_t i,
                     std::size_t fallback_lanes) const {
    if (i < n.inputs.size() && n.inputs[i] < facts_.size()) {
      return facts_[n.inputs[i]];
    }
    return LaneFacts::unknown(fallback_lanes);
  }

  /// The index-space footprint of a memory op, clamped to its table.
  static IdxSpan footprint(const LaneFacts& idx, std::size_t table_size) {
    if (!idx.has_range) {
      return {0, static_cast<Word>(table_size), false};
    }
    if (idx.lanes == 0 || table_size == 0) return {0, 0, false};
    const Word lo = std::max<Word>(idx.lo, 0);
    const Word hi =
        std::min<Word>(idx.hi, static_cast<Word>(table_size) - 1) + 1;
    if (lo >= hi) return {0, 0, false};
    return {lo, hi, false};
  }

  void clear_spans(std::vector<IdxSpan>* spans, Word lo, Word hi,
                   bool full_cover) {
    if (lo >= hi || spans->empty()) return;
    std::vector<IdxSpan> out;
    out.reserve(spans->size());
    for (const IdxSpan& s : *spans) {
      if (s.hi <= lo || s.lo >= hi) {
        out.push_back(s);
        continue;
      }
      if (!full_cover) {
        IdxSpan weak = s;
        weak.exact = false;
        out.push_back(weak);
        continue;
      }
      if (s.lo < lo) out.push_back({s.lo, lo, s.exact});
      if (s.hi > hi) out.push_back({hi, s.hi, s.exact});
    }
    *spans = std::move(out);
  }

  void overwrite(std::uint32_t region, Word lo, Word hi, bool full_cover) {
    if (auto it = clob_.find(region); it != clob_.end()) {
      clear_spans(&it->second, lo, hi, full_cover);
    }
    for (ReplayWindow& w : windows_) {
      if (w.region == region) clear_spans(&w.writes, lo, hi, full_cover);
    }
  }

  ClobberOverlap overlap_for(std::uint32_t region, const LaneFacts& idx,
                             std::size_t table_size) const {
    ClobberOverlap co;
    const auto it = clob_.find(region);
    if (it == clob_.end() || it->second.empty()) return co;
    const IdxSpan fp = footprint(idx, table_size);
    for (const IdxSpan& s : it->second) {
      if (s.lo < fp.hi && s.hi > fp.lo) co.any = true;
    }
    if (idx.has_range && idx.lanes > 0) {
      const auto edge_hit = [&](Word i) {
        if (i < 0 || static_cast<std::uint64_t>(i) >= table_size) return false;
        for (const IdxSpan& s : it->second) {
          if (s.exact && i >= s.lo && i < s.hi) return true;
        }
        return false;
      };
      co.lo_hit = edge_hit(idx.lo);
      co.hi_hit = edge_hit(idx.hi);
    }
    return co;
  }

  void book_write(std::uint32_t region, const LaneFacts& idx,
                  std::size_t table_size, bool masked) {
    for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
      if (it->region != region) continue;
      if (it->kind == WindowCtx::kLabelRound) {
        IdxSpan fp = footprint(idx, table_size);
        if (fp.lo >= fp.hi) return;
        fp.exact = !masked && idx.covers_range();
        it->writes.push_back(fp);
      }
      return;
    }
  }

  void diagnose(const OpNode& n, std::uint32_t id, HazardClass cls) {
    Diagnostic d;
    d.cls = cls;
    d.verdict = Verdict::kProvenHazard;
    d.node = id;
    d.line = n.line;
    d.message = std::string(opcode_name(n.op)) + ": proven " +
                hazard_class_name(cls) + " hazard";
    result_.diagnostics.push_back(std::move(d));
  }

  void check(std::uint32_t id, const OpNode& n) {
    const LaneFacts idxf = in_facts(n, 0, n.lanes);
    OpVerdicts v;  // vacuously safe per class
    const bool in_window = n.window != WindowCtx::kNone;
    if (n.op == Opcode::kGather) {
      v[HazardClass::kBounds] = judge_bounds(idxf, n.table_size, n.masked);
      v[HazardClass::kClobber] = judge_read_clobber(
          idxf, in_window, overlap_for(n.region, idxf, n.table_size));
    } else {
      const LaneFacts valsf = in_facts(n, 1, n.lanes);
      const bool sge = n.op == Opcode::kScatterGatherEq;
      // sge's readback pass checks every lane regardless of the mask.
      v[HazardClass::kBounds] =
          judge_bounds(idxf, n.table_size, sge ? false : n.masked);
      v[HazardClass::kOverlap] =
          judge_scatter_overlap(idxf, valsf, n.window, n.masked, n.ordered);
      if (sge && n.masked) {
        v[HazardClass::kClobber] = judge_read_clobber(
            idxf, in_window, overlap_for(n.region, idxf, n.table_size));
      }
    }
    ++result_.checked_ops;
    switch (v.overall()) {
      case Verdict::kProvenSafe:
        ++result_.safe_ops;
        break;
      case Verdict::kProvenHazard:
        ++result_.hazard_ops;
        break;
      case Verdict::kUnknown:
        ++result_.unknown_ops;
        break;
    }
    for (std::size_t c = 0; c < kHazardClassCount; ++c) {
      const auto cls = static_cast<HazardClass>(c);
      if (v[cls] == Verdict::kProvenHazard) diagnose(n, id, cls);
      if (v[cls] != n.verdicts[cls]) {
        result_.mismatches.push_back(
            "node " + std::to_string(id) + " (" + opcode_name(n.op) + "): " +
            hazard_class_name(cls) + " replayed as " + verdict_name(v[cls]) +
            " but recorded as " + verdict_name(n.verdicts[cls]));
      }
    }

    // Table effects of the write half (the runtime erases stale marks at
    // rewritten addresses in- and out-of-window alike).
    if (opcode_scatter_class(n.op)) {
      const IdxSpan fp = footprint(idxf, n.table_size);
      overwrite(n.region, fp.lo, fp.hi, !n.masked && idxf.covers_range());
      book_write(n.region, idxf, n.table_size, n.masked);
    }
  }

  void step(std::uint32_t id, const OpNode& n) {
    LaneFacts f = LaneFacts::unknown(n.lanes);
    switch (n.op) {
      case Opcode::kSource:
        f = n.facts;  // first-seen operand: the recorded snapshot is the def
        break;
      case Opcode::kObserveRange: {
        if (n.lanes == 0) {
          f.distinct = true;
          f.sorted = true;
        } else {
          f = facts_observed(n.lanes, n.s0, n.s1);
          // The structural bits are measurements of the concrete lanes (the
          // scan certifies sortedness / strict monotonicity); replay trusts
          // the recorded snapshot like a kSource, then merges anything the
          // replayed input facts additionally prove.
          f.distinct = n.facts.distinct;
          f.sorted = n.facts.sorted;
          if (!n.aux.empty() && n.aux[0] < facts_.size()) {
            f.distinct = f.distinct || facts_[n.aux[0]].distinct;
            f.sorted = f.sorted || facts_[n.aux[0]].sorted;
          }
        }
        break;
      }
      case Opcode::kIota:
        f = facts_iota(n.lanes, n.s0, n.s1);
        break;
      case Opcode::kSplat:
        f = facts_splat(n.lanes, n.s0);
        break;
      case Opcode::kCopy:
        f = facts_copy(in_facts(n, 0, n.lanes));
        break;
      case Opcode::kReverse:
        f = facts_reverse(in_facts(n, 0, n.lanes));
        break;
      case Opcode::kAdd:
        f = facts_add(in_facts(n, 0, n.lanes), in_facts(n, 1, n.lanes));
        break;
      case Opcode::kSub:
        f = facts_sub(in_facts(n, 0, n.lanes), in_facts(n, 1, n.lanes));
        break;
      case Opcode::kMul:
        f = facts_mul(in_facts(n, 0, n.lanes), in_facts(n, 1, n.lanes));
        break;
      case Opcode::kAddScalar:
        f = facts_add_scalar(in_facts(n, 0, n.lanes), n.s0);
        break;
      case Opcode::kMulScalar:
        f = facts_mul_scalar(in_facts(n, 0, n.lanes), n.s0);
        break;
      case Opcode::kDivScalar:
        f = facts_div_scalar(in_facts(n, 0, n.lanes), n.s0);
        break;
      case Opcode::kModScalar:
        f = facts_mod_scalar(in_facts(n, 0, n.lanes), n.s0);
        break;
      case Opcode::kAndScalar:
        f = facts_and_scalar(in_facts(n, 0, n.lanes), n.s0);
        break;
      case Opcode::kOrScalar:
        f = facts_or_scalar(in_facts(n, 0, n.lanes), n.s0);
        break;
      case Opcode::kShlScalar:
        f = facts_shl_scalar(in_facts(n, 0, n.lanes), n.s0);
        break;
      case Opcode::kShrScalar:
        f = facts_shr_scalar(in_facts(n, 0, n.lanes), n.s0);
        break;
      case Opcode::kNegate:
        f = facts_negate(in_facts(n, 0, n.lanes));
        break;
      case Opcode::kCompress:
      case Opcode::kPartitionKept:
      case Opcode::kPartitionRejected:
        f = facts_subset(in_facts(n, 0, n.lanes), n.lanes);
        break;
      case Opcode::kSelect:
        f = facts_select(in_facts(n, 0, n.lanes), in_facts(n, 1, n.lanes),
                         n.lanes);
        break;
      case Opcode::kFromMask:
        f = facts_from_mask(n.lanes);
        break;
      case Opcode::kWindowOpen:
        windows_.push_back(ReplayWindow{n.region, n.window, {}});
        break;
      case Opcode::kWindowClose: {
        if (!windows_.empty()) {
          ReplayWindow w = std::move(windows_.back());
          windows_.pop_back();
          if (w.kind == WindowCtx::kLabelRound) {
            auto& spans = clob_[w.region];
            for (const IdxSpan& s : w.writes) spans.push_back(s);
          }
        }
        break;
      }
      case Opcode::kStore:
      case Opcode::kStoreStrided:
      case Opcode::kFill: {
        if (n.lanes > 0 && n.s1 > 0) {
          const Word lo = n.s0;
          const Word hi = n.s0 + static_cast<Word>(n.lanes - 1) * n.s1 + 1;
          overwrite(n.region, lo, hi, n.s1 == 1);
        }
        break;
      }
      case Opcode::kScalarStore:
        overwrite(n.region, n.s0, n.s0 + 1, false);
        break;
      case Opcode::kRetireWork:
        overwrite(n.region, 0, static_cast<Word>(n.table_size), true);
        break;
      case Opcode::kGather:
      case Opcode::kScatter:
      case Opcode::kScatterOrdered:
      case Opcode::kScatterGatherEq:
        check(id, n);
        break;
      default:
        break;  // masks, reductions, loads: no replayed state
    }
    facts_[id] = f;
  }

  const OpGraph& g_;
  std::vector<LaneFacts> facts_;
  std::vector<ReplayWindow> windows_;
  std::map<std::uint32_t, std::vector<IdxSpan>> clob_;
  ReplayResult result_;
};

}  // namespace

ReplayResult verify(const OpGraph& graph) { return Replay(graph).run(); }

}  // namespace folvec::analysis

#include "analysis/analyzer.h"

#include <algorithm>
#include <utility>

namespace folvec::analysis {

namespace {

constexpr std::size_t kMaxDiagnostics = 1024;
constexpr std::size_t kMaxClobberSpans = 128;
constexpr std::size_t kMaxWindowWrites = 64;

struct Footprint {
  const Word* b = nullptr;
  const Word* e = nullptr;
};

/// The address range a memory op with index facts `idx` can touch inside
/// `table`, clamped to the table (out-of-range lanes would throw before
/// touching memory; for clobber state we only care about table addresses).
Footprint footprint(std::span<const Word> table, const LaneFacts& idx) {
  const Word* tb = table.data();
  if (!idx.has_range) return {tb, tb + table.size()};
  if (idx.lanes == 0 || table.empty()) return {tb, tb};
  const Word lo = std::max<Word>(idx.lo, 0);
  const Word max_index = static_cast<Word>(table.size()) - 1;
  const Word hi = std::min<Word>(idx.hi, max_index);
  if (lo > hi) return {tb, tb};
  return {tb + lo, tb + hi + 1};
}

}  // namespace

// ---- facts bookkeeping ------------------------------------------------------

LaneFacts Analyzer::lookup(std::span<const Word> v) const {
  LaneFacts f = LaneFacts::unknown(v.size());
  if (v.empty()) {
    f.distinct = true;
    f.sorted = true;
    return f;
  }
  auto it = values_.upper_bound(v.data());
  if (it == values_.begin()) return f;
  --it;
  const ValueEntry& ent = it->second;
  if (v.data() + v.size() > it->first + ent.len) return f;
  // v is a contained subspan: interval, distinctness and sortedness all
  // restrict to subsets; tightness only survives an exact match (the lanes
  // attaining the endpoints may lie outside the subspan).
  LaneFacts g = ent.facts;
  g.lanes = v.size();
  if (it->first == v.data() && ent.len == v.size()) return g;
  g.tight = false;
  return g;
}

void Analyzer::remember(std::span<const Word> out, const LaneFacts& f,
                        std::uint32_t node) {
  if (out.empty()) return;
  invalidate(out.data(), out.data() + out.size());
  values_.emplace(out.data(), ValueEntry{out.size(), f, node});
}

void Analyzer::invalidate(const Word* begin, const Word* end) {
  if (begin >= end || values_.empty()) return;
  auto it = values_.lower_bound(begin);
  if (it != values_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > begin) it = prev;
  }
  while (it != values_.end() && it->first < end) {
    if (it->first + it->second.len > begin) {
      it = values_.erase(it);
    } else {
      ++it;
    }
  }
}

std::uint32_t Analyzer::value_node(std::span<const Word> v) {
  if (!opts_.record_graph) return kNoNode;
  auto it = values_.find(v.data());
  if (it != values_.end() && it->second.len == v.size()) {
    if (it->second.node == kNoNode) {
      OpNode src;
      src.op = Opcode::kSource;
      src.lanes = v.size();
      src.facts = it->second.facts;
      it->second.node = graph_.add(std::move(src));
    }
    return it->second.node;
  }
  OpNode src;
  src.op = Opcode::kSource;
  src.lanes = v.size();
  src.facts = lookup(v);
  return graph_.add(std::move(src));
}

std::uint32_t Analyzer::mask_node(std::span<const std::uint8_t> m) {
  if (!opts_.record_graph) return kNoNode;
  auto it = masks_.find(m.data());
  if (it != masks_.end() && it->second.len == m.size()) {
    if (it->second.node == kNoNode) {
      OpNode src;
      src.op = Opcode::kSource;
      src.lanes = m.size();
      it->second.node = graph_.add(std::move(src));
    }
    return it->second.node;
  }
  OpNode src;
  src.op = Opcode::kSource;
  src.lanes = m.size();
  return graph_.add(std::move(src));
}

void Analyzer::remember_mask(std::span<const std::uint8_t> out,
                             std::uint32_t node) {
  if (out.empty()) return;
  const std::uint8_t* b = out.data();
  const std::uint8_t* e = b + out.size();
  auto it = masks_.lower_bound(b);
  if (it != masks_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > b) it = prev;
  }
  while (it != masks_.end() && it->first < e) {
    if (it->first + it->second.len > b) {
      it = masks_.erase(it);
    } else {
      ++it;
    }
  }
  masks_.emplace(b, MaskEntry{out.size(), node});
}

// ---- graph bookkeeping ------------------------------------------------------

std::uint32_t Analyzer::record(OpNode n) {
  if (!opts_.record_graph) return kNoNode;
  if (n.line == 0) n.line = line_;
  return graph_.add(std::move(n));
}

std::uint32_t Analyzer::region_of(std::span<const Word> table) {
  auto [it, fresh] = regions_.try_emplace(
      table.data(), static_cast<std::uint32_t>(graph_.region_sizes.size()));
  if (fresh) {
    graph_.region_sizes.push_back(table.size());
  } else if (graph_.region_sizes[it->second] < table.size()) {
    graph_.region_sizes[it->second] = table.size();
  }
  return it->second;
}

// ---- clobber / window state -------------------------------------------------

const Analyzer::Win* Analyzer::covering_window(
    std::span<const Word> table) const {
  for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
    if (table.data() >= it->begin && table.data() + table.size() <= it->end) {
      return &*it;
    }
  }
  return nullptr;
}

Analyzer::Win* Analyzer::covering_window(std::span<const Word> table) {
  return const_cast<Win*>(
      static_cast<const Analyzer*>(this)->covering_window(table));
}

ClobberOverlap Analyzer::clobber_overlap(std::span<const Word> table,
                                         const LaneFacts& idx) const {
  ClobberOverlap co;
  if (clobbered_.empty()) return co;
  const Footprint fp = footprint(table, idx);
  for (const ClobSpan& s : clobbered_) {
    if (s.lo < fp.e && s.hi > fp.b) co.any = true;
  }
  if (idx.has_range && idx.lanes > 0) {
    const auto edge_hit = [&](Word i) {
      if (i < 0 || static_cast<std::uint64_t>(i) >= table.size()) return false;
      const Word* p = table.data() + i;
      for (const ClobSpan& s : clobbered_) {
        if (s.exact && p >= s.lo && p < s.hi) return true;
      }
      return false;
    };
    co.lo_hit = edge_hit(idx.lo);
    co.hi_hit = edge_hit(idx.hi);
  }
  return co;
}

/// Subtracts (full_cover) or weakens (otherwise) [begin, end) from the
/// clobber list. Mirrors the runtime checker, which erases per-address marks
/// on overwrite and in-window rewrite: removal is only sound when every
/// address in the range was provably written (full_cover); a partial write
/// just demotes a span to inexact, killing future hazard *proofs* while
/// keeping the conservative overlap that blocks false safe proofs.
void Analyzer::clear_clobber(const Word* begin, const Word* end,
                             bool full_cover) {
  if (begin >= end || clobbered_.empty()) return;
  std::vector<ClobSpan> out;
  out.reserve(clobbered_.size());
  for (const ClobSpan& s : clobbered_) {
    if (s.hi <= begin || s.lo >= end) {
      out.push_back(s);
      continue;
    }
    if (!full_cover) {
      ClobSpan weak = s;
      weak.exact = false;
      out.push_back(weak);
      continue;
    }
    if (s.lo < begin) out.push_back({s.lo, begin, s.exact});
    if (s.hi > end) out.push_back({end, s.hi, s.exact});
  }
  clobbered_ = std::move(out);
}

void Analyzer::book_window_write(std::span<const Word> table,
                                 const LaneFacts& idx, bool masked) {
  Win* w = covering_window(table);
  if (w == nullptr || w->kind != WindowCtx::kLabelRound) return;
  const Footprint fp = footprint(table, idx);
  if (fp.b == fp.e) return;
  w->writes.push_back({fp.b, fp.e, !masked && idx.covers_range()});
  if (w->writes.size() > kMaxWindowWrites) {
    // Coalesce into one conservative hull span.
    const Word* lo = w->writes.front().lo;
    const Word* hi = w->writes.front().hi;
    for (const ClobSpan& s : w->writes) {
      lo = std::min(lo, s.lo);
      hi = std::max(hi, s.hi);
    }
    w->writes.assign(1, ClobSpan{lo, hi, false});
  }
}

// ---- accounting -------------------------------------------------------------

void Analyzer::count_mem(const OpVerdicts& v, bool scatter_class) {
  ++stats_.mem_ops;
  switch (v.overall()) {
    case Verdict::kProvenSafe:
      ++stats_.mem_safe;
      break;
    case Verdict::kProvenHazard:
      ++stats_.mem_hazard;
      break;
    case Verdict::kUnknown:
      ++stats_.mem_unknown;
      break;
  }
  if (scatter_class) {
    ++stats_.scatter_ops;
    if (v.all_safe()) ++stats_.scatter_safe;
  }
  for (std::size_t c = 0; c < kHazardClassCount; ++c) {
    ++stats_.class_verdicts[c][static_cast<std::size_t>(v.v[c])];
  }
}

void Analyzer::diagnose(HazardClass cls, std::uint32_t node,
                        const std::string& msg) {
  if (diags_.size() >= kMaxDiagnostics) return;
  Diagnostic d;
  d.cls = cls;
  d.verdict = Verdict::kProvenHazard;
  d.node = node;
  d.line = line_;
  d.message = msg;
  diags_.push_back(std::move(d));
}

void Analyzer::report_hazards(const char* what, const OpVerdicts& v,
                              const LaneFacts& idxf, std::size_t table_size,
                              std::uint32_t node) {
  if (v[HazardClass::kBounds] == Verdict::kProvenHazard) {
    diagnose(HazardClass::kBounds, node,
             std::string(what) + ": index range [" + std::to_string(idxf.lo) +
                 ", " + std::to_string(idxf.hi) + "] exceeds table of " +
                 std::to_string(table_size) + " elements");
  }
  if (v[HazardClass::kOverlap] == Verdict::kProvenHazard) {
    diagnose(HazardClass::kOverlap, node,
             std::string(what) + ": " + std::to_string(idxf.lanes) +
                 " lanes collide in at most " + std::to_string(idxf.width()) +
                 " addresses while carrying pairwise-distinct values "
                 "(collisions lose data)");
  }
  if (v[HazardClass::kClobber] == Verdict::kProvenHazard) {
    diagnose(HazardClass::kClobber, node,
             std::string(what) +
                 ": reads addresses still holding stale labels from a closed "
                 "label round");
  }
}

// ---- annotations ------------------------------------------------------------

void Analyzer::observe_range(std::span<const Word> v) {
  LaneFacts f;
  if (v.empty()) {
    f = LaneFacts::unknown(0);
    f.distinct = true;
    f.sorted = true;
  } else {
    Word lo = v[0];
    Word hi = v[0];
    bool sorted = true;
    bool strict = true;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const Word x = v[i];
      lo = std::min(lo, x);
      hi = std::max(hi, x);
      if (i > 0) {
        if (x < v[i - 1]) sorted = false;
        if (x <= v[i - 1]) strict = false;
      }
    }
    // Merge with what is already proven: the measurement adds a tight
    // interval plus whatever structure the single pass can certify
    // (non-decreasing lanes, and strictly-increasing implies distinct);
    // previously-proven structural claims survive either way.
    const LaneFacts prior = lookup(v);
    f = facts_observed(v.size(), lo, hi);
    f.distinct = prior.distinct || strict;
    f.sorted = prior.sorted || sorted;
  }
  OpNode n;
  n.op = Opcode::kObserveRange;
  n.lanes = v.size();
  n.s0 = f.has_range ? f.lo : 0;
  n.s1 = f.has_range ? f.hi : 0;
  if (opts_.record_graph && !v.empty()) n.aux.push_back(value_node(v));
  n.facts = f;
  const std::uint32_t id = record(std::move(n));
  remember(v, f, id);
}

// ---- recording hooks (non-memory) -------------------------------------------

void Analyzer::rec_gen(Opcode op, std::span<const Word> out, Word s0, Word s1) {
  LaneFacts f = op == Opcode::kIota ? facts_iota(out.size(), s0, s1)
                                    : facts_splat(out.size(), s0);
  OpNode n;
  n.op = op;
  n.lanes = out.size();
  n.s0 = s0;
  n.s1 = s1;
  n.facts = f;
  remember(out, f, record(std::move(n)));
}

void Analyzer::rec_unary(Opcode op, std::span<const Word> out,
                         std::span<const Word> in, Word s0) {
  const LaneFacts vf = lookup(in);
  LaneFacts f = LaneFacts::unknown(out.size());
  switch (op) {
    case Opcode::kCopy:
      f = facts_copy(vf);
      break;
    case Opcode::kReverse:
      f = facts_reverse(vf);
      break;
    case Opcode::kAddScalar:
      f = facts_add_scalar(vf, s0);
      break;
    case Opcode::kMulScalar:
      f = facts_mul_scalar(vf, s0);
      break;
    case Opcode::kDivScalar:
      f = facts_div_scalar(vf, s0);
      break;
    case Opcode::kModScalar:
      f = facts_mod_scalar(vf, s0);
      break;
    case Opcode::kAndScalar:
      f = facts_and_scalar(vf, s0);
      break;
    case Opcode::kOrScalar:
      f = facts_or_scalar(vf, s0);
      break;
    case Opcode::kShlScalar:
      f = facts_shl_scalar(vf, s0);
      break;
    case Opcode::kShrScalar:
      f = facts_shr_scalar(vf, s0);
      break;
    case Opcode::kNegate:
      f = facts_negate(vf);
      break;
    default:
      break;
  }
  OpNode n;
  n.op = op;
  if (opts_.record_graph) n.inputs.push_back(value_node(in));
  n.lanes = out.size();
  n.s0 = s0;
  n.facts = f;
  remember(out, f, record(std::move(n)));
}

void Analyzer::rec_binary(Opcode op, std::span<const Word> out,
                          std::span<const Word> a, std::span<const Word> b) {
  const LaneFacts af = lookup(a);
  const LaneFacts bf = lookup(b);
  LaneFacts f = LaneFacts::unknown(out.size());
  switch (op) {
    case Opcode::kAdd:
      f = facts_add(af, bf);
      break;
    case Opcode::kSub:
      f = facts_sub(af, bf);
      break;
    case Opcode::kMul:
      f = facts_mul(af, bf);
      break;
    default:
      break;
  }
  OpNode n;
  n.op = op;
  if (opts_.record_graph) {
    n.inputs.push_back(value_node(a));
    n.inputs.push_back(value_node(b));
  }
  n.lanes = out.size();
  n.facts = f;
  remember(out, f, record(std::move(n)));
}

void Analyzer::rec_cmp(Opcode op, std::span<const std::uint8_t> out,
                       std::span<const Word> a, std::span<const Word> b,
                       Word s0) {
  std::uint32_t id = kNoNode;
  if (opts_.record_graph) {
    OpNode n;
    n.op = op;
    n.inputs.push_back(value_node(a));
    if (!b.empty()) n.inputs.push_back(value_node(b));
    n.lanes = out.size();
    n.s0 = s0;
    id = record(std::move(n));
  }
  remember_mask(out, id);
}

void Analyzer::rec_mask2(Opcode op, std::span<const std::uint8_t> out,
                         std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b) {
  std::uint32_t id = kNoNode;
  if (opts_.record_graph) {
    OpNode n;
    n.op = op;
    n.inputs.push_back(mask_node(a));
    if (!b.empty()) n.inputs.push_back(mask_node(b));
    n.lanes = out.size();
    id = record(std::move(n));
  }
  remember_mask(out, id);
}

void Analyzer::rec_reduce(Opcode op, std::span<const Word> in) {
  if (!opts_.record_graph) return;
  OpNode n;
  n.op = op;
  n.inputs.push_back(value_node(in));
  n.lanes = in.size();
  record(std::move(n));
}

void Analyzer::rec_count_true(std::span<const std::uint8_t> m) {
  if (!opts_.record_graph) return;
  OpNode n;
  n.op = Opcode::kCountTrue;
  n.inputs.push_back(mask_node(m));
  n.lanes = m.size();
  record(std::move(n));
}

void Analyzer::rec_compress(std::span<const Word> out, std::span<const Word> in,
                            std::span<const std::uint8_t> m) {
  const LaneFacts f = facts_subset(lookup(in), out.size());
  OpNode n;
  n.op = Opcode::kCompress;
  if (opts_.record_graph) {
    n.inputs.push_back(value_node(in));
    n.inputs.push_back(mask_node(m));
  }
  n.lanes = out.size();
  n.facts = f;
  remember(out, f, record(std::move(n)));
}

void Analyzer::rec_partition(std::span<const Word> kept,
                             std::span<const Word> rejected,
                             std::span<const Word> in,
                             std::span<const std::uint8_t> m) {
  const LaneFacts inf = lookup(in);
  std::uint32_t in_node = kNoNode;
  std::uint32_t m_node = kNoNode;
  if (opts_.record_graph) {
    in_node = value_node(in);
    m_node = mask_node(m);
  }
  const LaneFacts kf = facts_subset(inf, kept.size());
  OpNode kn;
  kn.op = Opcode::kPartitionKept;
  if (opts_.record_graph) kn.inputs = {in_node, m_node};
  kn.lanes = kept.size();
  kn.facts = kf;
  remember(kept, kf, record(std::move(kn)));

  const LaneFacts rf = facts_subset(inf, rejected.size());
  OpNode rn;
  rn.op = Opcode::kPartitionRejected;
  if (opts_.record_graph) rn.inputs = {in_node, m_node};
  rn.lanes = rejected.size();
  rn.facts = rf;
  remember(rejected, rf, record(std::move(rn)));
}

void Analyzer::rec_select(std::span<const Word> out,
                          std::span<const std::uint8_t> m,
                          std::span<const Word> a, std::span<const Word> b) {
  const LaneFacts f = facts_select(lookup(a), lookup(b), out.size());
  OpNode n;
  n.op = Opcode::kSelect;
  if (opts_.record_graph) {
    n.inputs.push_back(value_node(a));
    n.inputs.push_back(value_node(b));
    n.inputs.push_back(mask_node(m));
  }
  n.lanes = out.size();
  n.facts = f;
  remember(out, f, record(std::move(n)));
}

void Analyzer::rec_from_mask(std::span<const Word> out,
                             std::span<const std::uint8_t> m) {
  const LaneFacts f = facts_from_mask(out.size());
  OpNode n;
  n.op = Opcode::kFromMask;
  if (opts_.record_graph) n.inputs.push_back(mask_node(m));
  n.lanes = out.size();
  n.facts = f;
  remember(out, f, record(std::move(n)));
}

// ---- contiguous memory ------------------------------------------------------

void Analyzer::rec_load(Opcode op, std::span<const Word> out,
                        std::span<const Word> table) {
  const LaneFacts f = LaneFacts::unknown(out.size());
  OpNode n;
  n.op = op;
  n.lanes = out.size();
  n.region = region_of(table);
  n.table_size = table.size();
  n.facts = f;
  remember(out, f, record(std::move(n)));
}

void Analyzer::rec_store(Opcode op, std::span<const Word> table,
                         const Word* dst, std::size_t n, std::size_t stride) {
  if (n > 0 && stride > 0) {
    const Word* end = dst + (n - 1) * stride + 1;
    // The runtime erases its per-address clobber and window-write marks on
    // overwrite; a unit-stride store provably covers the whole range.
    const bool full = stride == 1;
    clear_clobber(dst, end, full);
    for (Win& w : windows_) {
      std::vector<ClobSpan> out;
      out.reserve(w.writes.size());
      for (const ClobSpan& s : w.writes) {
        if (s.hi <= dst || s.lo >= end) {
          out.push_back(s);
          continue;
        }
        if (!full) {
          ClobSpan weak = s;
          weak.exact = false;
          out.push_back(weak);
          continue;
        }
        if (s.lo < dst) out.push_back({s.lo, dst, s.exact});
        if (s.hi > end) out.push_back({end, s.hi, s.exact});
      }
      w.writes = std::move(out);
    }
    invalidate(dst, end);
  }
  OpNode node;
  node.op = op;
  node.lanes = n;
  node.s0 = static_cast<Word>(dst - table.data());
  node.s1 = static_cast<Word>(stride);
  node.region = region_of(table);
  node.table_size = table.size();
  const Win* w = covering_window(table);
  node.window = w != nullptr ? w->kind : WindowCtx::kNone;
  record(std::move(node));
}

void Analyzer::rec_scalar_store(std::span<const Word> table, std::size_t pos) {
  if (pos < table.size()) {
    const Word* p = table.data() + pos;
    // A single-address overwrite: weaken (never remove — exactness of the
    // remaining addresses is unaffected but we track spans, not addresses).
    clear_clobber(p, p + 1, false);
    invalidate(p, p + 1);
  }
  OpNode n;
  n.op = Opcode::kScalarStore;
  n.lanes = 1;
  n.s0 = static_cast<Word>(pos);
  n.region = region_of(table);
  n.table_size = table.size();
  record(std::move(n));
}

// ---- list-vector memory -----------------------------------------------------

OpVerdicts Analyzer::classify_gather(std::span<const Word> table,
                                     std::span<const Word> idx, bool masked) {
  OpVerdicts v;
  const LaneFacts idxf = lookup(idx);
  v[HazardClass::kBounds] = judge_bounds(idxf, table.size(), masked);
  const Win* w = covering_window(table);
  v[HazardClass::kClobber] =
      judge_read_clobber(idxf, w != nullptr, clobber_overlap(table, idxf));
  count_mem(v, false);
  return v;
}

OpVerdicts Analyzer::classify_scatter(std::span<const Word> table,
                                      std::span<const Word> idx,
                                      std::span<const Word> vals, bool masked,
                                      bool ordered) {
  OpVerdicts v;
  const LaneFacts idxf = lookup(idx);
  const LaneFacts valsf = lookup(vals);
  v[HazardClass::kBounds] = judge_bounds(idxf, table.size(), masked);
  const Win* w = covering_window(table);
  v[HazardClass::kOverlap] = judge_scatter_overlap(
      idxf, valsf, w != nullptr ? w->kind : WindowCtx::kNone, masked, ordered);
  count_mem(v, true);
  return v;
}

OpVerdicts Analyzer::classify_sge(std::span<const Word> table,
                                  std::span<const Word> idx,
                                  std::span<const Word> vals, bool masked) {
  OpVerdicts v;
  const LaneFacts idxf = lookup(idx);
  const LaneFacts valsf = lookup(vals);
  // The readback pass checks EVERY lane's index regardless of the mask, so
  // bounds are judged unmasked: a tight out-of-range endpoint will throw.
  v[HazardClass::kBounds] = judge_bounds(idxf, table.size(), false);
  const Win* w = covering_window(table);
  v[HazardClass::kOverlap] = judge_scatter_overlap(
      idxf, valsf, w != nullptr ? w->kind : WindowCtx::kNone, masked, false);
  if (masked) {
    // Inactive readback lanes touch addresses the scatter did not just
    // write, so the clobber scan applies to them (when outside a window).
    v[HazardClass::kClobber] =
        judge_read_clobber(idxf, w != nullptr, clobber_overlap(table, idxf));
  }
  count_mem(v, true);
  return v;
}

void Analyzer::rec_gather(std::span<const Word> out, std::span<const Word> table,
                          std::span<const Word> idx,
                          std::span<const std::uint8_t> mask,
                          const OpVerdicts& v, bool elided) {
  const LaneFacts idxf = lookup(idx);
  const LaneFacts f = LaneFacts::unknown(out.size());
  OpNode n;
  n.op = Opcode::kGather;
  if (opts_.record_graph) {
    n.inputs.push_back(value_node(idx));
    if (!mask.empty()) n.inputs.push_back(mask_node(mask));
  }
  n.lanes = idx.size();
  n.region = region_of(table);
  n.table_size = table.size();
  n.masked = !mask.empty();
  n.elided = elided;
  const Win* w = covering_window(table);
  n.window = w != nullptr ? w->kind : WindowCtx::kNone;
  n.facts = f;
  n.verdicts = v;
  const std::uint32_t id = record(std::move(n));
  report_hazards("gather", v, idxf, table.size(), id);
  remember(out, f, id);
}

void Analyzer::rec_scatter(std::span<const Word> table,
                           std::span<const Word> idx,
                           std::span<const Word> vals,
                           std::span<const std::uint8_t> mask, bool ordered,
                           const OpVerdicts& v, bool elided, bool executed) {
  const LaneFacts idxf = lookup(idx);
  OpNode n;
  n.op = ordered ? Opcode::kScatterOrdered : Opcode::kScatter;
  if (opts_.record_graph) {
    n.inputs.push_back(value_node(idx));
    n.inputs.push_back(value_node(vals));
    if (!mask.empty()) n.inputs.push_back(mask_node(mask));
  }
  n.lanes = idx.size();
  n.region = region_of(table);
  n.table_size = table.size();
  n.masked = !mask.empty();
  n.ordered = ordered;
  n.elided = elided;
  const Win* w = covering_window(table);
  n.window = w != nullptr ? w->kind : WindowCtx::kNone;
  n.verdicts = v;
  const std::uint32_t id = record(std::move(n));
  report_hazards(ordered ? "scatter_ordered" : "scatter", v, idxf, table.size(),
                 id);
  if (!executed) return;
  const Footprint fp = footprint(table, idxf);
  // The runtime erases stale clobber marks at rewritten addresses whether or
  // not a window is open; mirror it so proofs never outlive the marks.
  clear_clobber(fp.b, fp.e, mask.empty() && idxf.covers_range());
  book_window_write(table, idxf, !mask.empty());
  invalidate(fp.b, fp.e);
}

void Analyzer::rec_sge(std::span<const std::uint8_t> out,
                       std::span<const Word> table, std::span<const Word> idx,
                       std::span<const Word> vals,
                       std::span<const std::uint8_t> mask, const OpVerdicts& v,
                       bool elided, bool executed) {
  const LaneFacts idxf = lookup(idx);
  OpNode n;
  n.op = Opcode::kScatterGatherEq;
  if (opts_.record_graph) {
    n.inputs.push_back(value_node(idx));
    n.inputs.push_back(value_node(vals));
    if (!mask.empty()) n.inputs.push_back(mask_node(mask));
  }
  n.lanes = idx.size();
  n.region = region_of(table);
  n.table_size = table.size();
  n.masked = !mask.empty();
  n.elided = elided;
  const Win* w = covering_window(table);
  n.window = w != nullptr ? w->kind : WindowCtx::kNone;
  n.verdicts = v;
  const std::uint32_t id = record(std::move(n));
  report_hazards("scatter_gather_eq", v, idxf, table.size(), id);
  remember_mask(out, id);
  if (!executed) return;
  const Footprint fp = footprint(table, idxf);
  clear_clobber(fp.b, fp.e, mask.empty() && idxf.covers_range());
  book_window_write(table, idxf, !mask.empty());
  invalidate(fp.b, fp.e);
}

bool Analyzer::proven_index_range(std::span<const Word> idx,
                                  std::size_t table_size, Word* lo, Word* hi,
                                  bool* exact) const {
  const LaneFacts f = lookup(idx);
  if (f.lanes == 0) {
    *lo = 0;
    *hi = -1;
    *exact = false;
    return true;
  }
  if (!f.has_range || f.lo < 0 ||
      static_cast<std::uint64_t>(f.hi) >= table_size) {
    return false;
  }
  *lo = f.lo;
  *hi = f.hi;
  *exact = f.covers_range();
  return true;
}

// ---- environment events -----------------------------------------------------

void Analyzer::on_window_open(std::span<const Word> table, WindowCtx kind,
                              const char* label) {
  (void)label;
  windows_.push_back(Win{table.data(), table.data() + table.size(), kind, {}});
  OpNode n;
  n.op = Opcode::kWindowOpen;
  n.region = region_of(table);
  n.table_size = table.size();
  n.window = kind;
  record(std::move(n));
}

void Analyzer::on_window_close() {
  if (windows_.empty()) return;
  Win w = std::move(windows_.back());
  windows_.pop_back();
  if (w.kind == WindowCtx::kLabelRound) {
    // Closing a label round marks its writes as stale-label clobber spans.
    for (const ClobSpan& s : w.writes) clobbered_.push_back(s);
    if (clobbered_.size() > kMaxClobberSpans) {
      const Word* lo = clobbered_.front().lo;
      const Word* hi = clobbered_.front().hi;
      for (const ClobSpan& s : clobbered_) {
        lo = std::min(lo, s.lo);
        hi = std::max(hi, s.hi);
      }
      clobbered_.assign(1, ClobSpan{lo, hi, false});
    }
  }
  OpNode n;
  n.op = Opcode::kWindowClose;
  n.window = w.kind;
  record(std::move(n));
}

void Analyzer::on_retire_work(std::span<const Word> region) {
  clear_clobber(region.data(), region.data() + region.size(), true);
  OpNode n;
  n.op = Opcode::kRetireWork;
  n.region = region_of(region);
  n.table_size = region.size();
  record(std::move(n));
}

}  // namespace folvec::analysis

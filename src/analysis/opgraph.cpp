#include "analysis/opgraph.h"

#include <string_view>

#include "support/json.h"
#include "support/require.h"

namespace folvec::analysis {

namespace {

constexpr const char* kSchema = "folvec-opgraph-v1";

constexpr const char* kOpcodeNames[kOpcodeCount] = {
    "source",        "observe_range", "iota",
    "splat",         "copy",          "reverse",
    "add",           "sub",           "mul",
    "add_scalar",    "mul_scalar",    "div_scalar",
    "mod_scalar",    "and_scalar",    "or_scalar",
    "shl_scalar",    "shr_scalar",    "negate",
    "cmp_eq",        "cmp_ne",        "cmp_le",
    "cmp_lt",        "cmp_eq_scalar", "cmp_ne_scalar",
    "cmp_le_scalar", "cmp_lt_scalar", "cmp_ge_scalar",
    "mask_and",      "mask_or",       "mask_not",
    "count_true",    "reduce_sum",    "reduce_min",
    "reduce_max",    "compress",      "partition_kept",
    "partition_rejected",             "select",
    "from_mask",     "load",          "load_strided",
    "store",         "store_strided", "fill",
    "scalar_store",  "gather",        "scatter",
    "scatter_ordered",                "scatter_gather_eq",
    "window_open",   "window_close",  "retire_work",
};

Opcode opcode_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kOpcodeCount; ++i) {
    if (name == kOpcodeNames[i]) return static_cast<Opcode>(i);
  }
  throw PreconditionError("opgraph: unknown opcode \"" + std::string(name) +
                          '"');
}

Verdict verdict_from_name(std::string_view name) {
  if (name == "safe") return Verdict::kProvenSafe;
  if (name == "hazard") return Verdict::kProvenHazard;
  if (name == "unknown") return Verdict::kUnknown;
  throw PreconditionError("opgraph: unknown verdict \"" + std::string(name) +
                          '"');
}

JsonValue word_to_json(Word w) { return std::to_string(w); }

Word word_from_json(const JsonValue& v, const char* what) {
  FOLVEC_REQUIRE(v.is_string(), std::string("opgraph: ") + what +
                                    " must be a string-encoded integer");
  return static_cast<Word>(std::stoll(v.as_string()));
}

JsonValue ids_to_json(const std::vector<std::uint32_t>& ids) {
  JsonArray a;
  a.reserve(ids.size());
  for (const std::uint32_t id : ids) a.emplace_back(id);
  return a;
}

std::vector<std::uint32_t> ids_from_json(const JsonValue& v) {
  std::vector<std::uint32_t> out;
  if (!v.is_array()) return out;
  for (const JsonValue& e : v.as_array()) {
    FOLVEC_REQUIRE(e.is_number(), "opgraph: node id must be a number");
    out.push_back(static_cast<std::uint32_t>(e.as_number()));
  }
  return out;
}

JsonValue facts_to_json(const LaneFacts& f) {
  JsonObject o;
  o.emplace_back("lanes", f.lanes);
  if (f.has_range) {
    o.emplace_back("lo", word_to_json(f.lo));
    o.emplace_back("hi", word_to_json(f.hi));
    o.emplace_back("tight", f.tight);
  }
  o.emplace_back("distinct", f.distinct);
  o.emplace_back("sorted", f.sorted);
  return o;
}

LaneFacts facts_from_json(const JsonValue& v) {
  LaneFacts f;
  const JsonValue* lanes = v.find("lanes");
  FOLVEC_REQUIRE(lanes != nullptr && lanes->is_number(),
                 "opgraph: facts need a numeric lane count");
  f.lanes = static_cast<std::size_t>(lanes->as_number());
  if (const JsonValue* lo = v.find("lo")) {
    f.has_range = true;
    f.lo = word_from_json(*lo, "facts.lo");
    const JsonValue* hi = v.find("hi");
    FOLVEC_REQUIRE(hi != nullptr, "opgraph: facts.lo without facts.hi");
    f.hi = word_from_json(*hi, "facts.hi");
    const JsonValue* tight = v.find("tight");
    f.tight = tight != nullptr && tight->is_bool() && tight->as_bool();
  }
  const JsonValue* distinct = v.find("distinct");
  f.distinct = distinct != nullptr && distinct->is_bool() && distinct->as_bool();
  const JsonValue* sorted = v.find("sorted");
  f.sorted = sorted != nullptr && sorted->is_bool() && sorted->as_bool();
  return f;
}

JsonValue verdicts_to_json(const OpVerdicts& v) {
  JsonObject o;
  for (std::size_t c = 0; c < kHazardClassCount; ++c) {
    o.emplace_back(hazard_class_name(static_cast<HazardClass>(c)),
                   verdict_name(v.v[c]));
  }
  return o;
}

OpVerdicts verdicts_from_json(const JsonValue& v) {
  OpVerdicts out;
  for (std::size_t c = 0; c < kHazardClassCount; ++c) {
    const JsonValue* e = v.find(hazard_class_name(static_cast<HazardClass>(c)));
    if (e != nullptr && e->is_string()) {
      out.v[c] = verdict_from_name(e->as_string());
    }
  }
  return out;
}

}  // namespace

const char* opcode_name(Opcode op) {
  const auto i = static_cast<std::size_t>(op);
  return i < kOpcodeCount ? kOpcodeNames[i] : "?";
}

std::string OpGraph::to_json(int indent) const {
  JsonArray node_array;
  node_array.reserve(nodes.size());
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const OpNode& n = nodes[id];
    JsonObject o;
    o.emplace_back("id", id);
    o.emplace_back("op", opcode_name(n.op));
    if (!n.inputs.empty()) o.emplace_back("in", ids_to_json(n.inputs));
    if (!n.aux.empty()) o.emplace_back("aux", ids_to_json(n.aux));
    if (n.lanes != 0) o.emplace_back("lanes", n.lanes);
    if (n.s0 != 0) o.emplace_back("s0", word_to_json(n.s0));
    if (n.s1 != 0) o.emplace_back("s1", word_to_json(n.s1));
    if (n.region != kNoRegion) {
      o.emplace_back("region", n.region);
      o.emplace_back("table_size", n.table_size);
    }
    if (n.masked) o.emplace_back("masked", true);
    if (n.ordered) o.emplace_back("ordered", true);
    if (n.elided) o.emplace_back("elided", true);
    if (n.window != WindowCtx::kNone) {
      o.emplace_back("window",
                     n.window == WindowCtx::kLabelRound ? "label" : "data");
    }
    if (n.line != 0) o.emplace_back("line", n.line);
    o.emplace_back("facts", facts_to_json(n.facts));
    if (opcode_checkable(n.op)) {
      o.emplace_back("verdicts", verdicts_to_json(n.verdicts));
    }
    node_array.emplace_back(std::move(o));
  }
  JsonArray regions;
  regions.reserve(region_sizes.size());
  for (const std::size_t s : region_sizes) regions.emplace_back(s);

  JsonObject root;
  root.emplace_back("schema", kSchema);
  root.emplace_back("regions", std::move(regions));
  root.emplace_back("nodes", std::move(node_array));
  return JsonValue(std::move(root)).dump(indent);
}

OpGraph OpGraph::from_json(const std::string& text) {
  const JsonValue root = JsonValue::parse(text);
  const JsonValue* schema = root.find("schema");
  FOLVEC_REQUIRE(schema != nullptr && schema->is_string() &&
                     schema->as_string() == kSchema,
                 "opgraph: schema must be folvec-opgraph-v1");
  OpGraph g;
  if (const JsonValue* regions = root.find("regions");
      regions != nullptr && regions->is_array()) {
    for (const JsonValue& r : regions->as_array()) {
      FOLVEC_REQUIRE(r.is_number(), "opgraph: region size must be a number");
      g.region_sizes.push_back(static_cast<std::size_t>(r.as_number()));
    }
  }
  const JsonValue* node_array = root.find("nodes");
  FOLVEC_REQUIRE(node_array != nullptr && node_array->is_array(),
                 "opgraph: nodes must be an array");
  for (const JsonValue& jn : node_array->as_array()) {
    FOLVEC_REQUIRE(jn.is_object(), "opgraph: node must be an object");
    OpNode n;
    const JsonValue* op = jn.find("op");
    FOLVEC_REQUIRE(op != nullptr && op->is_string(),
                   "opgraph: node needs an op name");
    n.op = opcode_from_name(op->as_string());
    if (const JsonValue* in = jn.find("in")) n.inputs = ids_from_json(*in);
    if (const JsonValue* aux = jn.find("aux")) n.aux = ids_from_json(*aux);
    if (const JsonValue* lanes = jn.find("lanes"); lanes != nullptr) {
      n.lanes = static_cast<std::size_t>(lanes->as_number());
    }
    if (const JsonValue* s0 = jn.find("s0")) n.s0 = word_from_json(*s0, "s0");
    if (const JsonValue* s1 = jn.find("s1")) n.s1 = word_from_json(*s1, "s1");
    if (const JsonValue* region = jn.find("region"); region != nullptr) {
      n.region = static_cast<std::uint32_t>(region->as_number());
      const JsonValue* ts = jn.find("table_size");
      FOLVEC_REQUIRE(ts != nullptr && ts->is_number(),
                     "opgraph: memory node needs table_size");
      n.table_size = static_cast<std::size_t>(ts->as_number());
    }
    if (const JsonValue* masked = jn.find("masked"); masked != nullptr) {
      n.masked = masked->as_bool();
    }
    if (const JsonValue* ordered = jn.find("ordered"); ordered != nullptr) {
      n.ordered = ordered->as_bool();
    }
    if (const JsonValue* elided = jn.find("elided"); elided != nullptr) {
      n.elided = elided->as_bool();
    }
    if (const JsonValue* window = jn.find("window"); window != nullptr) {
      n.window = window->as_string() == "label" ? WindowCtx::kLabelRound
                                                : WindowCtx::kDataRace;
    }
    if (const JsonValue* line = jn.find("line"); line != nullptr) {
      n.line = static_cast<std::size_t>(line->as_number());
    }
    if (const JsonValue* facts = jn.find("facts")) {
      n.facts = facts_from_json(*facts);
    }
    if (const JsonValue* verdicts = jn.find("verdicts")) {
      n.verdicts = verdicts_from_json(*verdicts);
    }
    g.nodes.push_back(std::move(n));
  }
  return g;
}

}  // namespace folvec::analysis

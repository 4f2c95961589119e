#include "support/faultsim.h"

#include <cstdlib>

#include "support/env.h"
#include "support/require.h"

namespace folvec {

namespace {

std::atomic<FaultPlan*> g_faults{nullptr};

/// splitmix64 finalizer: a full-avalanche mix of (seed, site, check index),
/// so per-site rate draws are independent streams that replay exactly.
std::uint64_t mix(std::uint64_t seed, std::uint64_t site,
                  std::uint64_t index) {
  std::uint64_t z = seed + site * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kElsViolation:
      return "els";
    case FaultSite::kProbeSaturation:
      return "probe";
  }
  return "unknown";
}

FaultPlan::FaultPlan(std::uint64_t seed, std::string_view spec)
    : seed_(seed), spec_(spec) {
  // Clause grammar: site=RATE | site@K | site%K, separated by commas and/or
  // whitespace. Parsing is strict — a typo'd fault spec that silently
  // injected nothing would defeat the whole point of the harness.
  std::size_t at = 0;
  const auto is_sep = [](char c) {
    return c == ',' || c == ' ' || c == '\t' || c == '\n';
  };
  while (at < spec.size()) {
    while (at < spec.size() && is_sep(spec[at])) ++at;
    if (at == spec.size()) break;
    std::size_t end = at;
    while (end < spec.size() && !is_sep(spec[end])) ++end;
    const std::string_view clause = spec.substr(at, end - at);
    at = end;

    const std::size_t op = clause.find_first_of("=@%");
    FOLVEC_REQUIRE(op != std::string_view::npos && op > 0 &&
                       op + 1 < clause.size(),
                   "fault spec clause must be site=RATE, site@K or site%K");
    const std::string_view name = clause.substr(0, op);
    const std::string value(clause.substr(op + 1));

    int site = -1;
    for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
      if (name == fault_site_name(static_cast<FaultSite>(s))) {
        site = static_cast<int>(s);
        break;
      }
    }
    FOLVEC_REQUIRE(site >= 0,
                   "unknown fault site (expected els or probe)");

    SiteRule& rule = rules_[static_cast<std::size_t>(site)];
    char* parse_end = nullptr;
    if (clause[op] == '=') {
      const double rate = std::strtod(value.c_str(), &parse_end);
      FOLVEC_REQUIRE(parse_end != nullptr && *parse_end == '\0' &&
                         rate >= 0.0 && rate <= 1.0,
                     "fault rate must be a number in [0, 1]");
      rule.mode = SiteRule::Mode::kRate;
      rule.rate = rate;
    } else {
      const unsigned long long k = std::strtoull(value.c_str(), &parse_end, 10);
      FOLVEC_REQUIRE(parse_end != nullptr && *parse_end == '\0' && k >= 1,
                     "fault clause count must be a positive integer");
      rule.mode = clause[op] == '@' ? SiteRule::Mode::kOnce
                                    : SiteRule::Mode::kEvery;
      rule.k = k;
    }
  }
}

bool FaultPlan::fires(FaultSite site) {
  const auto s = static_cast<std::size_t>(site);
  const SiteRule& rule = rules_[s];
  if (rule.mode == SiteRule::Mode::kOff) return false;
  const std::uint64_t i = checks_[s].fetch_add(1, std::memory_order_relaxed);
  bool hit = false;
  switch (rule.mode) {
    case SiteRule::Mode::kOff:
      break;
    case SiteRule::Mode::kOnce:
      hit = (i + 1 == rule.k);
      break;
    case SiteRule::Mode::kEvery:
      hit = ((i + 1) % rule.k == 0);
      break;
    case SiteRule::Mode::kRate: {
      // 53 bits of the mix as a uniform double in [0, 1).
      const double u =
          static_cast<double>(mix(seed_, s, i) >> 11) * 0x1.0p-53;
      hit = u < rule.rate;
      break;
    }
  }
  if (hit) fired_[s].fetch_add(1, std::memory_order_relaxed);
  return hit;
}

std::uint64_t FaultPlan::checks(FaultSite site) const {
  return checks_[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t FaultPlan::fired(FaultSite site) const {
  return fired_[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t FaultPlan::total_fired() const {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
    n += fired_[s].load(std::memory_order_relaxed);
  }
  return n;
}

void FaultPlan::reset() {
  for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
    checks_[s].store(0, std::memory_order_relaxed);
    fired_[s].store(0, std::memory_order_relaxed);
  }
}

std::unique_ptr<FaultPlan> FaultPlan::from_env() {
  const auto spec = env_value("FOLVEC_FAULT_SPEC");
  if (!spec) return nullptr;
  std::uint64_t seed = 0;
  if (const auto seed_env = env_value("FOLVEC_FAULT_SEED")) {
    seed = std::strtoull(seed_env->c_str(), nullptr, 10);
  }
  return std::make_unique<FaultPlan>(seed, *spec);
}

FaultPlan* faults() { return g_faults.load(std::memory_order_acquire); }

FaultPlan* install_faults(FaultPlan* plan) {
  return g_faults.exchange(plan, std::memory_order_acq_rel);
}

}  // namespace folvec

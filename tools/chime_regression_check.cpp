// chime_regression_check: gates CI on the modeled chime totals.
//
// The fused-kernel work (PR 4) is a chime-model optimisation, so its win is
// protected the same way a wall-clock win would be protected by a perf
// dashboard: deterministic note values from the bench reports (modeled
// instruction/element totals and ratios — never host timings) are compared
// against committed golden ceilings. A change that quietly re-inflates the
// FOL1 hot path — an extra pass in a round loop, a fused op falling back to
// its unfused chain, a cost-table regression — pushes a note value above
// its ceiling and fails the build.
//
// Golden format ("folvec-chime-golden-v1", bench/goldens/*.json):
//
//   {
//     "schema": "folvec-chime-golden-v1",
//     "budgets": {
//       "<bench name>": {
//         "<note key>": <ceiling>,                      // number: max only
//         "<note key>": {"min": <floor>},               // ratio floors
//         "<note key>": {"min": <floor>, "max": <c>},   // both bounds
//         ...
//       },
//       ...
//     }
//   }
//
// A plain number is a ceiling (the original form, used for the modeled
// chime totals). An object budget holds a "min" floor and/or "max" ceiling
// — the floor form gates values that must stay ABOVE a bound, e.g. the
// serve_load SLO pass flags in bench/goldens/backend_scaling.json.
//
// Every budgeted note must exist in the matching report, be a number, and
// be within its bounds. Reports whose bench name has no budget entry pass
// with a "skip" line (the schema checker still validates them). Regenerate
// the goldens deliberately — run the benches, read the new note values out
// of the BENCH_*.json files, and commit the new bounds with the change that
// moved them.
//
// Usage: chime_regression_check GOLDEN_FILE BENCH_report.json...
// Exits 0 iff every budgeted note is within its ceiling.
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "support/json.h"

namespace {

using folvec::JsonValue;

std::optional<JsonValue> load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    return JsonValue::parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(), e.what());
    return std::nullopt;
  }
}

/// Checks one report against the goldens. Returns the number of problems.
int check_report(const std::string& path, const JsonValue& report,
                 const JsonValue& budgets) {
  const JsonValue* bench = report.find("bench");
  if (bench == nullptr || !bench->is_string()) {
    std::printf("FAIL    %s: report has no bench name\n", path.c_str());
    return 1;
  }
  const JsonValue* budget = budgets.find(bench->as_string());
  if (budget == nullptr) {
    std::printf("skip    %s: no budget for bench \"%s\"\n", path.c_str(),
                bench->as_string().c_str());
    return 0;
  }
  if (!budget->is_object()) {
    std::printf("FAIL    %s: budget for \"%s\" must be an object\n",
                path.c_str(), bench->as_string().c_str());
    return 1;
  }
  const JsonValue* notes = report.find("notes");
  int problems = 0;
  for (const auto& [key, bound] : budget->as_object()) {
    // A plain number is a ceiling; an object carries "min" and/or "max".
    std::optional<double> floor;
    std::optional<double> ceiling;
    if (bound.is_number()) {
      ceiling = bound.as_number();
    } else if (bound.is_object()) {
      bool bad = false;
      for (const auto& [bkey, bval] : bound.as_object()) {
        if (!bval.is_number() || (bkey != "min" && bkey != "max")) {
          bad = true;
          break;
        }
        (bkey == "min" ? floor : ceiling) = bval.as_number();
      }
      if (bad || (!floor && !ceiling)) {
        std::printf(
            "FAIL    %s: budget \"%s\" object must hold numeric \"min\" "
            "and/or \"max\"\n",
            path.c_str(), key.c_str());
        ++problems;
        continue;
      }
    } else {
      std::printf(
          "FAIL    %s: budget \"%s\" must be a number or a {min,max} "
          "object\n",
          path.c_str(), key.c_str());
      ++problems;
      continue;
    }
    const JsonValue* v = notes != nullptr ? notes->find(key) : nullptr;
    if (v == nullptr || !v->is_number()) {
      std::printf("FAIL    %s: budgeted note \"%s\" missing from report\n",
                  path.c_str(), key.c_str());
      ++problems;
      continue;
    }
    if (ceiling && v->as_number() > *ceiling) {
      std::printf(
          "FAIL    %s: %s = %.6g exceeds the golden ceiling %.6g — the "
          "modeled chime cost has regressed\n",
          path.c_str(), key.c_str(), v->as_number(), *ceiling);
      ++problems;
    } else if (floor && v->as_number() < *floor) {
      std::printf(
          "FAIL    %s: %s = %.6g is below the golden floor %.6g — the "
          "measured ratio has regressed\n",
          path.c_str(), key.c_str(), v->as_number(), *floor);
      ++problems;
    } else if (ceiling && floor) {
      std::printf("ok      %s: %s = %.6g in [%.6g, %.6g]\n", path.c_str(),
                  key.c_str(), v->as_number(), *floor, *ceiling);
    } else if (floor) {
      std::printf("ok      %s: %s = %.6g >= %.6g\n", path.c_str(),
                  key.c_str(), v->as_number(), *floor);
    } else {
      std::printf("ok      %s: %s = %.6g <= %.6g\n", path.c_str(), key.c_str(),
                  v->as_number(), *ceiling);
    }
  }
  return problems;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s GOLDEN_FILE BENCH_report.json...\n"
                 "checks bench-report note values against golden bounds\n",
                 argv[0]);
    return 2;
  }
  const std::optional<JsonValue> golden = load_json(argv[1]);
  if (!golden) return 2;
  const JsonValue* schema = golden->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "folvec-chime-golden-v1") {
    std::fprintf(stderr,
                 "%s: schema must be \"folvec-chime-golden-v1\"\n", argv[1]);
    return 2;
  }
  const JsonValue* budgets = golden->find("budgets");
  if (budgets == nullptr || !budgets->is_object()) {
    std::fprintf(stderr, "%s: \"budgets\" must be an object\n", argv[1]);
    return 2;
  }

  int failures = 0;
  for (int i = 2; i < argc; ++i) {
    const std::optional<JsonValue> report = load_json(argv[i]);
    if (!report) {
      ++failures;
      continue;
    }
    failures += check_report(argv[i], *report, *budgets);
  }
  if (failures > 0) {
    std::printf("%d chime budget violation(s)\n", failures);
    return 1;
  }
  return 0;
}

// Environment-variable parsing shared by every FOLVEC_* switch.
//
// Historically each switch grew its own ad-hoc parser; FOLVEC_AUDIT treated
// only the literal "0" as off, so `FOLVEC_AUDIT=off` silently *enabled* the
// auditor. Boolean-ish switches (FOLVEC_AUDIT) now share env_flag():
// case-insensitive, whitespace-trimmed, and with every common "off" spelling
// recognised.
#pragma once

#include <cctype>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

namespace folvec {

/// Lower-cases ASCII letters and strips leading/trailing whitespace.
inline std::string env_normalize(std::string_view raw) {
  std::size_t begin = 0;
  std::size_t end = raw.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(raw[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(raw[end - 1])) != 0) {
    --end;
  }
  std::string out;
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(raw[i]))));
  }
  return out;
}

/// Interprets a boolean-ish environment value. Off spellings (case- and
/// whitespace-insensitive): empty, "false", "off", "no", and any all-digit
/// string equal to zero ("0", "00", ...). Everything else is on.
inline bool env_flag(std::string_view raw) {
  const std::string v = env_normalize(raw);
  if (v.empty() || v == "false" || v == "off" || v == "no") return false;
  bool all_digits = true;
  bool any_nonzero = false;
  for (char c : v) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      all_digits = false;
      break;
    }
    if (c != '0') any_nonzero = true;
  }
  if (all_digits) return any_nonzero;
  return true;
}

/// Reads an environment variable; nullopt when unset or empty.
inline std::optional<std::string> env_value(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  return std::string(raw);
}

}  // namespace folvec

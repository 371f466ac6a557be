#include "net/fabric.h"

#include <cstdio>
#include <limits>

#include "common/parse.h"

namespace cosched {

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

/// Strict positive duration (common/parse.h): a number with an optional
/// "ms" or "s" suffix; bare numbers are seconds. Rejects zero, negatives,
/// signs, whitespace, and any trailing junk.
bool parse_period(std::string s, Duration* out) {
  double scale = 1.0;
  if (s.ends_with("ms")) {
    s.resize(s.size() - 2);
    scale = 1e-3;
  } else if (s.ends_with('s')) {
    s.pop_back();
  }
  double v = 0.0;
  if (!parse_double(s.c_str(), 0.0, std::numeric_limits<double>::max(), &v) ||
      v <= 0.0) {
    return false;
  }
  *out = Duration::seconds(v * scale);
  return true;
}

}  // namespace

std::optional<FabricSpec> FabricSpec::parse(const std::string& spec,
                                            std::string* error) {
  if (spec.empty()) {
    fail(error, "empty fabric spec (expected ocs[:K], rotor[:PERIOD], mesh, "
                "or ring)");
    return std::nullopt;
  }
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const bool has_arg = colon != std::string::npos;
  const std::string arg = has_arg ? spec.substr(colon + 1) : std::string();

  FabricSpec out;
  if (name == "ocs") {
    out.kind = FabricKind::kOcs;
    if (has_arg && !parse_int32(arg.c_str(), 1, 64, &out.planes)) {
      fail(error, "ocs fabric: plane count must be an integer in [1, 64], "
                  "got '" + arg + "'");
      return std::nullopt;
    }
    return out;
  }
  if (name == "rotor") {
    out.kind = FabricKind::kRotor;
    if (has_arg && !parse_period(arg, &out.rotor_period)) {
      fail(error, "rotor fabric: period must be a positive duration "
                  "(e.g. 100ms or 0.1s), got '" + arg + "'");
      return std::nullopt;
    }
    return out;
  }
  if (name == "mesh" || name == "ring") {
    if (has_arg) {
      fail(error, name + " fabric takes no parameter, got '" + arg + "'");
      return std::nullopt;
    }
    out.kind = name == "mesh" ? FabricKind::kMesh : FabricKind::kRing;
    return out;
  }
  fail(error, "unknown fabric '" + name +
                  "' (expected ocs[:K], rotor[:PERIOD], mesh, or ring)");
  return std::nullopt;
}

std::string FabricSpec::to_spec() const {
  switch (kind) {
    case FabricKind::kOcs:
      return "ocs:" + std::to_string(planes);
    case FabricKind::kRotor: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "rotor:%gs", rotor_period.sec());
      return buf;
    }
    case FabricKind::kMesh:
      return "mesh";
    case FabricKind::kRing:
      return "ring";
  }
  return "?";
}

}  // namespace cosched

#include "faults/fault_spec.h"

#include <cstdio>
#include <limits>

#include "common/parse.h"

namespace cosched {

namespace {

/// Split `s` on `sep` (no escaping; empty fields preserved).
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

/// A finite decimal number, strictly parsed (common/parse.h: no leading
/// space or '+', no inf/nan, no trailing junk). One trailing 's' (seconds)
/// is stripped first when `allow_seconds_suffix`.
bool parse_number(std::string s, bool allow_seconds_suffix, double* out) {
  if (allow_seconds_suffix && !s.empty() && s.back() == 's') s.pop_back();
  return parse_double(s.c_str(), std::numeric_limits<double>::lowest(),
                      std::numeric_limits<double>::max(), out);
}

/// One `key=value` pair of a clause.
struct KeyValue {
  std::string key;
  std::string value;
};

bool parse_kv(const std::string& part, KeyValue* kv, std::string* error,
              const std::string& clause_name) {
  const std::size_t eq = part.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= part.size()) {
    *error = clause_name + ": expected key=value, got '" + part + "'";
    return false;
  }
  kv->key = part.substr(0, eq);
  kv->value = part.substr(eq + 1);
  return true;
}

bool fail(std::string* error, const std::string& msg) {
  *error = msg;
  return false;
}

bool parse_clause(const std::string& clause, FaultPlan* plan,
                  std::string* error) {
  const std::vector<std::string> parts = split(clause, ':');
  const std::string& name = parts[0];

  if (name == "straggler") {
    if (plan->straggler.has_value()) {
      return fail(error, "duplicate straggler clause");
    }
    StragglerFault f;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      KeyValue kv;
      if (!parse_kv(parts[i], &kv, error, name)) return false;
      double v = 0.0;
      if (!parse_number(kv.value, false, &v)) {
        return fail(error, "straggler: bad number '" + kv.value + "'");
      }
      if (kv.key == "p") {
        if (v < 0.0 || v > 1.0) {
          return fail(error, "straggler: p must be in [0, 1]");
        }
        f.p = v;
      } else if (kv.key == "slow") {
        if (v <= 1.0) return fail(error, "straggler: slow must be > 1");
        f.slow = v;
      } else {
        return fail(error, "straggler: unknown key '" + kv.key + "'");
      }
    }
    plan->straggler = f;
    return true;
  }

  if (name == "container-kill") {
    if (plan->container_kill.has_value()) {
      return fail(error, "duplicate container-kill clause");
    }
    ContainerKillFault f;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      KeyValue kv;
      if (!parse_kv(parts[i], &kv, error, name)) return false;
      double v = 0.0;
      if (!parse_number(kv.value, false, &v)) {
        return fail(error, "container-kill: bad number '" + kv.value + "'");
      }
      if (kv.key == "p") {
        if (v < 0.0 || v >= 1.0) {
          return fail(error,
                      "container-kill: p must be in [0, 1) (p = 1 would "
                      "re-execute forever)");
        }
        f.p = v;
      } else {
        return fail(error, "container-kill: unknown key '" + kv.key + "'");
      }
    }
    plan->container_kill = f;
    return true;
  }

  if (name == "ocs-outage") {
    OcsOutageFault f;
    bool have_at = false;
    bool have_dur = false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      KeyValue kv;
      if (!parse_kv(parts[i], &kv, error, name)) return false;
      if (kv.key == "plane") {
        // Plane indices are bare non-negative integers (no 's' suffix).
        if (!parse_int32(kv.value.c_str(), 0,
                         std::numeric_limits<std::int32_t>::max(),
                         &f.plane)) {
          return fail(error, "ocs-outage: plane must be a non-negative "
                             "integer, got '" + kv.value + "'");
        }
        continue;
      }
      double v = 0.0;
      if (!parse_number(kv.value, true, &v)) {
        return fail(error, "ocs-outage: bad duration '" + kv.value + "'");
      }
      if (kv.key == "at") {
        if (v < 0.0) return fail(error, "ocs-outage: at must be >= 0");
        f.at = SimTime::seconds(v);
        have_at = true;
      } else if (kv.key == "dur") {
        if (v <= 0.0) return fail(error, "ocs-outage: dur must be > 0");
        f.dur = Duration::seconds(v);
        have_dur = true;
      } else {
        return fail(error, "ocs-outage: unknown key '" + kv.key + "'");
      }
    }
    if (!have_at || !have_dur) {
      return fail(error, "ocs-outage requires at= and dur=");
    }
    if (!(f.at + f.dur).is_finite()) {
      return fail(error, "ocs-outage: at + dur overflows");
    }
    plan->ocs_outages.push_back(f);
    return true;
  }

  if (name == "reconfig-jitter") {
    if (plan->reconfig_jitter.has_value()) {
      return fail(error, "duplicate reconfig-jitter clause");
    }
    ReconfigJitterFault f;
    bool have_pct = false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      KeyValue kv;
      if (!parse_kv(parts[i], &kv, error, name)) return false;
      double v = 0.0;
      if (!parse_number(kv.value, false, &v)) {
        return fail(error, "reconfig-jitter: bad number '" + kv.value + "'");
      }
      if (kv.key == "pct") {
        if (v <= 0.0 || v > 100.0) {
          return fail(error, "reconfig-jitter: pct must be in (0, 100]");
        }
        f.pct = v / 100.0;
        have_pct = true;
      } else {
        return fail(error, "reconfig-jitter: unknown key '" + kv.key + "'");
      }
    }
    if (!have_pct) return fail(error, "reconfig-jitter requires pct=");
    plan->reconfig_jitter = f;
    return true;
  }

  if (name == "trem-noise") {
    if (plan->trem_noise.has_value()) {
      return fail(error, "duplicate trem-noise clause");
    }
    TremNoiseFault f;
    bool have_pct = false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      KeyValue kv;
      if (!parse_kv(parts[i], &kv, error, name)) return false;
      double v = 0.0;
      if (!parse_number(kv.value, false, &v)) {
        return fail(error, "trem-noise: bad number '" + kv.value + "'");
      }
      if (kv.key == "pct") {
        if (v < 0.0) return fail(error, "trem-noise: pct must be >= 0");
        f.rate = v / 100.0;
        have_pct = true;
      } else {
        return fail(error, "trem-noise: unknown key '" + kv.key + "'");
      }
    }
    if (!have_pct) return fail(error, "trem-noise requires pct=");
    plan->trem_noise = f;
    return true;
  }

  return fail(error, "unknown fault '" + name + "'");
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec,
                                          std::string* error) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (const std::string& clause : split(spec, ',')) {
    if (clause.empty()) {
      *error = "empty fault clause";
      return std::nullopt;
    }
    if (!parse_clause(clause, &plan, error)) return std::nullopt;
  }
  return plan;
}

std::string FaultPlan::to_spec() const {
  std::string out;
  auto append = [&out](const std::string& clause) {
    if (!out.empty()) out += ',';
    out += clause;
  };
  if (straggler.has_value()) {
    append("straggler:p=" + fmt(straggler->p) +
           ":slow=" + fmt(straggler->slow));
  }
  if (container_kill.has_value()) {
    append("container-kill:p=" + fmt(container_kill->p));
  }
  for (const OcsOutageFault& o : ocs_outages) {
    std::string clause = "ocs-outage:at=" + fmt(o.at.sec()) +
                         "s:dur=" + fmt(o.dur.sec()) + "s";
    if (o.plane >= 0) clause += ":plane=" + std::to_string(o.plane);
    append(clause);
  }
  if (reconfig_jitter.has_value()) {
    append("reconfig-jitter:pct=" + fmt(reconfig_jitter->pct * 100.0));
  }
  if (trem_noise.has_value()) {
    append("trem-noise:pct=" + fmt(trem_noise->rate * 100.0));
  }
  return out;
}

}  // namespace cosched

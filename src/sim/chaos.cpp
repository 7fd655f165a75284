#include "sim/chaos.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace wile::sim {
namespace {

constexpr FaultKind kAllKinds[] = {
    FaultKind::kApOutage,       FaultKind::kJammer,
    FaultKind::kNoiseRise,      FaultKind::kPerMultiplier,
    FaultKind::kLossFloor,      FaultKind::kNodeLossFloor,
    FaultKind::kRadioDeaf,      FaultKind::kClockDriftStep,
    FaultKind::kBrownOut,       FaultKind::kBrownOutAll,
    FaultKind::kHarvestFade,    FaultKind::kRfDrought,
};

bool is_one_shot(FaultKind kind) {
  return kind == FaultKind::kClockDriftStep || kind == FaultKind::kBrownOut ||
         kind == FaultKind::kBrownOutAll;
}

bool is_device_targeted(FaultKind kind) {
  return kind == FaultKind::kNodeLossFloor || kind == FaultKind::kRadioDeaf ||
         kind == FaultKind::kClockDriftStep || kind == FaultKind::kBrownOut;
}

}  // namespace

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kApOutage: return "ap_outage";
    case FaultKind::kJammer: return "jammer";
    case FaultKind::kNoiseRise: return "noise_rise";
    case FaultKind::kPerMultiplier: return "per_multiplier";
    case FaultKind::kLossFloor: return "loss_floor";
    case FaultKind::kNodeLossFloor: return "node_loss_floor";
    case FaultKind::kRadioDeaf: return "radio_deaf";
    case FaultKind::kClockDriftStep: return "clock_drift_step";
    case FaultKind::kBrownOut: return "brown_out";
    case FaultKind::kBrownOutAll: return "brown_out_all";
    case FaultKind::kHarvestFade: return "harvest_fade";
    case FaultKind::kRfDrought: return "rf_drought";
  }
  return "unknown";
}

std::optional<FaultKind> kind_from_name(const std::string& name) {
  for (const FaultKind kind : kAllKinds) {
    if (name == kind_name(kind)) return kind;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Generation.
// ---------------------------------------------------------------------------

Campaign generate_campaign(std::uint64_t seed, const ChaosConfig& config) {
  Campaign campaign;
  campaign.seed = seed;
  campaign.horizon_us = config.horizon.count();

  // Offset the seed so a campaign never shares a stream with the
  // scenario it runs against (ScenarioBuilder derives its streams from
  // the same master seed).
  Rng rng{seed ^ 0xC7A0'5EEDull};

  const int lo = std::max(0, config.min_actions);
  const int hi = std::max(lo, config.max_actions);
  const int n_actions = lo + static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(hi - lo) + 1));

  for (int i = 0; i < n_actions; ++i) {
    FaultAction action;
    action.kind = kAllKinds[rng.below(std::size(kAllKinds))];

    // Windows start inside the first 90% of the horizon so even the
    // longest draw gets some open time; one-shots land anywhere.
    const auto start_span = static_cast<std::uint64_t>(
        is_one_shot(action.kind) ? campaign.horizon_us
                                 : campaign.horizon_us * 9 / 10);
    action.start_us = static_cast<std::int64_t>(rng.below(start_span + 1));

    if (!is_one_shot(action.kind)) {
      // Log-uniform-ish duration, 100 ms .. 25.6 s, clamped into the
      // horizon (a window reaching past it would never unwind).
      std::int64_t duration = 100'000ll << rng.below(9);
      duration = std::min(duration, campaign.horizon_us - action.start_us);
      action.duration_us = std::max<std::int64_t>(duration, 1000);
    }

    switch (action.kind) {
      case FaultKind::kJammer:
        action.magnitude = 0.05 + rng.uniform() * 0.55;  // duty cycle
        break;
      case FaultKind::kNoiseRise:
        action.magnitude = 2.0 + rng.uniform() * 18.0;  // dB
        break;
      case FaultKind::kPerMultiplier:
        action.magnitude = 1.5 + rng.uniform() * 6.5;
        break;
      case FaultKind::kLossFloor:
      case FaultKind::kNodeLossFloor:
        action.magnitude = 0.05 + rng.uniform() * 0.55;
        break;
      case FaultKind::kClockDriftStep:
        // Up to 20% skew either way — far past crystal reality, which
        // is the point: the receiver's scan window has to cope.
        action.magnitude =
            (rng.chance(0.5) ? 1.0 : -1.0) * (1000.0 + rng.uniform() * 199000.0);
        break;
      case FaultKind::kHarvestFade:
        action.magnitude = rng.uniform() * 0.8;  // scale toward darkness
        break;
      default:
        break;  // kApOutage/kRadioDeaf/kBrownOut*/kRfDrought: no magnitude
    }

    if (is_device_targeted(action.kind)) {
      action.target = static_cast<std::int32_t>(
          rng.below(static_cast<std::uint64_t>(std::max(1, config.n_devices))));
    }
    campaign.actions.push_back(action);
  }

  // Chronological scripts read better in repro files; stable so
  // same-start actions keep their draw order.
  std::stable_sort(campaign.actions.begin(), campaign.actions.end(),
                   [](const FaultAction& a, const FaultAction& b) {
                     return a.start_us < b.start_us;
                   });
  return campaign;
}

// ---------------------------------------------------------------------------
// Arming a campaign against a scenario.
// ---------------------------------------------------------------------------

std::size_t schedule_campaign(const Campaign& campaign,
                              const ChaosTargets& targets) {
  if (targets.faults == nullptr) {
    throw std::invalid_argument("schedule_campaign: null FaultInjector");
  }
  FaultInjector& fi = *targets.faults;
  std::size_t armed = 0;

  for (const FaultAction& action : campaign.actions) {
    const TimePoint start{Duration{action.start_us}};
    const Duration duration{action.duration_us};
    if (!is_one_shot(action.kind) && action.duration_us <= 0) continue;

    // Resolve the device binding once; actions pointing at a device the
    // scenario doesn't have are skipped, deterministically.
    const auto device_index = static_cast<std::size_t>(action.target);
    const bool has_device =
        action.target >= 0 && device_index < targets.device_nodes.size();

    switch (action.kind) {
      case FaultKind::kApOutage:
        if (!targets.gateway_nodes.empty()) {
          // The scenario's observable AP failure: every gateway goes
          // deaf for the window.
          for (const NodeId node : targets.gateway_nodes) {
            fi.radio_deaf(start, duration, node);
          }
          ++armed;
        }
        break;
      case FaultKind::kJammer: {
        JammerConfig config;
        config.position = targets.jammer_position;
        config.duty_cycle = action.magnitude;
        fi.jammer(start, duration, config);
        ++armed;
        break;
      }
      case FaultKind::kNoiseRise:
        fi.noise_floor_rise(start, duration, action.magnitude);
        ++armed;
        break;
      case FaultKind::kPerMultiplier:
        fi.per_multiplier(start, duration, action.magnitude);
        ++armed;
        break;
      case FaultKind::kLossFloor:
        fi.per_floor(start, duration, action.magnitude);
        ++armed;
        break;
      case FaultKind::kNodeLossFloor:
        if (has_device) {
          fi.per_floor(start, duration, action.magnitude,
                       targets.device_nodes[device_index]);
          ++armed;
        }
        break;
      case FaultKind::kRadioDeaf:
        if (has_device) {
          fi.radio_deaf(start, duration, targets.device_nodes[device_index]);
          ++armed;
        }
        break;
      case FaultKind::kClockDriftStep:
        if (action.target >= 0 && device_index < targets.clock_drift.size() &&
            targets.clock_drift[device_index]) {
          fi.at(start, [fn = targets.clock_drift[device_index],
                        ppm = action.magnitude] { fn(ppm); });
          ++armed;
        }
        break;
      case FaultKind::kBrownOut:
        if (action.target >= 0 && device_index < targets.energy.size() &&
            targets.energy[device_index] != nullptr) {
          fi.brown_out(start, *targets.energy[device_index]);
          ++armed;
        }
        break;
      case FaultKind::kBrownOutAll:
        // Hits whatever energy targets are registered with the injector
        // at fire time; a no-op for mains-powered fleets.
        fi.brown_out_all(start);
        ++armed;
        break;
      case FaultKind::kHarvestFade:
        fi.harvest_fade(start, duration, action.magnitude);
        ++armed;
        break;
      case FaultKind::kRfDrought:
        fi.rf_drought(start, duration);
        ++armed;
        break;
    }
  }
  return armed;
}

// ---------------------------------------------------------------------------
// JSON. Writer builds strings directly; the reader is a minimal
// recursive-descent parser for the subset we emit (no external deps —
// same reasoning as the fprintf writers in bench/).
// ---------------------------------------------------------------------------

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_actions(std::string& out, const Campaign& campaign,
                    const char* indent) {
  char buf[256];
  for (std::size_t i = 0; i < campaign.actions.size(); ++i) {
    const FaultAction& a = campaign.actions[i];
    // %.17g: doubles survive the round-trip bit-exactly.
    std::snprintf(buf, sizeof buf,
                  "%s{\"kind\": \"%s\", \"start_us\": %lld, "
                  "\"duration_us\": %lld, \"magnitude\": %.17g, "
                  "\"target\": %d}%s\n",
                  indent, kind_name(a.kind),
                  static_cast<long long>(a.start_us),
                  static_cast<long long>(a.duration_us), a.magnitude, a.target,
                  i + 1 < campaign.actions.size() ? "," : "");
    out += buf;
  }
}

std::string campaign_body(const Campaign& campaign, const char* pad) {
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "%s  \"schema\": \"wile-chaos-campaign-v1\",\n"
                "%s  \"seed\": %llu,\n%s  \"horizon_us\": %lld,\n"
                "%s  \"actions\": [\n",
                pad, pad, static_cast<unsigned long long>(campaign.seed), pad,
                static_cast<long long>(campaign.horizon_us), pad);
  out += buf;
  append_actions(out, campaign, (std::string(pad) + "    ").c_str());
  out += pad;
  out += "  ]\n";
  return out;
}

// --- reader ---

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string raw;  // original number token, for exact integer parses
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] std::int64_t as_i64() const {
    return std::strtoll(raw.c_str(), nullptr, 10);
  }
  [[nodiscard]] std::uint64_t as_u64() const {
    return std::strtoull(raw.c_str(), nullptr, 10);
  }
};

struct JsonParser {
  const char* p;
  const char* end;
  bool ok = true;

  explicit JsonParser(const std::string& text)
      : p(text.data()), end(text.data() + text.size()) {}

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    ok = false;
    return false;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (static_cast<std::size_t>(end - p) >= n && std::strncmp(p, word, n) == 0) {
      p += n;
      return true;
    }
    ok = false;
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    if (p >= end) {
      ok = false;
      return v;
    }
    switch (*p) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"':
        v.type = JsonValue::Type::kString;
        v.string = parse_string();
        return v;
      case 't':
        v.type = JsonValue::Type::kBool;
        v.boolean = true;
        literal("true");
        return v;
      case 'f':
        v.type = JsonValue::Type::kBool;
        literal("false");
        return v;
      case 'n':
        literal("null");
        return v;
      default: return parse_number();
    }
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) return out;
    while (p < end && *p != '"') {
      if (*p == '\\' && p + 1 < end) {
        ++p;
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (end - p < 5) {
              ok = false;
              return out;
            }
            char hex[5] = {p[1], p[2], p[3], p[4], 0};
            const long code = std::strtol(hex, nullptr, 16);
            // We only emit \u for control characters; decode the
            // single-byte range and flatten anything else.
            out += code < 0x80 ? static_cast<char>(code) : '?';
            p += 4;
            break;
          }
          default: ok = false; return out;
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    if (!consume('"')) ok = false;
    return out;
  }

  JsonValue parse_number() {
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    const char* start = p;
    if (p < end && (*p == '-' || *p == '+')) ++p;
    while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) != 0 ||
                       *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                       *p == '+')) {
      ++p;
    }
    if (p == start) {
      ok = false;
      return v;
    }
    v.raw.assign(start, p);
    v.number = std::strtod(v.raw.c_str(), nullptr);
    return v;
  }

  JsonValue parse_array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    consume('[');
    skip_ws();
    if (p < end && *p == ']') {
      ++p;
      return v;
    }
    while (ok) {
      v.array.push_back(parse_value());
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      consume(']');
      break;
    }
    return v;
  }

  JsonValue parse_object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    consume('{');
    skip_ws();
    if (p < end && *p == '}') {
      ++p;
      return v;
    }
    while (ok) {
      skip_ws();
      std::string key = parse_string();
      consume(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      consume('}');
      break;
    }
    return v;
  }
};

std::optional<Campaign> campaign_from_value(const JsonValue& doc) {
  if (doc.type != JsonValue::Type::kObject) return std::nullopt;
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "wile-chaos-campaign-v1") {
    return std::nullopt;
  }
  const JsonValue* seed = doc.find("seed");
  const JsonValue* horizon = doc.find("horizon_us");
  const JsonValue* actions = doc.find("actions");
  if (seed == nullptr || horizon == nullptr || actions == nullptr ||
      actions->type != JsonValue::Type::kArray) {
    return std::nullopt;
  }

  Campaign campaign;
  campaign.seed = seed->as_u64();
  campaign.horizon_us = horizon->as_i64();
  for (const JsonValue& entry : actions->array) {
    const JsonValue* kind = entry.find("kind");
    const JsonValue* start = entry.find("start_us");
    if (kind == nullptr || start == nullptr) return std::nullopt;
    const auto parsed = kind_from_name(kind->string);
    if (!parsed) return std::nullopt;

    FaultAction action;
    action.kind = *parsed;
    action.start_us = start->as_i64();
    if (const JsonValue* v = entry.find("duration_us")) action.duration_us = v->as_i64();
    if (const JsonValue* v = entry.find("magnitude")) action.magnitude = v->number;
    if (const JsonValue* v = entry.find("target")) {
      action.target = static_cast<std::int32_t>(v->as_i64());
    }
    campaign.actions.push_back(action);
  }
  return campaign;
}

}  // namespace

std::string campaign_to_json(const Campaign& campaign) {
  return "{\n" + campaign_body(campaign, "") + "}\n";
}

std::optional<Campaign> campaign_from_json(const std::string& json) {
  JsonParser parser{json};
  const JsonValue doc = parser.parse_value();
  if (!parser.ok) return std::nullopt;
  return campaign_from_value(doc);
}

// ---------------------------------------------------------------------------
// Shrinking: ddmin over the action list. Each probe is a full scenario
// replay, so the budget is the scarce resource, not the bookkeeping.
// ---------------------------------------------------------------------------

ShrinkResult shrink_campaign(
    const Campaign& failing,
    const std::function<bool(const Campaign&)>& reproduces,
    std::size_t max_runs) {
  ShrinkResult result;
  result.original_actions = failing.actions.size();
  result.minimal = failing;

  const auto with_actions = [&failing](std::vector<FaultAction> actions) {
    Campaign c;
    c.seed = failing.seed;
    c.horizon_us = failing.horizon_us;
    c.actions = std::move(actions);
    return c;
  };

  // The input must reproduce before shrinking means anything — a flaky
  // predicate would otherwise "shrink" to garbage.
  ++result.runs;
  if (!reproduces(failing)) return result;
  result.reproduced = true;

  std::vector<FaultAction> current = failing.actions;
  std::size_t granularity = 2;
  while (current.size() >= 2 && result.runs < max_runs) {
    granularity = std::min(granularity, current.size());
    const std::size_t chunk =
        (current.size() + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t i = 0; i < granularity && result.runs < max_runs; ++i) {
      // Complement of subset i: drop one chunk, keep the rest in order.
      std::vector<FaultAction> candidate;
      candidate.reserve(current.size());
      for (std::size_t j = 0; j < current.size(); ++j) {
        if (j / chunk != i) candidate.push_back(current[j]);
      }
      if (candidate.size() == current.size()) continue;
      ++result.runs;
      if (reproduces(with_actions(candidate))) {
        current = std::move(candidate);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      // At granularity == size the probes were single-action removals:
      // the set is 1-minimal.
      if (granularity >= current.size()) break;
      granularity = std::min(current.size(), granularity * 2);
    }
  }

  // One last probe: does the violation even need the surviving action?
  // An empty campaign reproducing means the scenario (or the oracle) is
  // broken at baseline — the most useful possible repro.
  if (current.size() == 1 && result.runs < max_runs) {
    ++result.runs;
    if (reproduces(with_actions({}))) current.clear();
  }

  result.minimal = with_actions(std::move(current));
  return result;
}

// ---------------------------------------------------------------------------
// Repro files.
// ---------------------------------------------------------------------------

bool write_repro_file(const std::string& path, const ReproFile& repro) {
  std::string out = "{\n  \"schema\": \"wile-chaos-repro-v1\",\n  \"scenario\": ";
  append_escaped(out, repro.scenario);
  char buf[192];
  std::snprintf(buf, sizeof buf, ",\n  \"scenario_seed\": %llu,\n",
                static_cast<unsigned long long>(repro.scenario_seed));
  out += buf;
  out += "  \"violation\": {\n    \"invariant\": ";
  append_escaped(out, repro.invariant);
  out += ",\n    \"detail\": ";
  append_escaped(out, repro.detail);
  std::snprintf(buf, sizeof buf, ",\n    \"at_us\": %lld,\n    \"node\": %llu\n  },\n",
                static_cast<long long>(repro.violation_at_us),
                static_cast<unsigned long long>(repro.node));
  out += buf;
  out += "  \"campaign\": {\n";
  out += campaign_body(repro.campaign, "  ");
  out += "  }\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && written;
}

std::optional<ReproFile> load_repro_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  JsonParser parser{text};
  const JsonValue doc = parser.parse_value();
  if (!parser.ok || doc.type != JsonValue::Type::kObject) return std::nullopt;
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "wile-chaos-repro-v1") {
    return std::nullopt;
  }
  const JsonValue* campaign = doc.find("campaign");
  const JsonValue* violation = doc.find("violation");
  if (campaign == nullptr || violation == nullptr) return std::nullopt;
  auto parsed = campaign_from_value(*campaign);
  if (!parsed) return std::nullopt;

  ReproFile repro;
  repro.campaign = std::move(*parsed);
  if (const JsonValue* v = doc.find("scenario")) repro.scenario = v->string;
  if (const JsonValue* v = doc.find("scenario_seed")) repro.scenario_seed = v->as_u64();
  if (const JsonValue* v = violation->find("invariant")) repro.invariant = v->string;
  if (const JsonValue* v = violation->find("detail")) repro.detail = v->string;
  if (const JsonValue* v = violation->find("at_us")) repro.violation_at_us = v->as_i64();
  if (const JsonValue* v = violation->find("node")) repro.node = v->as_u64();
  return repro;
}

}  // namespace wile::sim

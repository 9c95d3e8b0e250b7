#include "core/canonical.hpp"

#include <cmath>
#include <set>
#include <stdexcept>

#include "base/faults.hpp"
#include "uwb/channel.hpp"

namespace uwbams::core::canonical {

namespace {

using base::JsonArray;
using base::JsonObject;
using base::JsonValue;

[[noreturn]] void fail(const std::string& what) {
  throw base::JsonError("canonical: " + what);
}

std::uint64_t parse_hex_u64(const JsonValue& v, const char* name) {
  const std::string& s = v.as_string();
  if (s.size() < 3 || s[0] != '0' || s[1] != 'x')
    fail(std::string(name) + ": expected a 0x-prefixed hex string, got '" + s +
         "'");
  std::size_t pos = 0;
  unsigned long long out = 0;
  try {
    out = std::stoull(s.substr(2), &pos, 16);
  } catch (const std::exception&) {
    fail(std::string(name) + ": bad hex string '" + s + "'");
  }
  if (pos != s.size() - 2)
    fail(std::string(name) + ": bad hex string '" + s + "'");
  return out;
}

int parse_exact_int(const JsonValue& v, const char* name) {
  const double d = v.as_number();
  if (std::nearbyint(d) != d || std::abs(d) > 2147483647.0)
    fail(std::string(name) + ": expected an exact 32-bit integer");
  return static_cast<int>(d);
}

// Renders one field into the object under construction.
struct Writer {
  JsonObject* obj;
  void operator()(const char* name, double& f) { (*obj)[name] = JsonValue(f); }
  void operator()(const char* name, int& f) { (*obj)[name] = JsonValue(f); }
  void operator()(const char* name, bool& f) { (*obj)[name] = JsonValue(f); }
  void operator()(const char* name, std::uint64_t& f) {
    (*obj)[name] = JsonValue(base::hex_u64(f));
  }
  void operator()(const char* name, std::vector<double>& f) {
    JsonArray arr;
    arr.reserve(f.size());
    for (double x : f) arr.emplace_back(x);
    (*obj)[name] = JsonValue(std::move(arr));
  }
  void operator()(const char* name, spice::Integrator& f) {
    (*obj)[name] = JsonValue(integrator_method_name(f));
  }
  void operator()(const char* name, spice::Corner& f) {
    (*obj)[name] = JsonValue(std::string(spice::to_string(f)));
  }
  void operator()(const char* name, uwb::ChannelClass& f) {
    (*obj)[name] = JsonValue(std::string(uwb::to_string(f)));
  }
};

// Assigns one field from the source object, tracking consumed keys so the
// caller can reject unknown ones afterwards.
struct Reader {
  const JsonObject* obj;
  std::set<std::string>* seen;

  const JsonValue& get(const char* name) {
    const auto it = obj->find(name);
    if (it == obj->end()) fail(std::string("missing key '") + name + "'");
    seen->insert(name);
    return it->second;
  }
  void operator()(const char* name, double& f) { f = get(name).as_number(); }
  void operator()(const char* name, int& f) {
    f = parse_exact_int(get(name), name);
  }
  void operator()(const char* name, bool& f) { f = get(name).as_bool(); }
  void operator()(const char* name, std::uint64_t& f) {
    f = parse_hex_u64(get(name), name);
  }
  void operator()(const char* name, std::vector<double>& f) {
    const JsonArray& arr = get(name).as_array();
    f.clear();
    f.reserve(arr.size());
    for (const JsonValue& x : arr) f.push_back(x.as_number());
  }
  void operator()(const char* name, spice::Integrator& f) {
    const std::string& s = get(name).as_string();
    if (!parse_integrator_method(s, &f))
      fail(std::string(name) + ": unknown integration method '" + s + "'");
  }
  void operator()(const char* name, spice::Corner& f) {
    const std::string& s = get(name).as_string();
    // Qualified: ADL on spice::Corner would also find the (case-insensitive)
    // spice::parse_corner; canonical parsing is exact-match only.
    if (!canonical::parse_corner(s, &f))
      fail(std::string(name) + ": unknown corner '" + s + "'");
  }
  void operator()(const char* name, uwb::ChannelClass& f) {
    const std::string& s = get(name).as_string();
    if (!canonical::parse_channel_class(s, &f))
      fail(std::string(name) + ": unknown channel class '" + s + "'");
  }
};

void reject_unknown(const JsonObject& obj, const std::set<std::string>& seen,
                    const char* what) {
  for (const auto& [key, value] : obj)
    if (seen.count(key) == 0)
      fail(std::string(what) + ": unknown key '" + key + "'");
}

// Flat structs (no nested sub-objects) share one implementation.
template <typename T>
JsonValue flat_to_json(const T& value) {
  T copy = value;
  JsonObject obj;
  visit_fields(copy, Writer{&obj});
  return JsonValue(std::move(obj));
}

template <typename T>
void flat_from_json(const JsonValue& doc, T* out, const char* what) {
  const JsonObject& obj = doc.as_object();
  std::set<std::string> seen;
  T tmp{};
  visit_fields(tmp, Reader{&obj, &seen});
  reject_unknown(obj, seen, what);
  *out = tmp;
}

// One nested sub-object on the read path.
template <typename Sub>
void read_sub(const JsonObject& obj, std::set<std::string>* seen,
              const char* name, Sub* out, const char* what) {
  const auto it = obj.find(name);
  if (it == obj.end())
    fail(std::string(what) + ": missing key '" + name + "'");
  seen->insert(name);
  from_json(it->second, out);
}

}  // namespace

std::string integrator_method_name(spice::Integrator method) {
  switch (method) {
    case spice::Integrator::kTrapezoidal: return "trapezoidal";
    case spice::Integrator::kBackwardEuler: return "backward_euler";
  }
  return "?";
}

bool parse_integrator_method(const std::string& text, spice::Integrator* out) {
  if (text == "trapezoidal") *out = spice::Integrator::kTrapezoidal;
  else if (text == "backward_euler") *out = spice::Integrator::kBackwardEuler;
  else return false;
  return true;
}

bool parse_corner(const std::string& text, spice::Corner* out) {
  for (const spice::Corner c :
       {spice::Corner::kTT, spice::Corner::kFF, spice::Corner::kSS,
        spice::Corner::kFS, spice::Corner::kSF}) {
    if (text == spice::to_string(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

bool parse_channel_class(const std::string& text, uwb::ChannelClass* out) {
  return uwb::parse_channel_class(text, out);
}

bool parse_integrator_kind(const std::string& text, IntegratorKind* out) {
  for (const IntegratorKind k :
       {IntegratorKind::kIdeal, IntegratorKind::kSpice,
        IntegratorKind::kBehavioral}) {
    if (text == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

base::JsonValue to_json(const uwb::ClockConfig& c) { return flat_to_json(c); }
void from_json(const base::JsonValue& doc, uwb::ClockConfig* out) {
  flat_from_json(doc, out, "ClockConfig");
}

base::JsonValue to_json(const uwb::InterferenceConfig& c) {
  return flat_to_json(c);
}
void from_json(const base::JsonValue& doc, uwb::InterferenceConfig* out) {
  flat_from_json(doc, out, "InterferenceConfig");
}

base::JsonValue to_json(const uwb::SystemConfig& c) {
  uwb::SystemConfig copy = c;
  JsonObject obj;
  visit_fields(copy, Writer{&obj});
  obj["clock"] = to_json(c.clock);
  obj["interference"] = to_json(c.interference);
  return JsonValue(std::move(obj));
}

void from_json(const base::JsonValue& doc, uwb::SystemConfig* out) {
  const JsonObject& obj = doc.as_object();
  std::set<std::string> seen;
  uwb::SystemConfig tmp{};
  visit_fields(tmp, Reader{&obj, &seen});
  read_sub(obj, &seen, "clock", &tmp.clock, "SystemConfig");
  read_sub(obj, &seen, "interference", &tmp.interference, "SystemConfig");
  reject_unknown(obj, seen, "SystemConfig");
  *out = tmp;
}

base::JsonValue to_json(const spice::ModelVariation& c) {
  return flat_to_json(c);
}
void from_json(const base::JsonValue& doc, spice::ModelVariation* out) {
  flat_from_json(doc, out, "ModelVariation");
}

base::JsonValue to_json(const spice::ItdSizing& c) {
  spice::ItdSizing copy = c;
  JsonObject obj;
  visit_fields(copy, Writer{&obj});
  obj["variation"] = to_json(c.variation);
  return JsonValue(std::move(obj));
}

void from_json(const base::JsonValue& doc, spice::ItdSizing* out) {
  const JsonObject& obj = doc.as_object();
  std::set<std::string> seen;
  spice::ItdSizing tmp{};
  visit_fields(tmp, Reader{&obj, &seen});
  read_sub(obj, &seen, "variation", &tmp.variation, "ItdSizing");
  reject_unknown(obj, seen, "ItdSizing");
  *out = tmp;
}

base::JsonValue to_json(const spice::AdaptiveOptions& c) {
  return flat_to_json(c);
}
void from_json(const base::JsonValue& doc, spice::AdaptiveOptions* out) {
  flat_from_json(doc, out, "AdaptiveOptions");
}

base::JsonValue to_json(const spice::OpOptions& c) { return flat_to_json(c); }
void from_json(const base::JsonValue& doc, spice::OpOptions* out) {
  flat_from_json(doc, out, "OpOptions");
}

base::JsonValue to_json(const spice::TransientOptions& c) {
  spice::TransientOptions copy = c;
  JsonObject obj;
  visit_fields(copy, Writer{&obj});
  obj["adaptive"] = to_json(c.adaptive);
  obj["op"] = to_json(c.op);
  return JsonValue(std::move(obj));
}

void from_json(const base::JsonValue& doc, spice::TransientOptions* out) {
  const JsonObject& obj = doc.as_object();
  std::set<std::string> seen;
  spice::TransientOptions tmp{};
  visit_fields(tmp, Reader{&obj, &seen});
  read_sub(obj, &seen, "adaptive", &tmp.adaptive, "TransientOptions");
  read_sub(obj, &seen, "op", &tmp.op, "TransientOptions");
  reject_unknown(obj, seen, "TransientOptions");
  *out = tmp;
}

base::JsonValue to_json(const CharacterizeOptions& c) {
  if (c.ac_workspace != nullptr)
    throw std::invalid_argument(
        "canonical: CharacterizeOptions with a borrowed ac_workspace cannot "
        "be serialized (per-task solver state, not a knob)");
  CharacterizeOptions copy = c;
  JsonObject obj;
  visit_fields(copy, Writer{&obj});
  obj["transient"] = to_json(c.transient);
  return JsonValue(std::move(obj));
}

void from_json(const base::JsonValue& doc, CharacterizeOptions* out) {
  const JsonObject& obj = doc.as_object();
  std::set<std::string> seen;
  CharacterizeOptions tmp{};
  visit_fields(tmp, Reader{&obj, &seen});
  read_sub(obj, &seen, "transient", &tmp.transient, "CharacterizeOptions");
  reject_unknown(obj, seen, "CharacterizeOptions");
  tmp.ac_workspace = nullptr;
  *out = tmp;
}

base::JsonValue to_json(const uwb::TwrConfig& c) {
  uwb::TwrConfig copy = c;
  JsonObject obj;
  visit_fields(copy, Writer{&obj});
  obj["sys"] = to_json(c.sys);
  obj["clock_a"] = to_json(c.clock_a);
  obj["clock_b"] = to_json(c.clock_b);
  return JsonValue(std::move(obj));
}

void from_json(const base::JsonValue& doc, uwb::TwrConfig* out) {
  const JsonObject& obj = doc.as_object();
  std::set<std::string> seen;
  uwb::TwrConfig tmp{};
  visit_fields(tmp, Reader{&obj, &seen});
  read_sub(obj, &seen, "sys", &tmp.sys, "TwrConfig");
  read_sub(obj, &seen, "clock_a", &tmp.clock_a, "TwrConfig");
  read_sub(obj, &seen, "clock_b", &tmp.clock_b, "TwrConfig");
  reject_unknown(obj, seen, "TwrConfig");
  *out = tmp;
}

std::uint64_t key_of(const base::JsonValue& doc) {
  return base::fnv1a64(doc.dump(0));
}

}  // namespace uwbams::core::canonical

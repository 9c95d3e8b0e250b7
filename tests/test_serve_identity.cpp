// test_serve_identity — the content-key contract behind every cache layer:
//
//   * canonical JSON identity: reordering keys or reformatting whitespace
//     of a document never changes its content key (parse -> canonical
//     re-render -> hash), and write -> parse -> write is byte-stable;
//   * completeness: mutating *every* field the visit_fields templates
//     declare flips the key — the suite iterates the fields
//     programmatically, so it grows with the visitor automatically — and
//     sizeof/field-count pins make a knob added to a struct but not to its
//     visitor fail loudly here instead of silently not being hashed;
//   * strictness: unknown keys, missing keys, truncated hex and
//     non-integral ints are rejected on the way in;
//   * exact round trips: from_json(to_json(x)) == x member-for-member,
//     including spec_from_json(spec_to_json(s)) == s for a spec of every
//     registered scenario (this binary links the scenario registrations);
//   * pinned reference vectors: like test_faults pins fnv1a64, the keys of
//     default-constructed documents are pinned so an accidental change to
//     the canonical rendering (field rename, %.17g regression, kCodeVersion
//     edit) is caught even when it is self-consistent.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/checkpoint.hpp"
#include "base/faults.hpp"
#include "base/json.hpp"
#include "core/canonical.hpp"
#include "runner/registry.hpp"
#include "runner/spec_json.hpp"
#include "serve/protocol.hpp"

using namespace uwbams;
namespace canon = core::canonical;

namespace {

// ------------------------------------------------------------ field walking

template <typename T>
int field_count() {
  T obj{};
  int n = 0;
  canon::visit_fields(obj, [&n](const char*, auto&) { ++n; });
  return n;
}

void mutate(double& f) { f += 1.5; }
void mutate(int& f) { f += 1; }
void mutate(bool& f) { f = !f; }
void mutate(std::uint64_t& f) { f += 1; }
void mutate(std::vector<double>& f) { f.push_back(42.0); }
void mutate(spice::Integrator& f) {
  f = f == spice::Integrator::kTrapezoidal ? spice::Integrator::kBackwardEuler
                                           : spice::Integrator::kTrapezoidal;
}
void mutate(spice::Corner& f) {
  f = f == spice::Corner::kTT ? spice::Corner::kFF : spice::Corner::kTT;
}
void mutate(uwb::ChannelClass& f) {
  f = f == uwb::ChannelClass::kCm1 ? uwb::ChannelClass::kCm2
                                   : uwb::ChannelClass::kCm1;
}

// Mutates only the target-th visited field, recording its name.
struct FieldMutator {
  int target = 0;
  int index = 0;
  std::string name;
  template <typename F>
  void operator()(const char* field_name, F& f) {
    if (index++ != target) return;
    name = field_name;
    mutate(f);
  }
};

// Every field declared in T's visitor must flip the key of to_json(T).
template <typename T, typename ToJson>
void expect_every_field_keyed(const char* what, ToJson&& to_json_fn) {
  const std::uint64_t base_key = canon::key_of(to_json_fn(T{}));
  const int n = field_count<T>();
  ASSERT_GT(n, 0) << what;
  for (int k = 0; k < n; ++k) {
    T mutated{};
    FieldMutator m{k};
    canon::visit_fields(mutated, m);
    EXPECT_NE(canon::key_of(to_json_fn(mutated)), base_key)
        << what << ": mutating field '" << m.name
        << "' did not change the content key";
  }
}

// Round trip through the canonical JSON must reproduce the mutated value
// exactly (catches a field serialized but mis-parsed, or vice versa).
template <typename T, typename ToJson, typename FromJson>
void expect_every_field_round_trips(const char* what, ToJson&& to_json_fn,
                                    FromJson&& from_json_fn) {
  const int n = field_count<T>();
  for (int k = 0; k < n; ++k) {
    T mutated{};
    FieldMutator m{k};
    canon::visit_fields(mutated, m);
    T back{};
    from_json_fn(to_json_fn(mutated), &back);
    EXPECT_EQ(canon::key_of(to_json_fn(back)),
              canon::key_of(to_json_fn(mutated)))
        << what << ": field '" << m.name << "' did not round-trip";
  }
}

std::string reorder_ws(const std::string& compact) {
  // Re-render with indentation: same document, different bytes.
  return base::parse_json(compact).dump(2);
}

}  // namespace

// ------------------------------------------------- canonical form stability

TEST(CanonicalIdentity, ParseDumpIsByteStable) {
  const std::string once = canon::to_json(uwb::SystemConfig{}).dump(0);
  const std::string twice = base::parse_json(once).dump(0);
  EXPECT_EQ(once, twice);
}

TEST(CanonicalIdentity, WhitespaceAndKeyOrderDoNotChangeTheKey) {
  const base::JsonValue doc = canon::to_json(uwb::SystemConfig{});
  const std::uint64_t key = canon::key_of(doc);
  // Indented re-render parses back to the same canonical document.
  EXPECT_EQ(canon::key_of(base::parse_json(reorder_ws(doc.dump(0)))), key);
  // JsonObject is a sorted map: any insertion order renders identically,
  // so a hand-built document with "reversed" insertion hashes the same.
  base::JsonObject a;
  a["zeta"] = base::JsonValue(1.0);
  a["alpha"] = base::JsonValue(2.0);
  base::JsonObject b;
  b["alpha"] = base::JsonValue(2.0);
  b["zeta"] = base::JsonValue(1.0);
  EXPECT_EQ(base::JsonValue(a).dump(0), base::JsonValue(b).dump(0));
}

// ------------------------------------------------------- completeness pins
//
// Two tripwires per struct: the visitor field count (a field added to the
// visitor updates the pin here deliberately) and sizeof (a field added to
// the *struct* but not the visitor changes sizeof while the count stays —
// the mismatch forces whoever adds the knob to wire it into the visitor).

TEST(CanonicalCompleteness, FieldCountAndSizeofPins) {
  EXPECT_EQ(field_count<uwb::ClockConfig>(), 5);
  EXPECT_EQ(field_count<uwb::SystemConfig>(), 43);
  EXPECT_EQ(field_count<uwb::InterferenceConfig>(), 6);
  EXPECT_EQ(field_count<spice::ModelVariation>(), 8);
  EXPECT_EQ(field_count<spice::ItdSizing>(), 37);
  EXPECT_EQ(field_count<spice::AdaptiveOptions>(), 8);
  EXPECT_EQ(field_count<spice::OpOptions>(), 6);
  EXPECT_EQ(field_count<spice::TransientOptions>(), 14);
  EXPECT_EQ(field_count<core::CharacterizeOptions>(), 7);
  EXPECT_EQ(field_count<uwb::TwrConfig>(), 5);

  EXPECT_EQ(sizeof(uwb::ClockConfig), 40u);
  EXPECT_EQ(sizeof(uwb::SystemConfig), 416u);
  EXPECT_EQ(sizeof(uwb::InterferenceConfig), 48u);
  EXPECT_EQ(sizeof(spice::ModelVariation), 64u);
  EXPECT_EQ(sizeof(spice::ItdSizing), 360u);
  EXPECT_EQ(sizeof(spice::AdaptiveOptions), 64u);
  EXPECT_EQ(sizeof(spice::OpOptions), 64u);
  EXPECT_EQ(sizeof(spice::TransientOptions), 200u);
  EXPECT_EQ(sizeof(core::CharacterizeOptions), 256u);
  EXPECT_EQ(sizeof(uwb::TwrConfig), 536u);
}

// --------------------------------------------------------- mutation suite

TEST(CanonicalMutation, EveryFieldFlipsTheKey) {
  expect_every_field_keyed<uwb::ClockConfig>(
      "ClockConfig", [](const uwb::ClockConfig& c) { return canon::to_json(c); });
  expect_every_field_keyed<uwb::SystemConfig>(
      "SystemConfig",
      [](const uwb::SystemConfig& c) { return canon::to_json(c); });
  expect_every_field_keyed<uwb::InterferenceConfig>(
      "InterferenceConfig",
      [](const uwb::InterferenceConfig& c) { return canon::to_json(c); });
  expect_every_field_keyed<spice::ModelVariation>(
      "ModelVariation",
      [](const spice::ModelVariation& c) { return canon::to_json(c); });
  expect_every_field_keyed<spice::ItdSizing>(
      "ItdSizing", [](const spice::ItdSizing& c) { return canon::to_json(c); });
  expect_every_field_keyed<spice::AdaptiveOptions>(
      "AdaptiveOptions",
      [](const spice::AdaptiveOptions& c) { return canon::to_json(c); });
  expect_every_field_keyed<spice::OpOptions>(
      "OpOptions", [](const spice::OpOptions& c) { return canon::to_json(c); });
  expect_every_field_keyed<spice::TransientOptions>(
      "TransientOptions",
      [](const spice::TransientOptions& c) { return canon::to_json(c); });
  expect_every_field_keyed<core::CharacterizeOptions>(
      "CharacterizeOptions",
      [](const core::CharacterizeOptions& c) { return canon::to_json(c); });
  expect_every_field_keyed<uwb::TwrConfig>(
      "TwrConfig", [](const uwb::TwrConfig& c) { return canon::to_json(c); });
}

TEST(CanonicalMutation, EveryFieldRoundTrips) {
  expect_every_field_round_trips<uwb::SystemConfig>(
      "SystemConfig",
      [](const uwb::SystemConfig& c) { return canon::to_json(c); },
      [](const base::JsonValue& d, uwb::SystemConfig* out) {
        canon::from_json(d, out);
      });
  expect_every_field_round_trips<uwb::InterferenceConfig>(
      "InterferenceConfig",
      [](const uwb::InterferenceConfig& c) { return canon::to_json(c); },
      [](const base::JsonValue& d, uwb::InterferenceConfig* out) {
        canon::from_json(d, out);
      });
  expect_every_field_round_trips<spice::TransientOptions>(
      "TransientOptions",
      [](const spice::TransientOptions& c) { return canon::to_json(c); },
      [](const base::JsonValue& d, spice::TransientOptions* out) {
        canon::from_json(d, out);
      });
  expect_every_field_round_trips<core::CharacterizeOptions>(
      "CharacterizeOptions",
      [](const core::CharacterizeOptions& c) { return canon::to_json(c); },
      [](const base::JsonValue& d, core::CharacterizeOptions* out) {
        canon::from_json(d, out);
      });
  expect_every_field_round_trips<uwb::TwrConfig>(
      "TwrConfig", [](const uwb::TwrConfig& c) { return canon::to_json(c); },
      [](const base::JsonValue& d, uwb::TwrConfig* out) {
        canon::from_json(d, out);
      });
}

TEST(CanonicalMutation, NestedStructsFlipTheParentKey) {
  // Nested sub-objects are serialized by the parent's to_json even though
  // the parent's visitor does not walk them; prove they reach the key.
  uwb::SystemConfig sys;
  const std::uint64_t base_key = canon::key_of(canon::to_json(sys));
  sys.clock.ppm += 1.5;
  EXPECT_NE(canon::key_of(canon::to_json(sys)), base_key);

  uwb::SystemConfig jammed;
  jammed.interference.cw_amplitude = 1e-3;
  EXPECT_NE(canon::key_of(canon::to_json(jammed)), base_key);

  uwb::TwrConfig twr;
  const std::uint64_t twr_key = canon::key_of(canon::to_json(twr));
  twr.clock_b.node_id += 1;
  EXPECT_NE(canon::key_of(canon::to_json(twr)), twr_key);

  spice::ItdSizing sizing;
  const std::uint64_t sz_key = canon::key_of(canon::to_json(sizing));
  sizing.variation.mismatch_seed += 1;
  EXPECT_NE(canon::key_of(canon::to_json(sizing)), sz_key);

  core::CharacterizeOptions ch;
  const std::uint64_t ch_key = canon::key_of(canon::to_json(ch));
  ch.transient.op.max_iterations += 1;
  EXPECT_NE(canon::key_of(canon::to_json(ch)), ch_key);
}

// ------------------------------------------------------------- strictness

TEST(CanonicalStrictness, RejectsUnknownMissingAndMalformed) {
  const base::JsonValue doc = canon::to_json(uwb::ClockConfig{});
  uwb::ClockConfig out;

  base::JsonObject extra = doc.as_object();
  extra["typo_knob"] = base::JsonValue(1.0);
  EXPECT_THROW(canon::from_json(base::JsonValue(extra), &out),
               base::JsonError);

  base::JsonObject missing = doc.as_object();
  missing.erase("ppm");
  EXPECT_THROW(canon::from_json(base::JsonValue(missing), &out),
               base::JsonError);

  base::JsonObject bad_hex = doc.as_object();
  bad_hex["node_id"] = base::JsonValue(std::string("17"));  // no 0x prefix
  EXPECT_THROW(canon::from_json(base::JsonValue(bad_hex), &out),
               base::JsonError);

  base::JsonValue sys_doc = canon::to_json(uwb::SystemConfig{});
  base::JsonObject frac = sys_doc.as_object();
  frac["adc_bits"] = base::JsonValue(3.5);  // int field, non-integral
  uwb::SystemConfig sys_out;
  EXPECT_THROW(canon::from_json(base::JsonValue(frac), &sys_out),
               base::JsonError);
}

TEST(CanonicalStrictness, WorkspaceBearingOptionsRefuseToHash) {
  core::CharacterizeOptions opts;
  linalg::LuFactor<std::complex<double>> ws;
  opts.ac_workspace = &ws;
  EXPECT_THROW(canon::to_json(opts), std::invalid_argument);
}

// ------------------------------------------------------- request identity

TEST(RequestIdentity, WireFormVariationsShareAKey) {
  const std::string canonical_line =
      "{\"schema\":\"uwbams-serve-v1\",\"op\":\"run\",\"scenario\":"
      "\"fig6_ber\",\"scale\":\"fast\",\"seed\":7}";
  const std::string reordered =
      "  { \"seed\": 7 ,  \"scale\": \"fast\",\n"
      "    \"scenario\": \"fig6_ber\", \"op\": \"run\",\n"
      "    \"schema\": \"uwbams-serve-v1\" }  ";
  const std::string hex_seed =
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"fig6_ber\","
      "\"scale\":\"fast\",\"seed\":\"0x0000000000000007\"}";
  const auto a = serve::Request::parse(canonical_line);
  const auto b = serve::Request::parse(reordered);
  const auto c = serve::Request::parse(hex_seed);  // op defaults to run
  EXPECT_EQ(a.content_key(), b.content_key());
  EXPECT_EQ(a.content_key(), c.content_key());
  EXPECT_EQ(a.to_line(), b.to_line());
  EXPECT_EQ(a.to_line(), c.to_line());
}

TEST(RequestIdentity, EveryRequestKnobFlipsTheKey) {
  serve::Request base;
  base.scenario = "fig6_ber";
  const std::uint64_t key = base.content_key();

  serve::Request r = base;
  r.scenario = "mc_itd";
  EXPECT_NE(r.content_key(), key);

  r = base;
  r.scale = runner::Scale::kFull;
  EXPECT_NE(r.content_key(), key);

  r = base;
  r.tier = core::ExactnessTier::kStatEquiv;
  EXPECT_NE(r.content_key(), key);

  r = base;
  r.seed = 2;
  EXPECT_NE(r.content_key(), key);
}

// -------------------------------------------------------- spec round trips

TEST(SpecRoundTrip, EveryRegisteredScenarioSpecRoundTripsExactly) {
  const auto scenarios = runner::ScenarioRegistry::instance().list();
  ASSERT_FALSE(scenarios.empty());
  for (const runner::Scenario* s : scenarios) {
    for (const runner::Scale scale :
         {runner::Scale::kFast, runner::Scale::kDefault}) {
      const runner::ScenarioSpec spec(s->info.name, scale, 12345,
                                      core::ExactnessTier::kBitExact);
      const runner::ScenarioSpec back =
          runner::spec_from_json(runner::spec_to_json(spec));
      EXPECT_TRUE(back == spec) << s->info.name;
      EXPECT_EQ(runner::spec_content_key(back),
                runner::spec_content_key(spec))
          << s->info.name;
    }
  }
}

TEST(SpecRoundTrip, RichSpecRoundTripsExactly) {
  runner::ScenarioSpec spec("fig6_ber", runner::Scale::kFull, 99,
                            core::ExactnessTier::kStatEquiv);
  spec.dt(0.1e-9)
      .distance(7.25)
      .multipath(true)
      .integrator(core::IntegratorKind::kBehavioral)
      .duration(42e-6)
      .ebn0(13.5)
      .axis("ebn0_db", {0.0, 4.0, 8.0})
      .axis("distance", {1.0, 3.0})
      .repetitions(5);
  spec.system().clock.ppm = 17.0;
  const runner::ScenarioSpec back =
      runner::spec_from_json(runner::spec_to_json(spec));
  EXPECT_TRUE(back == spec);
  // Axis declaration order is part of the identity (row-major expansion).
  runner::ScenarioSpec swapped("fig6_ber", runner::Scale::kFull, 99,
                               core::ExactnessTier::kStatEquiv);
  swapped.dt(0.1e-9)
      .distance(7.25)
      .multipath(true)
      .integrator(core::IntegratorKind::kBehavioral)
      .duration(42e-6)
      .ebn0(13.5)
      .axis("distance", {1.0, 3.0})
      .axis("ebn0_db", {0.0, 4.0, 8.0})
      .repetitions(5);
  swapped.system().clock.ppm = 17.0;
  EXPECT_NE(runner::spec_content_key(spec),
            runner::spec_content_key(swapped));
}

TEST(SpecRoundTrip, StrictParseRejectsDrift) {
  const runner::ScenarioSpec spec("fig6_ber");
  base::JsonObject doc =
      runner::spec_to_json_value(spec).as_object();
  doc["surprise"] = base::JsonValue(1.0);
  EXPECT_THROW(runner::spec_from_json(base::JsonValue(doc)),
               base::JsonError);

  base::JsonObject wrong = runner::spec_to_json_value(spec).as_object();
  wrong["schema"] = base::JsonValue(std::string("uwbams-spec-v0"));
  EXPECT_THROW(runner::spec_from_json(base::JsonValue(wrong)),
               base::JsonError);
}

// -------------------------------------------------- pinned reference keys
//
// Like test_faults pins fnv1a64(""): these fail iff the canonical rendering
// itself changes — a renamed field, a changed enum spelling, a kCodeVersion
// bump — all of which invalidate every existing cache entry and must be a
// conscious decision, not a side effect.

TEST(ReferenceVectors, PinnedContentKeys) {
  EXPECT_EQ(base::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(canon::key_of(base::JsonValue(base::JsonObject{})),
            base::fnv1a64("{}"));
  EXPECT_EQ(base::hex_u64(canon::key_of(canon::to_json(uwb::ClockConfig{}))),
            "0x22d580087fdd066f");
  EXPECT_EQ(base::hex_u64(canon::key_of(canon::to_json(uwb::SystemConfig{}))),
            "0x34e5dc2a9cbe93c1");
  EXPECT_EQ(
      base::hex_u64(canon::key_of(canon::to_json(spice::TransientOptions{}))),
      "0x0d5028f3f4d65aa7");
  EXPECT_EQ(base::hex_u64(
                runner::spec_content_key(runner::ScenarioSpec("pinned"))),
            "0x8200392562a065e3");
  serve::Request req;
  req.scenario = "pinned";
  EXPECT_EQ(base::hex_u64(req.content_key()), "0xe63c206e5b8eddb1");
}

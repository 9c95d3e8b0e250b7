#include "core/memo.hpp"

#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "base/json.hpp"
#include "core/canonical.hpp"
#include "serve/cache.hpp"

namespace uwbams::core::memo {

namespace {

using base::JsonArray;
using base::JsonObject;
using base::JsonValue;

constexpr const char* kResultSchema = "uwbams-characterize-result-v1";
constexpr const char* kChannelSchema = "uwbams-channel-draws-v1";

struct MemoState {
  std::mutex mu;
  std::map<std::uint64_t, ItdCharacterization> mem;
  std::map<std::uint64_t, std::vector<uwb::ChannelRealization>> channel_mem;
  std::unique_ptr<serve::ResultCache> disk;  // null without UWBAMS_CACHE
  Stats stats;

  MemoState() {
    if (const char* dir = std::getenv("UWBAMS_CACHE"))
      if (dir[0] != '\0')
        disk = std::make_unique<serve::ResultCache>(dir);
  }
};

MemoState& state() {
  static MemoState s;
  return s;
}

}  // namespace

std::uint64_t characterize_content_key(const spice::ItdSizing& sizing,
                                       const CharacterizeOptions& options) {
  JsonObject obj;
  obj["code_version"] = JsonValue(std::string(canonical::kCodeVersion));
  obj["kind"] = JsonValue(std::string("uwbams-characterize/1"));
  obj["options"] = canonical::to_json(options);
  obj["sizing"] = canonical::to_json(sizing);
  return canonical::key_of(JsonValue(std::move(obj)));
}

std::string characterization_to_json(const ItdCharacterization& ch) {
  JsonObject ac;
  ac["dc_gain_db"] = JsonValue(ch.ac.dc_gain_db);
  ac["f_pole1"] = JsonValue(ch.ac.f_pole1);
  ac["f_pole2"] = JsonValue(ch.ac.f_pole2);
  ac["rms_error_db"] = JsonValue(ch.ac.rms_error_db);
  JsonArray sweep;
  sweep.reserve(ch.sweep.points.size());
  for (const spice::AcPoint& p : ch.sweep.points) {
    JsonArray triple;
    triple.emplace_back(p.freq);
    triple.emplace_back(p.value.real());
    triple.emplace_back(p.value.imag());
    sweep.emplace_back(std::move(triple));
  }
  JsonObject obj;
  obj["schema"] = JsonValue(std::string(kResultSchema));
  obj["ac"] = JsonValue(std::move(ac));
  obj["unity_gain_freq"] = JsonValue(ch.unity_gain_freq);
  obj["input_linear_range"] = JsonValue(ch.input_linear_range);
  obj["slew_rate"] = JsonValue(ch.slew_rate);
  obj["sweep"] = JsonValue(std::move(sweep));
  return JsonValue(std::move(obj)).dump(0);
}

ItdCharacterization characterization_from_json(const std::string& text) {
  const JsonValue doc = base::parse_json(text);
  const JsonObject& obj = doc.as_object();
  if (obj.at("schema").as_string() != kResultSchema)
    throw base::JsonError("memo: unexpected characterization schema '" +
                          obj.at("schema").as_string() + "'");
  ItdCharacterization ch;
  const JsonObject& ac = obj.at("ac").as_object();
  ch.ac.dc_gain_db = ac.at("dc_gain_db").as_number();
  ch.ac.f_pole1 = ac.at("f_pole1").as_number();
  ch.ac.f_pole2 = ac.at("f_pole2").as_number();
  ch.ac.rms_error_db = ac.at("rms_error_db").as_number();
  ch.unity_gain_freq = obj.at("unity_gain_freq").as_number();
  ch.input_linear_range = obj.at("input_linear_range").as_number();
  ch.slew_rate = obj.at("slew_rate").as_number();
  for (const JsonValue& row : obj.at("sweep").as_array()) {
    const JsonArray& triple = row.as_array();
    if (triple.size() != 3)
      throw base::JsonError("memo: sweep row is not a [f, re, im] triple");
    spice::AcPoint p;
    p.freq = triple[0].as_number();
    p.value = {triple[1].as_number(), triple[2].as_number()};
    ch.sweep.points.push_back(p);
  }
  return ch;
}

ItdCharacterization characterize_itd_cached(
    const spice::ItdSizing& sizing, const CharacterizeOptions& options) {
  if (options.ac_workspace != nullptr)
    return characterize_itd(sizing, options);
  const std::uint64_t key = characterize_content_key(sizing, options);
  MemoState& s = state();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.mem.find(key);
    if (it != s.mem.end()) {
      ++s.stats.mem_hits;
      return it->second;
    }
    if (s.disk != nullptr) {
      std::string text;
      if (s.disk->get(key, &text)) {
        ItdCharacterization ch = characterization_from_json(text);
        s.mem.emplace(key, ch);
        ++s.stats.disk_hits;
        return ch;
      }
    }
    ++s.stats.misses;
  }
  // Compute outside the lock: a characterization takes seconds and other
  // threads may be memoizing different keys.
  ItdCharacterization ch = characterize_itd(sizing, options);
  std::lock_guard<std::mutex> lock(s.mu);
  s.mem.emplace(key, ch);
  if (s.disk != nullptr) s.disk->put(key, characterization_to_json(ch));
  return ch;
}

std::uint64_t channel_draws_content_key(
    uwb::ChannelClass cls, const uwb::SalehValenzuelaParams& p,
    std::uint64_t seed, int count) {
  JsonObject params;
  params["cluster_rate"] = JsonValue(p.cluster_rate);
  params["ray_rate1"] = JsonValue(p.ray_rate1);
  params["ray_rate2"] = JsonValue(p.ray_rate2);
  params["ray_mix_beta"] = JsonValue(p.ray_mix_beta);
  params["cluster_decay"] = JsonValue(p.cluster_decay);
  params["ray_decay"] = JsonValue(p.ray_decay);
  params["mean_clusters"] = JsonValue(p.mean_clusters);
  params["nakagami_m_median"] = JsonValue(p.nakagami_m_median);
  params["nakagami_m_sigma"] = JsonValue(p.nakagami_m_sigma);
  params["nakagami_m_first"] = JsonValue(p.nakagami_m_first);
  params["los"] = JsonValue(p.los);
  params["max_excess_delay"] = JsonValue(p.max_excess_delay);
  params["max_taps"] = JsonValue(p.max_taps);
  JsonObject obj;
  obj["code_version"] = JsonValue(std::string(canonical::kCodeVersion));
  obj["kind"] = JsonValue(std::string("uwbams-channel/1"));
  obj["class"] = JsonValue(std::string(uwb::to_string(cls)));
  obj["params"] = JsonValue(std::move(params));
  obj["seed"] = JsonValue(base::hex_u64(seed));
  obj["count"] = JsonValue(count);
  return canonical::key_of(JsonValue(std::move(obj)));
}

std::string channel_draws_to_json(
    const std::vector<uwb::ChannelRealization>& draws) {
  JsonArray arr;
  arr.reserve(draws.size());
  for (const uwb::ChannelRealization& cr : draws) {
    JsonArray taps;
    taps.reserve(cr.taps.size());
    for (const uwb::ChannelTap& tap : cr.taps) {
      JsonArray pair;
      pair.emplace_back(tap.delay);
      pair.emplace_back(tap.gain);
      taps.emplace_back(std::move(pair));
    }
    arr.emplace_back(std::move(taps));
  }
  JsonObject obj;
  obj["schema"] = JsonValue(std::string(kChannelSchema));
  obj["draws"] = JsonValue(std::move(arr));
  return JsonValue(std::move(obj)).dump(0);
}

std::vector<uwb::ChannelRealization> channel_draws_from_json(
    const std::string& text) {
  const JsonValue doc = base::parse_json(text);
  const JsonObject& obj = doc.as_object();
  if (obj.at("schema").as_string() != kChannelSchema)
    throw base::JsonError("memo: unexpected channel-draws schema '" +
                          obj.at("schema").as_string() + "'");
  std::vector<uwb::ChannelRealization> draws;
  for (const JsonValue& row : obj.at("draws").as_array()) {
    uwb::ChannelRealization cr;
    for (const JsonValue& tap : row.as_array()) {
      const JsonArray& pair = tap.as_array();
      if (pair.size() != 2)
        throw base::JsonError("memo: channel tap is not a [delay, gain] pair");
      cr.taps.push_back({pair[0].as_number(), pair[1].as_number()});
    }
    draws.push_back(std::move(cr));
  }
  return draws;
}

std::vector<uwb::ChannelRealization> channel_draws_cached(
    uwb::ChannelClass cls, const uwb::SalehValenzuelaParams& params,
    std::uint64_t seed, int count) {
  const std::uint64_t key = channel_draws_content_key(cls, params, seed, count);
  MemoState& s = state();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.channel_mem.find(key);
    if (it != s.channel_mem.end()) {
      ++s.stats.channel_mem_hits;
      return it->second;
    }
    if (s.disk != nullptr) {
      std::string text;
      if (s.disk->get(key, &text)) {
        std::vector<uwb::ChannelRealization> draws =
            channel_draws_from_json(text);
        s.channel_mem.emplace(key, draws);
        ++s.stats.channel_disk_hits;
        return draws;
      }
    }
    ++s.stats.channel_misses;
  }
  std::vector<uwb::ChannelRealization> draws =
      uwb::draw_realizations_uncached(cls, params, seed, count);
  std::lock_guard<std::mutex> lock(s.mu);
  s.channel_mem.emplace(key, draws);
  if (s.disk != nullptr) s.disk->put(key, channel_draws_to_json(draws));
  return draws;
}

namespace {
// Linking core wires the memo into uwb::draw_realizations: a plain
// function-pointer store into zero-initialized state, safe at static-init
// time from any TU ordering. The constructor attribute (not a dynamic
// initializer of an unused static) keeps the hook a live root under LTO,
// which is entitled to drop an initializer whose variable is never read.
__attribute__((constructor)) void install_channel_provider() {
  uwb::set_channel_draw_provider(&channel_draws_cached);
}
}  // namespace

Stats stats() {
  MemoState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.stats;
}

void reset_for_tests() {
  MemoState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.mem.clear();
  s.channel_mem.clear();
  s.stats = Stats{};
}

}  // namespace uwbams::core::memo

/// @file canonical.hpp
/// @brief Canonical, schema-versioned serialization of every result-affecting
/// configuration struct, plus the content keys derived from it.
///
/// One run identity, shared by every caching layer: the checkpoint store
/// (PR 8), the Monte-Carlo shard manifest, the surrogate cache and the
/// `uwbams_serve` result cache all key their entries off the FNV-1a hash of
/// a *canonical* JSON document — sorted keys, %.17g numbers, 64-bit values
/// as "0x%016llx" strings (JSON numbers are doubles; a seed above 2^53
/// would silently lose bits). base::JsonValue's object model is a std::map
/// and its dump() renders %.17g, so parse -> dump is byte-stable and two
/// documents that differ only in key order or whitespace hash identically.
///
/// The single source of truth per struct is its `visit_fields` template:
/// serialization (to_json), strict deserialization (from_json: unknown or
/// missing keys are errors), and the mutation test-suite
/// (tests/test_serve_identity.cpp) all walk the same field list, so a knob
/// added to the visitor is automatically hashed, round-tripped and
/// mutation-tested — and a knob added to the struct but *not* the visitor
/// trips the sizeof/field-count pins in the test suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/checkpoint.hpp"
#include "base/json.hpp"
#include "core/block_variant.hpp"
#include "core/characterize.hpp"
#include "spice/itd_builder.hpp"
#include "spice/transient.hpp"
#include "uwb/config.hpp"
#include "uwb/ranging.hpp"

namespace uwbams::core::canonical {

/// Code-generation identity folded into every content key. Bump this when
/// a code change alters results for an unchanged configuration (an engine
/// fix, a new noise term, a reordered seed derivation): every cached
/// result, surrogate table and serve-cache entry is invalidated at once,
/// instead of stale artifacts surviving a behavior change silently.
inline constexpr const char* kCodeVersion = "uwbams-code/9";

// ---------------------------------------------------------------- visitors
//
// `v(name, field)` is called once per *direct scalar* field, in declaration
// order. Visitors must accept double&, int&, bool&, std::uint64_t&,
// std::vector<double>&, spice::Integrator&, spice::Corner& and
// uwb::ChannelClass& (a generic lambda with `if constexpr` works). Nested
// structs (SystemConfig::clock/interference, TransientOptions::adaptive/op,
// ...) are *not* visited here — to_json emits them as sub-objects and the
// tests iterate each struct separately.

template <typename V>
void visit_fields(uwb::ClockConfig& c, V&& v) {
  v("ppm", c.ppm);
  v("drift_ppm_per_s", c.drift_ppm_per_s);
  v("jitter_rms", c.jitter_rms);
  v("offset", c.offset);
  v("node_id", c.node_id);
}

template <typename V>
void visit_fields(uwb::SystemConfig& c, V&& v) {
  v("dt", c.dt);
  v("symbol_period", c.symbol_period);
  v("integration_window", c.integration_window);
  v("reset_width", c.reset_width);
  v("pulse_sigma", c.pulse_sigma);
  v("pulse_amplitude", c.pulse_amplitude);
  v("pulses_per_symbol", c.pulses_per_symbol);
  v("pulse_spacing", c.pulse_spacing);
  v("lna_bandwidth", c.lna_bandwidth);
  v("vga_bandwidth", c.vga_bandwidth);
  v("preamble_symbols", c.preamble_symbols);
  v("payload_bits", c.payload_bits);
  v("lna_gain_db", c.lna_gain_db);
  v("lna_sat", c.lna_sat);
  v("vga_min_db", c.vga_min_db);
  v("vga_max_db", c.vga_max_db);
  v("vga_dac_bits", c.vga_dac_bits);
  v("vga_sat", c.vga_sat);
  v("squarer_gain", c.squarer_gain);
  v("integrator_k", c.integrator_k);
  v("integrator_gain_db", c.integrator_gain_db);
  v("integrator_f1", c.integrator_f1);
  v("integrator_f2", c.integrator_f2);
  v("integrator_clamp", c.integrator_clamp);
  v("adc_bits", c.adc_bits);
  v("adc_vmin", c.adc_vmin);
  v("adc_vmax", c.adc_vmax);
  v("noise_est_windows", c.noise_est_windows);
  v("sense_factor", c.sense_factor);
  v("agc_settle_symbols", c.agc_settle_symbols);
  v("sync_symbols", c.sync_symbols);
  v("fine_step", c.fine_step);
  v("fine_window", c.fine_window);
  v("toa_edge_correction", c.toa_edge_correction);
  v("leading_edge_fraction", c.leading_edge_fraction);
  v("two_stage_agc", c.two_stage_agc);
  v("distance", c.distance);
  v("path_loss_exponent", c.path_loss_exponent);
  v("path_loss_db_1m", c.path_loss_db_1m);
  v("multipath", c.multipath);
  v("noise_psd", c.noise_psd);
  v("channel_class", c.channel_class);
  v("seed", c.seed);
}

template <typename V>
void visit_fields(uwb::InterferenceConfig& c, V&& v) {
  v("cw_amplitude", c.cw_amplitude);
  v("cw_freq", c.cw_freq);
  v("cw_phase", c.cw_phase);
  v("uwb_count", c.uwb_count);
  v("uwb_amplitude", c.uwb_amplitude);
  v("uwb_symbol_period", c.uwb_symbol_period);
}

template <typename V>
void visit_fields(spice::ModelVariation& c, V&& v) {
  v("corner", c.corner);
  v("temp_c", c.temp_c);
  v("sigma_scale", c.sigma_scale);
  v("mismatch_seed", c.mismatch_seed);
  v("corner_dvt", c.corner_dvt);
  v("corner_dkp", c.corner_dkp);
  v("pelgrom_avt", c.pelgrom_avt);
  v("pelgrom_akp", c.pelgrom_akp);
}

template <typename V>
void visit_fields(spice::ItdSizing& c, V&& v) {
  v("vdd", c.vdd);
  v("c_int", c.c_int);
  v("r_deg", c.r_deg);
  v("r_bias", c.r_bias);
  v("r_sense", c.r_sense);
  v("r_cm_anchor", c.r_cm_anchor);
  v("r_tail", c.r_tail);
  v("c_cmfb", c.c_cmfb);
  v("w_in", c.w_in);
  v("l_in", c.l_in);
  v("w_sink", c.w_sink);
  v("l_sink", c.l_sink);
  v("w_pdiode", c.w_pdiode);
  v("l_pdiode", c.l_pdiode);
  v("w_pmir2", c.w_pmir2);
  v("w_pmir1", c.w_pmir1);
  v("w_ndiode", c.w_ndiode);
  v("l_ndiode", c.l_ndiode);
  v("w_nmir", c.w_nmir);
  v("w_cm_pair", c.w_cm_pair);
  v("l_cm_pair", c.l_cm_pair);
  v("w_cm_diode", c.w_cm_diode);
  v("l_cm_diode", c.l_cm_diode);
  v("w_cm_sink", c.w_cm_sink);
  v("l_cm_sink", c.l_cm_sink);
  v("w_ref_p", c.w_ref_p);
  v("l_ref_p", c.l_ref_p);
  v("w_ref_n", c.w_ref_n);
  v("l_ref_n", c.l_ref_n);
  v("w_tg_n", c.w_tg_n);
  v("w_tg_p", c.w_tg_p);
  v("l_tg", c.l_tg);
  v("w_rst", c.w_rst);
  v("l_rst", c.l_rst);
  v("w_inv_n", c.w_inv_n);
  v("w_inv_p", c.w_inv_p);
  v("l_inv", c.l_inv);
}

template <typename V>
void visit_fields(spice::AdaptiveOptions& c, V&& v) {
  v("enabled", c.enabled);
  v("lte_abstol", c.lte_abstol);
  v("lte_reltol", c.lte_reltol);
  v("dt_min", c.dt_min);
  v("dt_max", c.dt_max);
  v("grow_limit", c.grow_limit);
  v("shrink", c.shrink);
  v("safety", c.safety);
}

template <typename V>
void visit_fields(spice::OpOptions& c, V&& v) {
  v("max_iterations", c.max_iterations);
  v("vabstol", c.vabstol);
  v("reltol", c.reltol);
  v("gmin", c.gmin);
  v("damping", c.damping);
  v("initial_guess", c.initial_guess);
}

template <typename V>
void visit_fields(spice::TransientOptions& c, V&& v) {
  v("dt", c.dt);
  v("method", c.method);
  v("max_newton", c.max_newton);
  v("vabstol", c.vabstol);
  v("reltol", c.reltol);
  v("gmin", c.gmin);
  v("reuse_factorization", c.reuse_factorization);
  v("lazy_jacobian", c.lazy_jacobian);
  v("jacobian_refresh_every", c.jacobian_refresh_every);
  v("chord_tol_scale", c.chord_tol_scale);
  v("iabstol", c.iabstol);
  v("cosim_decimation", c.cosim_decimation);
  v("packed_solve", c.packed_solve);
  v("fused_commit", c.fused_commit);
}

template <typename V>
void visit_fields(CharacterizeOptions& c, V&& v) {
  v("f_start", c.f_start);
  v("f_stop", c.f_stop);
  v("points_per_decade", c.points_per_decade);
  v("dt", c.dt);
  v("measure_linear_range", c.measure_linear_range);
  v("measure_slew", c.measure_slew);
  v("reuse_ac_factorization", c.reuse_ac_factorization);
}

template <typename V>
void visit_fields(uwb::TwrConfig& c, V&& v) {
  v("processing_time", c.processing_time);
  v("iterations", c.iterations);
  v("noise_psd", c.noise_psd);
  v("fresh_channel_per_iteration", c.fresh_channel_per_iteration);
  v("compensate_ppm", c.compensate_ppm);
}

// -------------------------------------------------------------- enum names

/// "trapezoidal" / "backward_euler".
std::string integrator_method_name(spice::Integrator method);
bool parse_integrator_method(const std::string& text, spice::Integrator* out);

/// "TT" / "FF" / "SS" / "FS" / "SF" (spice::to_string).
bool parse_corner(const std::string& text, spice::Corner* out);

/// "ideal" / "spice" / "behavioral" (core::to_string(IntegratorKind)).
bool parse_integrator_kind(const std::string& text, IntegratorKind* out);

/// "cm1".."cm4" — forwarded to uwb::parse_channel_class (exact match).
bool parse_channel_class(const std::string& text, uwb::ChannelClass* out);

// -------------------------------------------------------- JSON round trips
//
// to_json produces the canonical document (sorted keys via JsonObject,
// %.17g numbers, u64 as hex strings). from_json is strict: a missing or
// unknown key, a non-integral value for an int field, or a malformed hex
// string throws base::JsonError — a schema drift must fail loudly, never
// mis-key a cache.

base::JsonValue to_json(const uwb::ClockConfig& c);
void from_json(const base::JsonValue& doc, uwb::ClockConfig* out);

base::JsonValue to_json(const uwb::InterferenceConfig& c);
void from_json(const base::JsonValue& doc, uwb::InterferenceConfig* out);

base::JsonValue to_json(const uwb::SystemConfig& c);
void from_json(const base::JsonValue& doc, uwb::SystemConfig* out);

base::JsonValue to_json(const spice::ModelVariation& c);
void from_json(const base::JsonValue& doc, spice::ModelVariation* out);

base::JsonValue to_json(const spice::ItdSizing& c);
void from_json(const base::JsonValue& doc, spice::ItdSizing* out);

base::JsonValue to_json(const spice::AdaptiveOptions& c);
void from_json(const base::JsonValue& doc, spice::AdaptiveOptions* out);

base::JsonValue to_json(const spice::OpOptions& c);
void from_json(const base::JsonValue& doc, spice::OpOptions* out);

base::JsonValue to_json(const spice::TransientOptions& c);
void from_json(const base::JsonValue& doc, spice::TransientOptions* out);

/// @throws std::invalid_argument when `c.ac_workspace` is set: a borrowed
/// workspace is per-task solver state, not a result-affecting knob, and a
/// document hashed while one is installed would mis-key the memo layer.
base::JsonValue to_json(const CharacterizeOptions& c);
void from_json(const base::JsonValue& doc, CharacterizeOptions* out);

base::JsonValue to_json(const uwb::TwrConfig& c);
void from_json(const base::JsonValue& doc, uwb::TwrConfig* out);

/// Content key of a canonical document: FNV-1a over the compact dump.
/// Two documents equal up to key order / whitespace share a key.
std::uint64_t key_of(const base::JsonValue& doc);

}  // namespace uwbams::core::canonical

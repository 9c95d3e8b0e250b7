#include "core/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <memory>
#include <string>

#include "base/checkpoint.hpp"
#include "base/faults.hpp"
#include "base/random.hpp"
#include "core/block_variant.hpp"
#include "core/canonical.hpp"
#include "uwb/ber.hpp"

namespace uwbams::core {

namespace {

// %.17g round-trips doubles exactly — the per-trial CSV is byte-compared
// across --jobs counts by CI, so formatting is part of the contract.
std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

namespace {

// A criterion whose measurement is disabled in the config must not read
// the unmeasured 0.0 as a failure — and the relaxation must be visible in
// the reported criteria, so the yield.json "criteria" block never claims
// a threshold that was not actually applied.
YieldCriteria effective_criteria(const McConfig& config,
                                 const YieldCriteria& criteria) {
  YieldCriteria judged = criteria;
  if (!config.characterize.measure_linear_range) judged.min_input_range = 0.0;
  if (!config.characterize.measure_slew) judged.min_slew_rate = 0.0;
  return judged;
}

// The PVT condition of one trial, from its seed alone (sub-stream 1 of the
// trial seed). Shared between the real trial path and the quarantine
// placeholder path so a quarantined row still reports its true corner.
PvtCorner trial_corner(const McConfig& config, std::uint64_t trial_seed) {
  if (!config.sample_corners) return config.corner;
  base::Rng pick(base::derive_seed(trial_seed, 1));
  const auto corners = standard_corners(config.corner.vdd);
  return corners[static_cast<std::size_t>(
      pick.uniform_int(0, static_cast<int>(corners.size()) - 1))];
}

}  // namespace

std::string PvtCorner::label() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s @ %.2f V / %g C",
                spice::to_string(process), vdd, temp_c);
  return buf;
}

std::vector<PvtCorner> standard_corners(double vdd_nom, double supply_tol,
                                        double temp_lo, double temp_hi) {
  // Fast silicon is fastest cold and overvolted, slow silicon slowest hot
  // and undervolted; the skewed corners sign off at nominal environment.
  return {
      {spice::Corner::kTT, vdd_nom, 27.0},
      {spice::Corner::kFF, vdd_nom * (1.0 + supply_tol), temp_lo},
      {spice::Corner::kSS, vdd_nom * (1.0 - supply_tol), temp_hi},
      {spice::Corner::kFS, vdd_nom, 27.0},
      {spice::Corner::kSF, vdd_nom, 27.0},
  };
}

YieldCriteria YieldCriteria::from_constraints(
    const DesignConstraints& constraints, const ItdCharacterization& nominal) {
  YieldCriteria c;
  // §4: the linear input range must cover the p99 squared-signal peak and
  // the output must slew with the worst-case energy ramp.
  c.min_input_range = constraints.squared_peak_p99;
  c.min_slew_rate = constraints.slew_rate_p99;
  // Bandwidth closure: the paper's energy detector needs the cell to keep
  // integrator-like (-20 dB/dec) behavior across the burst bandwidth; half
  // the nominal unity-gain frequency is the floor below which the Fig. 4
  // band visibly collapses.
  c.min_unity_gain_hz = 0.5 * nominal.unity_gain_freq;
  // Gain anchor: the AGC calibrates the chain against the nominal DC gain;
  // a +-3 dB excursion is one VGA DAC step band (config's 6-bit / 40 dB).
  c.nominal_gain_db = nominal.ac.dc_gain_db;
  c.gain_tol_db = 3.0;
  return c;
}

void judge_trial(McTrial* trial, const YieldCriteria& criteria) {
  trial->violations = 0;
  if (!trial->converged) {
    trial->violations |= kViolNoConverge;
  } else {
    if (trial->input_linear_range < criteria.min_input_range)
      trial->violations |= kViolInputRange;
    if (trial->slew_rate < criteria.min_slew_rate)
      trial->violations |= kViolSlewRate;
    if (trial->unity_gain_freq < criteria.min_unity_gain_hz)
      trial->violations |= kViolBandwidth;
    if (std::abs(trial->dc_gain_db - criteria.nominal_gain_db) >
        criteria.gain_tol_db)
      trial->violations |= kViolGain;
  }
  trial->pass = trial->violations == 0;
}

McTrial run_mc_trial(const McConfig& config, int index,
                     const YieldCriteria& criteria) {
  McTrial trial;
  trial.index = index;
  trial.seed = base::derive_seed(config.seed, static_cast<std::uint64_t>(index));

  // Fixed sub-stream layout off the trial seed (never off execution
  // order): 1 = corner draw, 2 = mismatch cards, 3 = BER link noise.
  trial.corner = trial_corner(config, trial.seed);

  spice::ItdSizing sizing = config.sizing;
  sizing.vdd = trial.corner.vdd;
  sizing.variation.corner = trial.corner.process;
  sizing.variation.temp_c = trial.corner.temp_c;
  sizing.variation.sigma_scale = config.sigma_scale;
  sizing.variation.mismatch_seed = base::derive_seed(trial.seed, 2);

  try {
    const ItdCharacterization ch =
        characterize_itd(sizing, config.characterize);
    trial.converged = true;
    trial.dc_gain_db = ch.ac.dc_gain_db;
    trial.f_pole1 = ch.ac.f_pole1;
    trial.f_pole2 = ch.ac.f_pole2;
    trial.unity_gain_freq = ch.unity_gain_freq;
    trial.input_linear_range = ch.input_linear_range;
    trial.slew_rate = ch.slew_rate;
    trial.fit_rms_error_db = ch.ac.rms_error_db;
    // The clamp only exists when the linear range was actually measured;
    // a skipped measurement must not masquerade as "clamp at 0 V".
    trial.params = to_behavioral_params(
        ch, /*with_clamp=*/config.characterize.measure_linear_range);
  } catch (const std::exception& e) {
    // A non-converging OP or a fit without a -3 dB corner is itself a
    // yield failure, not a sweep abort — but the reason must survive into
    // the trial record, never be swallowed.
    trial.converged = false;
    trial.failure_reason = e.what();
  }

  if (trial.converged && config.with_ber) {
    // Propagate the trial's Phase-IV model through the behavioral link:
    // the same genie-timed 2-PPM chain fig6_ber runs, with this trial's
    // gain/poles/clamp in the integrator seat.
    uwb::BerConfig bc;
    bc.sys = config.sys;
    bc.sys.preamble_symbols = 0;  // genie runs are payload-only
    bc.sys.multipath = false;
    bc.sys.seed = base::derive_seed(trial.seed, 3);
    bc.ebn0_db = {config.ebn0_db};
    bc.max_bits = config.ber_bits;
    bc.jobs = 1;  // trials are already fanned; keep the inner sweep inline
    VariantOptions vo;
    vo.behavioral = trial.params;
    // Clamp only when the range was measured: with an unmeasured range the
    // trial's clamp is 0 ("disabled"), and behavioral_uses_clamp=true would
    // make the factory substitute the *nominal* sys.integrator_clamp — a
    // fixed value that does not reflect this trial's variation.
    vo.behavioral_uses_clamp = config.characterize.measure_linear_range;
    const auto points = uwb::run_ber_sweep(
        bc, make_integrator_factory(IntegratorKind::kBehavioral, bc.sys, vo));
    if (points.at(0).quarantined) {
      // The BER task failed even after retries: the trial is a yield
      // failure with the reason visible, never a silent BER of 0.
      trial.converged = false;
      trial.failure_reason = "behavioral BER sweep quarantined";
    } else {
      trial.ber = points.at(0).ber;
    }
  }

  judge_trial(&trial, effective_criteria(config, criteria));
  return trial;
}

base::JsonValue trial_to_json(const McTrial& t) {
  base::JsonObject o;
  o["index"] = t.index;
  o["seed"] = base::hex_u64(t.seed);
  base::JsonObject corner;
  corner["process"] = spice::to_string(t.corner.process);
  corner["vdd"] = t.corner.vdd;
  corner["temp_c"] = t.corner.temp_c;
  o["corner"] = std::move(corner);
  o["converged"] = t.converged;
  o["dc_gain_db"] = t.dc_gain_db;
  o["f_pole1"] = t.f_pole1;
  o["f_pole2"] = t.f_pole2;
  o["unity_gain_freq"] = t.unity_gain_freq;
  o["input_linear_range"] = t.input_linear_range;
  o["slew_rate"] = t.slew_rate;
  o["fit_rms_error_db"] = t.fit_rms_error_db;
  base::JsonObject params;
  params["dc_gain_db"] = t.params.dc_gain_db;
  params["f_pole1"] = t.params.f_pole1;
  params["f_pole2"] = t.params.f_pole2;
  params["input_clamp"] = t.params.input_clamp;
  o["params"] = std::move(params);
  o["ber"] = t.ber;
  o["violations"] = static_cast<double>(t.violations);
  o["pass"] = t.pass;
  o["failure_reason"] = t.failure_reason;
  o["attempts"] = t.attempts;
  o["quarantined"] = t.quarantined;
  return base::JsonValue(std::move(o));
}

McTrial trial_from_json(const base::JsonValue& v) {
  McTrial t;
  t.index = static_cast<int>(v.at("index").as_number());
  t.seed = std::strtoull(v.at("seed").as_string().c_str(), nullptr, 16);
  const base::JsonValue& corner = v.at("corner");
  if (!spice::parse_corner(corner.at("process").as_string(),
                           &t.corner.process))
    throw base::JsonError("trial_from_json: unknown process corner \"" +
                          corner.at("process").as_string() + "\"");
  t.corner.vdd = corner.at("vdd").as_number();
  t.corner.temp_c = corner.at("temp_c").as_number();
  t.converged = v.at("converged").as_bool();
  t.dc_gain_db = v.at("dc_gain_db").as_number();
  t.f_pole1 = v.at("f_pole1").as_number();
  t.f_pole2 = v.at("f_pole2").as_number();
  t.unity_gain_freq = v.at("unity_gain_freq").as_number();
  t.input_linear_range = v.at("input_linear_range").as_number();
  t.slew_rate = v.at("slew_rate").as_number();
  t.fit_rms_error_db = v.at("fit_rms_error_db").as_number();
  const base::JsonValue& params = v.at("params");
  t.params.dc_gain_db = params.at("dc_gain_db").as_number();
  t.params.f_pole1 = params.at("f_pole1").as_number();
  t.params.f_pole2 = params.at("f_pole2").as_number();
  t.params.input_clamp = params.at("input_clamp").as_number();
  t.ber = v.at("ber").as_number();
  t.violations = static_cast<unsigned>(v.at("violations").as_number());
  t.pass = v.at("pass").as_bool();
  t.failure_reason = v.at("failure_reason").as_string();
  t.attempts = static_cast<int>(v.at("attempts").as_number());
  t.quarantined = v.at("quarantined").as_bool();
  return t;
}

namespace {

constexpr const char* kShardSchema = "uwbams.mc_shard/1";

std::string trials_to_shard(const std::vector<McTrial>& trials) {
  base::JsonObject doc;
  doc["schema"] = kShardSchema;
  base::JsonArray arr;
  arr.reserve(trials.size());
  for (const McTrial& t : trials) arr.push_back(trial_to_json(t));
  doc["trials"] = std::move(arr);
  return base::JsonValue(std::move(doc)).dump(2) + "\n";
}

// Parses one checkpoint shard and validates it covers exactly the trials
// [lo, hi) — wrong schema, wrong count or wrong indices all throw, which
// the caller treats as "recompute this task".
std::vector<McTrial> shard_to_trials(const std::string& text, std::size_t lo,
                                     std::size_t hi) {
  const base::JsonValue doc = base::parse_json(text);
  if (!doc.has("schema") || doc.at("schema").as_string() != kShardSchema)
    throw base::JsonError("mc shard: unknown schema");
  const base::JsonArray& arr = doc.at("trials").as_array();
  if (arr.size() != hi - lo)
    throw base::JsonError("mc shard: trial count mismatch");
  std::vector<McTrial> out;
  out.reserve(arr.size());
  for (std::size_t k = 0; k < arr.size(); ++k) {
    McTrial t = trial_from_json(arr[k]);
    if (t.index != static_cast<int>(lo + k))
      throw base::JsonError("mc shard: trial index mismatch");
    out.push_back(std::move(t));
  }
  return out;
}

// Canonical document of every result-affecting knob of a Monte-Carlo run;
// its fnv1a64 keys the checkpoint so a stale checkpoint (different
// config, seed, trial count or tier) is rejected instead of silently
// mixed in. Schema uwbams.mc/2 (PR 9): built from core/canonical.hpp
// fragments, so unlike the hand-rolled mc/1 string it covers the full
// sizing, PVT corner, BER system config and transient engine profile —
// and folds in canonical::kCodeVersion, invalidating checkpoints across
// result-affecting code changes. run_tag ("scenario|scale|tier") still
// pins the scenario identity.
std::string mc_content_key(const McConfig& config, const std::string& run_tag) {
  base::JsonObject corner;
  corner["process"] =
      base::JsonValue(std::string(spice::to_string(config.corner.process)));
  corner["vdd"] = base::JsonValue(config.corner.vdd);
  corner["temp_c"] = base::JsonValue(config.corner.temp_c);

  base::JsonObject obj;
  obj["code_version"] =
      base::JsonValue(std::string(canonical::kCodeVersion));
  obj["kind"] = base::JsonValue(std::string("uwbams.mc/2"));
  obj["run_tag"] = base::JsonValue(run_tag);
  obj["sizing"] = canonical::to_json(config.sizing);
  obj["corner"] = base::JsonValue(std::move(corner));
  obj["trials"] = base::JsonValue(config.trials);
  obj["seed"] = base::JsonValue(base::hex_u64(config.seed));
  obj["sigma_scale"] = base::JsonValue(config.sigma_scale);
  obj["sample_corners"] = base::JsonValue(config.sample_corners);
  obj["characterize"] = canonical::to_json(config.characterize);
  obj["with_ber"] = base::JsonValue(config.with_ber);
  obj["ebn0_db"] = base::JsonValue(config.ebn0_db);
  obj["ber_bits"] = base::JsonValue(base::hex_u64(config.ber_bits));
  obj["sys"] = canonical::to_json(config.sys);
  return base::JsonValue(std::move(obj)).dump(0);
}

}  // namespace

McResult run_monte_carlo(const McConfig& config, const YieldCriteria& criteria,
                         const base::ParallelRunner& pool,
                         const McRunOptions& opts) {
  McResult result;
  // Report the criteria as judged (skipped measurements relax them), never
  // the caller's unrelaxed thresholds.
  result.criteria = effective_criteria(config, criteria);

  // One task = one trial, or one fixed-size block of trials under
  // cross-trial vectorization (stat_equiv): each block owns one AC
  // workspace, so the complex pivot order carries across that block's
  // structurally identical sweeps. The fixed block size is part of the
  // determinism contract — the workspace history trial i sees depends only
  // on i's position within its block, never on --jobs or execution order —
  // and it is therefore also the checkpoint granularity: a shard holds a
  // whole block, so a resumed trial never sees a different workspace
  // history than an uninterrupted one.
  constexpr std::size_t kBlock = 8;
  const bool blocked = config.characterize.reuse_ac_factorization;
  const std::size_t chunk = blocked ? kBlock : 1;
  const auto nt = static_cast<std::size_t>(std::max(config.trials, 0));
  const std::size_t ntasks = (nt + chunk - 1) / chunk;

  std::unique_ptr<base::CheckpointStore> ckpt;
  if (!opts.checkpoint_dir.empty() && ntasks > 0)
    ckpt = std::make_unique<base::CheckpointStore>(
        opts.checkpoint_dir, opts.run_tag,
        base::fnv1a64(mc_content_key(config, opts.run_tag)), ntasks,
        opts.resume);

  std::vector<std::vector<McTrial>> chunks(ntasks);
  const auto run_task = [&](std::size_t b) {
    const std::size_t lo = b * chunk;
    const std::size_t hi = std::min(nt, lo + chunk);
    if (ckpt != nullptr && ckpt->completed(b)) {
      try {
        chunks[b] = shard_to_trials(ckpt->payload(b), lo, hi);
        return;
      } catch (const std::exception&) {
        // Unreadable or mismatched shard: fall through and recompute.
      }
    }
    linalg::LuFactor<std::complex<double>> workspace;
    McConfig task_cfg = config;
    if (blocked) task_cfg.characterize.ac_workspace = &workspace;
    std::vector<McTrial> trials;
    trials.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i)
      trials.push_back(run_mc_trial(task_cfg, static_cast<int>(i), criteria));
    // Attempt accounting: retries re-run the whole task, so every trial of
    // the task shares the attempt index of the run that finally succeeded.
    for (McTrial& t : trials) t.attempts = base::faults::current_attempt() + 1;
    if (ckpt != nullptr) ckpt->record(b, trials_to_shard(trials));
    chunks[b] = std::move(trials);
  };
  const std::vector<base::TaskFailure> failures =
      pool.for_each_tolerant(ntasks, run_task, opts.policy);

  // Quarantined tasks become placeholder trials: never characterized,
  // judged as no-converge yield failures, carrying the structured failure
  // record (attempts + reason). They are *not* checkpointed — a resumed
  // run re-attempts them.
  for (const base::TaskFailure& f : failures) {
    const std::size_t lo = f.index * chunk;
    const std::size_t hi = std::min(nt, lo + chunk);
    std::vector<McTrial> placeholders;
    placeholders.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      McTrial t;
      t.index = static_cast<int>(i);
      t.seed = base::derive_seed(config.seed, i);
      t.corner = trial_corner(config, t.seed);
      t.converged = false;
      t.quarantined = true;
      t.attempts = f.attempts;
      t.failure_reason = f.reason;
      judge_trial(&t, result.criteria);
      placeholders.push_back(std::move(t));
    }
    chunks[f.index] = std::move(placeholders);
  }

  result.trials.reserve(nt);
  for (auto& c : chunks)
    result.trials.insert(result.trials.end(),
                         std::make_move_iterator(c.begin()),
                         std::make_move_iterator(c.end()));

  McSummary& s = result.summary;
  s.trials = static_cast<int>(result.trials.size());
  std::vector<double> gain, f1, f2, ugf, range, slew, ber;
  for (const McTrial& t : result.trials) {
    if (t.pass) ++s.passes;
    if (t.violations & kViolInputRange) ++s.fail_input_range;
    if (t.violations & kViolSlewRate) ++s.fail_slew_rate;
    if (t.violations & kViolBandwidth) ++s.fail_bandwidth;
    if (t.violations & kViolGain) ++s.fail_gain;
    if (t.violations & kViolNoConverge) ++s.fail_no_converge;
    if (t.quarantined) ++s.quarantined;
    if (!t.converged) continue;
    gain.push_back(t.dc_gain_db);
    f1.push_back(t.f_pole1);
    f2.push_back(t.f_pole2);
    ugf.push_back(t.unity_gain_freq);
    range.push_back(t.input_linear_range);
    slew.push_back(t.slew_rate);
    if (t.ber >= 0.0) ber.push_back(t.ber);
  }
  s.yield = s.trials > 0 ? static_cast<double>(s.passes) / s.trials : 0.0;
  if (!gain.empty()) {
    s.gain_db = base::summarize_quantiles(gain);
    s.f_pole1_hz = base::summarize_quantiles(f1);
    s.f_pole2_hz = base::summarize_quantiles(f2);
    s.unity_gain_hz = base::summarize_quantiles(ugf);
    s.input_range_v = base::summarize_quantiles(range);
    s.slew_rate_vps = base::summarize_quantiles(slew);
  }
  if (!ber.empty()) s.ber = base::summarize_quantiles(ber);
  return result;
}

namespace {

// Failure reasons land in a one-row-per-trial CSV: anything that would
// break the row structure (separators, line breaks, quotes) is folded to
// ';' rather than quoted, keeping the format trivially parseable.
std::string csv_safe(const std::string& s) {
  std::string out = s;
  for (char& c : out)
    if (c == ',' || c == '\n' || c == '\r' || c == '"') c = ';';
  return out;
}

}  // namespace

std::string trials_to_csv(const std::vector<McTrial>& trials) {
  std::string out =
      "trial,seed,corner,vdd,temp_c,converged,dc_gain_db,f_pole1_hz,"
      "f_pole2_hz,unity_gain_hz,input_linear_range_v,slew_rate_vps,"
      "fit_rms_error_db,ber,violations,pass,attempts,quarantined,"
      "failure_reason\n";
  for (const McTrial& t : trials) {
    out += std::to_string(t.index) + ',' + std::to_string(t.seed) + ',';
    out += spice::to_string(t.corner.process);
    out += ',' + g17(t.corner.vdd) + ',' + g17(t.corner.temp_c) + ',';
    out += t.converged ? "1," : "0,";
    out += g17(t.dc_gain_db) + ',' + g17(t.f_pole1) + ',' + g17(t.f_pole2) +
           ',' + g17(t.unity_gain_freq) + ',' + g17(t.input_linear_range) +
           ',' + g17(t.slew_rate) + ',' + g17(t.fit_rms_error_db) + ',' +
           g17(t.ber) + ',';
    out += std::to_string(t.violations) + ',' + (t.pass ? "1," : "0,");
    out += std::to_string(t.attempts) + ',' + (t.quarantined ? "1," : "0,");
    out += csv_safe(t.failure_reason) + '\n';
  }
  return out;
}

namespace {

std::string quantile_json(const base::QuantileSummary& q) {
  std::string out = "{";
  out += "\"count\": " + std::to_string(q.count);
  out += ", \"mean\": " + g17(q.mean);
  out += ", \"min\": " + g17(q.min);
  out += ", \"p05\": " + g17(q.p05);
  out += ", \"p25\": " + g17(q.p25);
  out += ", \"p50\": " + g17(q.p50);
  out += ", \"p75\": " + g17(q.p75);
  out += ", \"p95\": " + g17(q.p95);
  out += ", \"max\": " + g17(q.max);
  out += "}";
  return out;
}

}  // namespace

std::string summary_to_json(const McResult& result) {
  const McSummary& s = result.summary;
  const YieldCriteria& c = result.criteria;
  std::string out = "{\n";
  out += "  \"trials\": " + std::to_string(s.trials) + ",\n";
  out += "  \"passes\": " + std::to_string(s.passes) + ",\n";
  out += "  \"yield\": " + g17(s.yield) + ",\n";
  out += "  \"criteria\": {\n";
  out += "    \"min_input_range_v\": " + g17(c.min_input_range) + ",\n";
  out += "    \"min_slew_rate_vps\": " + g17(c.min_slew_rate) + ",\n";
  out += "    \"min_unity_gain_hz\": " + g17(c.min_unity_gain_hz) + ",\n";
  out += "    \"nominal_gain_db\": " + g17(c.nominal_gain_db) + ",\n";
  out += "    \"gain_tol_db\": " + g17(c.gain_tol_db) + "\n";
  out += "  },\n";
  out += "  \"failures\": {\n";
  out += "    \"input_range\": " + std::to_string(s.fail_input_range) + ",\n";
  out += "    \"slew_rate\": " + std::to_string(s.fail_slew_rate) + ",\n";
  out += "    \"bandwidth\": " + std::to_string(s.fail_bandwidth) + ",\n";
  out += "    \"gain\": " + std::to_string(s.fail_gain) + ",\n";
  out += "    \"no_converge\": " + std::to_string(s.fail_no_converge) + ",\n";
  out += "    \"quarantined\": " + std::to_string(s.quarantined) + "\n";
  out += "  },\n";
  out += "  \"parameters\": {\n";
  out += "    \"dc_gain_db\": " + quantile_json(s.gain_db) + ",\n";
  out += "    \"f_pole1_hz\": " + quantile_json(s.f_pole1_hz) + ",\n";
  out += "    \"f_pole2_hz\": " + quantile_json(s.f_pole2_hz) + ",\n";
  out += "    \"unity_gain_hz\": " + quantile_json(s.unity_gain_hz) + ",\n";
  out += "    \"input_linear_range_v\": " + quantile_json(s.input_range_v) +
         ",\n";
  out += "    \"slew_rate_vps\": " + quantile_json(s.slew_rate_vps) + ",\n";
  out += "    \"ber\": " + quantile_json(s.ber) + "\n";
  out += "  }\n";
  out += "}\n";
  return out;
}

}  // namespace uwbams::core

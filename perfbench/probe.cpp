// perfbench_probe — the traced side of the benchmark (see README.md).
//
// Times calls into each library's public functions from outside, with
// std::chrono::steady_clock, and prints one JSON object of per-layer
// figures. The end-to-end side (run.py) drives the shipped uwbams_run and
// uwbams_serve binaries untraced; nothing here changes a byte they produce.
//
//   perfbench_probe prepare
//       build the ITD testbench, prepare it and solve its operating point
//       (the circuit preparation a Fig. 6 run pays before its first step)
//   perfbench_probe calibrate JOBS
//       calibrate the netscale_static full-scale surrogate into the
//       UWBAMS_CACHE store and print its content key
//   perfbench_probe trace TIER JOBS SERVE_JOBS OUT_DIR WARM_KEY NEW_KEY...
//       every per-layer figure; TIER selects the Fig. 6 sweep's exactness
//       tier, SERVE_JOBS the in-process service's pool (uwbams_serve's
//       --jobs); keys are scenario:seed pairs at fast scale
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "base/checkpoint.hpp"
#include "base/parallel.hpp"
#include "base/random.hpp"
#include "base/table.hpp"
#include "core/block_variant.hpp"
#include "core/characterize.hpp"
#include "core/equiv.hpp"
#include "net/calibrate.hpp"
#include "net/engine.hpp"
#include "net/surrogate.hpp"
#include "net/surrogate_cache.hpp"
#include "runner/sink.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "spice/ac.hpp"
#include "spice/engine_counters.hpp"
#include "spice/itd_builder.hpp"
#include "spice/op.hpp"
#include "spice/transient.hpp"
#include "uwb/ber.hpp"
#include "uwb/channel.hpp"
#include "uwb/interference.hpp"

using namespace uwbams;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Keeps timed results observable so the optimizer cannot drop the calls.
volatile double g_sink = 0.0;

// Median seconds per call of `fn`, over `batches` batches of `calls` calls.
double per_call(int batches, int calls, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    t.push_back(seconds_since(t0) / calls);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// The calibration of netscale_static at --scale=full (engine_calibration()
// in bench/netscale.cpp, at the CI seed). run.py checks that the timed
// netscale_static run reports a cache hit on the key printed by
// `calibrate`, so a drift between the two configs fails loudly.
net::CalibrationConfig netscale_full_calibration() {
  net::CalibrationConfig cal;
  cal.twr.sys.dt = 0.2e-9;
  cal.ranges_m = {3.0, 5.0, 7.0, 9.0, 11.0};
  cal.noise_psd = {8e-19};
  cal.dppm = {0.0, 20.0, 40.0};
  cal.channel_class = {0.0};
  cal.samples_per_cell = 16;
  cal.seed = 1;
  return cal;
}

// netscale_static's full-scale network (bench/netscale.cpp), CI seed.
net::NetScaleConfig netscale_full_network() {
  net::NetScaleConfig cfg;
  cfg.seed = 1;
  cfg.area_m = 210.0;
  cfg.anchor_grid = 42;
  cfg.tag_count = 18236;
  cfg.rounds = 6;
  cfg.exchanges_per_link = 3;
  cfg.noise_psd = 8e-19;
  cfg.ppm_spread = 20.0;
  return cfg;
}

// One JSON object of named figures, printed in insertion order.
class Report {
 public:
  void add(const std::string& name, double value) {
    items_.emplace_back(name, value);
  }
  void print() const {
    std::printf("{");
    for (std::size_t i = 0; i < items_.size(); ++i)
      std::printf("%s\"%s\": %.17g", i ? ", " : "", items_[i].first.c_str(),
                  items_[i].second);
    std::printf("}\n");
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

// --- base + uwb + ams + spice: the Fig. 6 sweep, per task -----------------

// Fig. 6 at --scale=fast, seed 1 (bench/fig6_ber.cpp): 2 integrators x 9
// Eb/N0 points fanned through ParallelRunner::map, each task timed.
void trace_fig6_sweep(core::ExactnessTier tier, int jobs, Report* r) {
  uwb::BerConfig base;
  base.sys.dt = 0.2e-9;
  base.sys.seed = 1;
  base.ebn0_db = {0, 2, 4, 6, 8, 10, 12, 14, 16};
  base.max_bits = 1000;
  base.min_errors = 20;
  const core::IntegratorKind kinds[] = {core::IntegratorKind::kIdeal,
                                        core::IntegratorKind::kSpice};
  const std::size_t npts = base.ebn0_db.size();
  const auto variant = core::variant_for_tier(tier);

  struct TaskTime {
    double start = 0.0, end = 0.0;
    std::thread::id worker;
    std::uint64_t bits = 0;
  };
  std::vector<TaskTime> times(2 * npts);
  const base::ParallelRunner pool(jobs);
  const auto before = spice::engine_counters::snapshot();
  const auto t0 = Clock::now();
  pool.map<uwb::BerPoint>(2 * npts, [&](std::size_t t) {
    const double start = seconds_since(t0);
    uwb::BerConfig c = base;
    c.ebn0_db = {base.ebn0_db[t % npts]};
    const auto kind = kinds[t / npts];
    const auto p = uwb::run_ber_sweep(
        c, core::make_integrator_factory(kind, c.sys, variant))[0];
    times[t] = {start, seconds_since(t0), std::this_thread::get_id(), p.bits};
    return p;
  });
  const double wall = seconds_since(t0);
  const auto after = spice::engine_counters::snapshot();

  double busy = 0.0, ideal_s = 0.0, spice_s = 0.0;
  std::uint64_t ideal_bits = 0;
  std::map<std::thread::id, double> last_end;
  for (std::size_t t = 0; t < times.size(); ++t) {
    const double d = times[t].end - times[t].start;
    busy += d;
    if (t < npts) {
      ideal_s += d;
      ideal_bits += times[t].bits;
    } else {
      spice_s += d;
    }
    double& e = last_end[times[t].worker];
    e = std::max(e, times[t].end);
  }
  double first_idle = wall;
  for (const auto& [id, e] : last_end) first_idle = std::min(first_idle, e);
  // Kernel samples of the payload symbols (calibration probes excluded).
  const double samples = static_cast<double>(ideal_bits) *
                         static_cast<double>(base.sys.samples_per_symbol());

  r->add("base.pool_busy_ratio", busy / (jobs * wall));
  r->add("base.pool_tail_s", wall - first_idle);
  r->add("uwb.ber_ideal_s", ideal_s);
  r->add("uwb.ber_spice_s", spice_s);
  r->add("ams.sample_ns", 1e9 * ideal_s / samples);
  const double steps = static_cast<double>(after.steps - before.steps);
  const double newton =
      static_cast<double>(after.newton_iterations - before.newton_iterations);
  const double refactors =
      static_cast<double>(after.refactorizations - before.refactorizations);
  r->add("spice.steps", steps);
  r->add("spice.newton_iterations", newton);
  r->add("spice.factorizations",
         static_cast<double>(after.factorizations - before.factorizations));
  r->add("spice.refactorizations", refactors);
  r->add("spice.solves", static_cast<double>(after.solves - before.solves));
  r->add("spice.refactors_per_step", refactors / steps);
  r->add("spice.newton_per_step", newton / steps);
  r->add("fig6_sweep_wall_s", wall);
}

// --- linalg + spice micro-timings on the ITD testbench -------------------

void trace_spice(Report* r) {
  spice::Circuit ckt;
  spice::build_itd_testbench(ckt);
  ckt.prepare();
  const auto op = spice::solve_op(ckt);
  if (!op.converged) throw std::runtime_error("ITD operating point failed");
  r->add("spice.op_ms", 1e3 * per_call(5, 1, [&] {
           g_sink = g_sink + spice::solve_op(ckt).x[0];
         }));
  const auto freqs = spice::log_frequency_grid(1e3, 50e9, 12);
  const auto outp = ckt.find_node("Out_intp");
  const auto outm = ckt.find_node("Out_intm");
  r->add("spice.ac_ms", 1e3 * per_call(5, 1, [&] {
           g_sink = g_sink +
                    spice::run_ac(ckt, op.x, freqs, outp, outm).mag_db(0);
         }));

  // The transient Jacobian at the operating point.
  for (const auto& d : ckt.devices()) d->init_state(op.x);
  spice::StampArgs args;
  args.mode = spice::AnalysisMode::kTransient;
  args.x = &op.x;
  args.dt = 0.05e-9;
  args.inv_dt = 1.0 / args.dt;
  args.t = args.dt;
  args.gmin = 1e-12;
  const auto pattern = ckt.stamp_pattern();
  spice::Mna<double> mna(*pattern);
  const auto stamp_all = [&] {
    mna.reset();
    for (const auto& d : ckt.devices()) d->stamp(mna, args);
  };
  r->add("spice.stamp_us", 1e6 * per_call(7, 2000, stamp_all));
  std::vector<double> f(op.x.size());
  r->add("spice.residual_us", 1e6 * per_call(7, 2000, [&] {
           std::fill(f.begin(), f.end(), 0.0);
           for (const auto& d : ckt.devices()) d->residual(f, args);
           g_sink = g_sink + f[0];
         }));
  stamp_all();
  linalg::LuFactor<double> lu;
  lu.factor(mna.matrix(), &pattern->sparsity());
  r->add("linalg.refactor_us", 1e6 * per_call(7, 2000, [&] {
           if (!lu.refactor(mna.matrix())) lu.factor(mna.matrix(),
                                                     &pattern->sparsity());
         }));
  std::vector<double> bx = mna.rhs();
  r->add("linalg.solve_us", 1e6 * per_call(7, 5000, [&] {
           bx = mna.rhs();
           lu.solve_in_place(bx);
           g_sink = g_sink + bx[0];
         }));

  // One fixed step under a 50 MHz differential drive, per exactness tier.
  const auto step_time = [&](bool stat) {
    spice::Circuit c;
    const auto tb = spice::build_itd_testbench(c);
    c.prepare();
    spice::TransientOptions opts;
    if (stat) spice::apply_stat_equiv_profile(&opts);
    spice::TransientSession s(c, opts);
    auto& vinp = s.source("vinp");
    auto& vinm = s.source("vinm");
    const auto drive = [&] {
      const double v =
          0.05 * std::sin(2.0 * std::numbers::pi * 50e6 * s.time());
      vinp.set_override(tb.input_cm + v);
      vinm.set_override(tb.input_cm - v);
      s.step();
    };
    for (int i = 0; i < 2000; ++i) drive();
    return per_call(5, 4000, drive);
  };
  r->add("spice.step_us", 1e6 * step_time(false));
  r->add("spice.step_stat_us", 1e6 * step_time(true));
}

// --- base RNG, uwb channel and interference --------------------------------

void trace_uwb(Report* r) {
  base::Rng rng(7);
  r->add("base.rng_normal_ns", 1e9 * per_call(7, 1000000, [&] {
           g_sink = g_sink + rng.gaussian();
         }));

  const auto cm1 = uwb::channel_class_params(uwb::ChannelClass::kCm1);
  const auto cm3 = uwb::channel_class_params(uwb::ChannelClass::kCm3);
  r->add("uwb.channel_draw_us", 1e6 * per_call(7, 100, [&] {
           g_sink = g_sink + uwb::generate_sv(rng, cm1).taps.size() +
                    uwb::generate_sv(rng, cm3).taps.size();
         }) / 2.0);

  uwb::SystemConfig sys;
  uwb::CwTone tone(5e-3, 4.2e9, 0.3);
  uwb::PiconetInterferer piconet(sys, 11);
  constexpr int n = ams::kMaxBatch;
  std::vector<double> t(n);
  double t0 = 0.0;
  r->add("uwb.interference_ns", 1e9 * per_call(7, 2000, [&] {
           for (int i = 0; i < n; ++i) t[i] = t0 + i * sys.dt;
           t0 += n * sys.dt;
           tone.step_block(t.data(), sys.dt, n);
           piconet.step_block(t.data(), sys.dt, n);
           g_sink = g_sink + tone.out()[n - 1] + piconet.out()[n - 1];
         }) / n);
}

// --- core characterization -------------------------------------------------

void trace_core(Report* r) {
  std::vector<double> t;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const auto ch = core::characterize_itd();
    t.push_back(seconds_since(t0));
    g_sink = g_sink + ch.unity_gain_freq;
  }
  r->add("core.characterize_ms", 1e3 * median(t));
}

// --- net: exchange, calibration, surrogate draws, engine; runner sink -------

std::string positions_csv(const net::NetScaleResult& res) {
  std::string csv = "round,tag,true_x,true_y,est_x,est_y,err_m,links,solved\n";
  char buf[256];
  for (std::size_t r = 0; r < res.tag_rounds.size(); ++r)
    for (std::size_t t = 0; t < res.tag_rounds[r].size(); ++t) {
      const net::TagRound& row = res.tag_rounds[r][t];
      std::snprintf(buf, sizeof buf,
                    "%zu,%zu,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d\n", r, t,
                    row.true_x, row.true_y, row.est_x, row.est_y, row.err_m,
                    row.links, row.solved ? 1 : 0);
      csv += buf;
    }
  return csv;
}

void trace_net(int jobs, const std::string& out_dir, Report* r) {
  const auto cal = netscale_full_calibration();
  const auto fact =
      core::make_integrator_factory(core::IntegratorKind::kIdeal, cal.twr.sys);
  std::vector<double> ex;
  for (int s = 0; s < 9; ++s) {
    const auto t0 = Clock::now();
    const auto it = net::run_calibration_exchange(
        cal, static_cast<std::size_t>(s % cal.cell_count()), s,
        net::kCalibratePurpose, fact);
    ex.push_back(seconds_since(t0));
    g_sink = g_sink + it.distance_estimate;
  }
  r->add("net.twr_exchange_ms", 1e3 * median(ex));

  const base::ParallelRunner pool(jobs);
  auto t0 = Clock::now();
  const auto table = net::calibrate_surrogate(cal, fact, &pool);
  r->add("net.calibrate_s", seconds_since(t0));

  base::Rng rng(3);
  r->add("net.draw_ns", 1e9 * per_call(7, 200000, [&] {
           g_sink = g_sink + table.draw(6.0, 8e-19, 20.0, 0.0, rng).distance_m;
         }));

  const auto cfg = netscale_full_network();
  t0 = Clock::now();
  net::NetScaleEngine eng(cfg, table);
  r->add("net.engine_build_s", seconds_since(t0));
  t0 = Clock::now();
  const auto res = eng.run(&pool);
  r->add("net.engine_run_s", seconds_since(t0));
  r->add("net.toa_draws", static_cast<double>(res.total_draws));

  // runner: rendering and writing netscale_static's artifacts.
  t0 = Clock::now();
  {
    runner::ResultSink sink("netscale_static", out_dir);
    sink.set_quiet(true);
    base::Table rounds("Per-round network statistics");
    rounds.set_header({"round", "solved", "avail", "rmse_m", "p95_m"});
    for (const auto& st : res.rounds)
      rounds.add_row({std::to_string(st.round),
                      std::to_string(st.tags_solved),
                      base::Table::num(st.availability, 4),
                      base::Table::num(st.rmse_m, 4),
                      base::Table::num(st.p95_err_m, 4)});
    sink.table(rounds, "rounds");
    sink.raw_artifact("positions.csv", positions_csv(res));
    sink.metric("rmse_m", res.overall_rmse_m);
    sink.finish(0, 0.0);
  }
  r->add("runner.sink_ms", 1e3 * seconds_since(t0));
}

// --- serve, in-process ------------------------------------------------------

std::string run_line(const std::string& key) {
  const auto colon = key.find(':');
  return "{\"schema\":\"uwbams-serve-v1\",\"op\":\"run\",\"scenario\":\"" +
         key.substr(0, colon) + "\",\"scale\":\"fast\",\"seed\":" +
         key.substr(colon + 1) + "}";
}

void trace_serve(int jobs, const std::string& cache_dir,
                 const std::string& warm_key,
                 const std::vector<std::string>& new_keys, Report* r) {
  const std::string warm_line = run_line(warm_key);
  r->add("serve.parse_us", 1e6 * per_call(7, 2000, [&] {
           g_sink = g_sink + serve::Request::parse(warm_line).scenario.size();
         }));
  const auto req = serve::Request::parse(warm_line);
  r->add("serve.key_us", 1e6 * per_call(7, 2000, [&] {
           g_sink = g_sink + static_cast<double>(req.content_key() & 1);
         }));

  serve::ResultCache cache(cache_dir);
  base::ParallelRunner pool(jobs);
  serve::ScenarioService service(cache, pool);
  if (service.handle_line(warm_line).find("\"status\":\"ok\"") ==
      std::string::npos)
    throw std::runtime_error("warm key " + warm_key + " failed in-process");
  r->add("serve.handle_hit_us", 1e6 * per_call(7, 200, [&] {
           g_sink = g_sink + service.handle_line(warm_line).size();
         }));

  std::string payload;
  if (!cache.get(req.content_key(), &payload))
    throw std::runtime_error("warm payload missing from the cache");
  r->add("serve.cache_get_us", 1e6 * per_call(7, 2000, [&] {
           std::string out;
           g_sink = g_sink + cache.get(req.content_key(), &out);
         }));
  // Disk level: a one-entry memory LRU alternating two keys misses memory
  // on every get.
  serve::ResultCache disk(cache_dir, 1);
  disk.put(1, payload);
  disk.put(2, payload);
  std::uint64_t k = 0;
  r->add("serve.cache_disk_get_us", 1e6 * per_call(7, 200, [&] {
           std::string out;
           g_sink = g_sink + disk.get(1 + (k++ & 1), &out);
         }));
  std::uint64_t fresh = 100;
  r->add("serve.cache_put_us", 1e6 * per_call(7, 50, [&] {
           disk.put(fresh++, payload);
         }));

  std::vector<double> compute;
  for (const auto& key : new_keys) {
    const auto t0 = Clock::now();
    const auto resp = service.handle_line(run_line(key));
    const double s = seconds_since(t0);
    if (resp.find("\"cache\":\"miss\"") == std::string::npos)
      throw std::runtime_error("new key " + key + " did not compute");
    compute.push_back(s);
    std::printf("compute_ms %s %.6f\n", key.c_str(), 1e3 * s);
  }
  r->add("serve.compute_ms", 1e3 * median(compute));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_probe prepare | calibrate JOBS | trace TIER "
               "JOBS SERVE_JOBS OUT_DIR WARM_KEY NEW_KEY...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  try {
    if (mode == "prepare" && argc == 2) {
      spice::Circuit ckt;
      spice::build_itd_testbench(ckt);
      ckt.prepare();
      return spice::solve_op(ckt).converged ? 0 : 1;
    }
    if (mode == "calibrate" && argc == 3) {
      const auto cal = netscale_full_calibration();
      const base::ParallelRunner pool(std::atoi(argv[2]));
      std::string source;
      net::load_or_calibrate_surrogate(cal, core::IntegratorKind::kIdeal,
                                       &pool, nullptr, &source);
      std::printf("surrogate %s key %s\n", source.c_str(),
                  base::hex_u64(net::surrogate_content_key(
                                    cal, core::IntegratorKind::kIdeal))
                      .c_str());
      return 0;
    }
    if (mode == "trace" && argc >= 8) {
      core::ExactnessTier tier;
      if (!core::parse_exactness_tier(argv[2], &tier)) return usage();
      const int jobs = std::atoi(argv[3]);
      const std::string out = argv[5];
      std::filesystem::create_directories(out);
      Report r;
      trace_fig6_sweep(tier, jobs, &r);
      trace_spice(&r);
      trace_uwb(&r);
      trace_core(&r);
      trace_net(jobs, out + "/sink", &r);
      trace_serve(std::atoi(argv[4]), out + "/cache", argv[6],
                  std::vector<std::string>(argv + 7, argv + argc), &r);
      r.print();
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
  return usage();
}

// bench_engine — transient-engine microbenchmark tracking the fast path.
//
// Three standardized workloads exercise the engine layers this repo's
// "Table 1 CPU time" argument rests on (cheap transistor-level inner loop):
//
//   itd_fixed    the 31-MOSFET Integrate & Dump testbench stepped at the
//                system benches' rate with a noisy differential drive —
//                the fig6_ber inner loop in isolation;
//   itd_classic  the same workload with the fast path disabled
//                (per-iteration full assembly + fresh factorization) —
//                the speedup denominator;
//   rc_linear    a 12-section RC ladder — the linear-circuit path that
//                must run on a single cached factorization.
//
// Results go to stdout and to summary.json: each workload's engine
// counters under `metrics`, its steps/s and the fast-path speedup under
// `perf`.
#include <chrono>
#include <random>
#include <string>
#include <utility>

#include "runner/runner.hpp"
#include "spice/devices.hpp"
#include "spice/itd_builder.hpp"
#include "spice/transient.hpp"

using namespace uwbams;

namespace {

struct WorkloadResult {
  double wall_seconds = 0.0;
  double steps_per_second = 0.0;
  spice::TransientStats stats;
};

// Steps the ITD testbench with a seeded noisy differential input and the
// control cycle the receiver runs (integrate -> dump), mimicking the
// fig6_ber inner loop without the surrounding system chain.
WorkloadResult run_itd(std::uint64_t seed, int steps,
                       const spice::TransientOptions& topts) {
  spice::Circuit ckt;
  const auto tb = spice::build_itd_testbench(ckt, {});
  (void)tb;
  spice::TransientSession session(ckt, topts);
  auto& vinp = session.source("vinp");
  auto& vinm = session.source("vinm");
  auto& ctrlp = session.source("vctrlp");
  auto& ctrlm = session.source("vctrlm");
  ctrlp.set_override(1.8);
  ctrlm.set_override(0.0);  // integrate

  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.01);
  const double dt = 0.2e-9;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) {
    const double u = noise(rng);
    vinp.set_override(0.9 + 0.5 * u);
    vinm.set_override(0.9 - 0.5 * u);
    if (i % 300 == 250)
      ctrlm.set_override(1.8);  // dump
    else if (i % 300 == 0)
      ctrlm.set_override(0.0);  // integrate
    session.step(dt);
  }
  WorkloadResult r;
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.steps_per_second = steps / r.wall_seconds;
  r.stats = session.stats();
  return r;
}

// 12-section RC ladder driven by a pulse: the linear single-factorization
// fast path.
WorkloadResult run_rc_ladder(int steps) {
  spice::Circuit ckt;
  const int in = ckt.node("in");
  int prev = in;
  for (int k = 0; k < 12; ++k) {
    const int next = ckt.node("n" + std::to_string(k));
    ckt.add<spice::Resistor>("r" + std::to_string(k), prev, next, 1e3);
    ckt.add<spice::Capacitor>("c" + std::to_string(k), next, 0, 1e-12);
    prev = next;
  }
  ckt.add<spice::VoltageSource>(
      "vin", in, 0,
      spice::Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 20e-9, 40e-9));

  spice::TransientSession session(ckt, {});
  const double dt = 0.05e-9;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) session.step(dt);
  WorkloadResult r;
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.steps_per_second = steps / r.wall_seconds;
  r.stats = session.stats();
  return r;
}

// One workload's summary.json entries: its engine counters (fixed by the
// seed and scale) in `metrics`, its throughput in `perf`.
void report(runner::RunContext& ctx, const std::string& name,
            const WorkloadResult& r) {
  const spice::TransientStats& st = r.stats;
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"steps", st.steps},
      {"newton_iterations", st.newton_iterations},
      {"factorizations", st.factorizations},
      {"refactorizations", st.refactorizations},
      {"solves", st.solves},
      {"accepted_steps", st.accepted_steps},
      {"rejected_steps", st.rejected_steps},
      {"fallback_steps", st.fallback_steps}};
  for (const auto& [counter, value] : counters)
    ctx.sink.metric(name + "_" + counter, value);
  ctx.sink.perf(name + "_steps_per_second", r.steps_per_second);
}

}  // namespace

REGISTER_SCENARIO(bench_engine, "bench",
                  "Transient-engine fast-path microbenchmark") {
  const int itd_steps = ctx.pick(20000, 100000, 400000);
  const int rc_steps = ctx.pick(20000, 100000, 400000);

  ctx.sink.note("workload: ITD testbench (31 MOSFETs, 28 unknowns) + RC ladder");

  spice::TransientOptions fast;  // defaults = the fast path
  const WorkloadResult itd_fast = run_itd(ctx.seed, itd_steps, fast);
  ctx.sink.notef("itd_fixed    : %8.0f steps/s  (%.2f us/step, %.2f iters/step)",
                 itd_fast.steps_per_second, 1e6 / itd_fast.steps_per_second,
                 static_cast<double>(itd_fast.stats.newton_iterations) /
                     static_cast<double>(itd_fast.stats.steps));

  spice::TransientOptions classic;
  classic.lazy_jacobian = false;
  classic.reuse_factorization = false;
  const WorkloadResult itd_classic = run_itd(ctx.seed, itd_steps, classic);
  ctx.sink.notef("itd_classic  : %8.0f steps/s  (%.2f us/step) — fast path disabled",
                 itd_classic.steps_per_second,
                 1e6 / itd_classic.steps_per_second);
  const double speedup =
      itd_fast.steps_per_second / itd_classic.steps_per_second;
  ctx.sink.notef("fast-path speedup on the embedded-netlist loop: %.2fx",
                 speedup);

  const WorkloadResult rc = run_rc_ladder(rc_steps);
  ctx.sink.notef("rc_linear    : %8.0f steps/s  (factorizations: %llu)",
                 rc.steps_per_second,
                 static_cast<unsigned long long>(rc.stats.factorizations));

  report(ctx, "itd_fixed", itd_fast);
  report(ctx, "itd_classic", itd_classic);
  report(ctx, "rc_linear", rc);
  ctx.sink.perf("fast_path_speedup", speedup);

  // Sanity gates so CI fails loudly if the fast path regresses to the
  // classic engine's behavior.
  if (rc.stats.factorizations != 1) {
    ctx.sink.note("FAIL: linear circuit took more than one factorization");
    return 1;
  }
  if (speedup < 1.2) {
    ctx.sink.notef("FAIL: fast path no faster than classic engine (%.2fx)",
                   speedup);
    return 1;
  }
  return 0;
}

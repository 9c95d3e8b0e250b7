// table1_cpu — reproduces Table 1: "CPU time comparison".
//
// Runs the same 30 us system simulation (full receive chain, 2-PPM traffic,
// fixed 0.05 ns step, Newton/Raphson with EPS 1e-6 in the embedded solver)
// once per integrator fidelity and reports wall-clock CPU time. Absolute
// seconds differ from the paper's 2007 Xeon + ADMS/ELDO; the claim under
// test is the ordering and ratio structure: t(ELDO) >> t(VHDL-AMS) >
// t(IDEAL).
//
// Deliberately serial (--jobs is ignored here): concurrent variants would
// contend for cores and distort exactly the CPU times the table reports.
#include <vector>

#include "base/table.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "runner/runner.hpp"

using namespace uwbams;

REGISTER_SCENARIO(table1_cpu, "bench",
                  "Table 1 — CPU time of IDEAL / VHDL-AMS / ELDO runs") {
  const double duration = ctx.pick(3e-6, 30e-6, 30e-6);
  ctx.sink.notef("Workload: %.0f us system simulation @ 0.05 ns fixed step\n",
                 duration * 1e6);

  std::vector<core::SystemRunResult> results;
  for (auto kind :
       {core::IntegratorKind::kIdeal, core::IntegratorKind::kBehavioral,
        core::IntegratorKind::kSpice}) {
    ctx.sink.notef("running %s ...", core::to_string(kind).c_str());
    const auto cfg = ctx.spec()
                         .dt(0.05e-9)  // the paper's fixed step
                         .integrator(kind)
                         .duration(duration)
                         .run_config();
    results.push_back(core::run_system_simulation(cfg));
  }

  ctx.sink.note("\n" + core::render_cpu_table(results));

  base::Table t("Table 1 raw measurements");
  t.set_header({"Model", "cpu_s", "sim_us", "steps", "bits", "errors"});
  for (const auto& r : results) {
    t.add_row({core::to_string(r.kind), base::Table::num(r.cpu_seconds, 3),
               base::Table::num(r.sim_seconds * 1e6, 1),
               std::to_string(r.steps), std::to_string(r.bits_demodulated),
               std::to_string(r.bit_errors)});
    ctx.sink.perf("cpu_s_" + core::to_string(r.kind), r.cpu_seconds);
  }
  ctx.sink.table(t, "cpu_times");
  ctx.sink.perf("eldo_over_ideal",
                results[2].cpu_seconds /
                    (results[0].cpu_seconds > 0 ? results[0].cpu_seconds
                                                : 1e-9));

  ctx.sink.note(
      "Paper Table 1 (30 us, IBM Xeon 3.0 GHz, ADMS/ELDO):\n"
      "  ELDO 59m33s : VHDL-AMS 20m37s : IDEAL 9m11s  (6.48x : 2.25x : 1x)\n"
      "Shape check: t(ELDO) >> t(VHDL-AMS) >= t(IDEAL). Our behavioral two-\n"
      "pole model adds only two ODE states to the chain, so its overhead\n"
      "over IDEAL is smaller than in the paper's VHDL-AMS runtime.");
  return 0;
}

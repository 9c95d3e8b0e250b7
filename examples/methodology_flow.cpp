// methodology_flow — the paper's four-phase top-down flow, end to end.
//
// Walks the Integrate & Dump block through the methodology:
//   Phase I/II: behavioral system model (ideal I&D), functional check;
//   Phase III:  substitute-and-play — the same testbench with the
//               31-transistor netlist co-simulated in the loop;
//   III -> IV:  characterize the netlist (AC fit, linear range);
//   Phase IV:   calibrated two-pole model back in the system, with the
//               CPU-cost / accuracy trade the paper's Table 1 quantifies.
#include "base/table.hpp"
#include "core/block_variant.hpp"
#include "core/characterize.hpp"
#include "core/memo.hpp"
#include "core/experiment.hpp"
#include "runner/runner.hpp"

using namespace uwbams;

REGISTER_SCENARIO(methodology_flow, "example",
                  "The four-phase AMS top-down flow on the I&D block") {
  auto spec = ctx.spec().dt(0.1e-9).duration(ctx.pick(1.5e-6, 4e-6, 4e-6))
                  .ebn0(14.0);

  // ---- Phase I/II: behavioral system, functional check.
  ctx.sink.note("[Phase II]  behavioral system simulation (ideal I&D)...");
  const auto phase2 = core::run_system_simulation(
      spec.integrator(core::IntegratorKind::kIdeal).run_config());
  ctx.sink.notef("            %llu bits demodulated, %llu errors, %.2f s CPU\n",
                 static_cast<unsigned long long>(phase2.bits_demodulated),
                 static_cast<unsigned long long>(phase2.bit_errors),
                 phase2.cpu_seconds);

  // ---- Phase III: transistor netlist in the same testbench.
  ctx.sink.note(
      "[Phase III] substitute-and-play: 31-transistor netlist in the loop...");
  const auto phase3 = core::run_system_simulation(
      spec.integrator(core::IntegratorKind::kSpice).run_config());
  ctx.sink.notef(
      "            %llu bits, %llu errors, %.2f s CPU (%.1fx Phase II)\n",
      static_cast<unsigned long long>(phase3.bits_demodulated),
      static_cast<unsigned long long>(phase3.bit_errors), phase3.cpu_seconds,
      phase3.cpu_seconds / phase2.cpu_seconds);

  // ---- Phase III -> IV: characterize the detailed block.
  ctx.sink.note("[III->IV]   characterizing the netlist (AC fit + ranges)...");
  const auto ch = core::memo::characterize_itd_cached();
  ctx.sink.notef(
      "            DC gain %.2f dB, poles %.3f MHz / %.2f GHz,\n"
      "            input linear range %.0f mV, slew %.2f V/us\n",
      ch.ac.dc_gain_db, ch.ac.f_pole1 / 1e6, ch.ac.f_pole2 / 1e9,
      ch.input_linear_range * 1e3, ch.slew_rate * 1e-6);

  // ---- Phase IV: calibrated behavioral model back in the system.
  ctx.sink.note("[Phase IV]  calibrated two-pole model in the system...");
  auto cfg4 = spec.integrator(core::IntegratorKind::kBehavioral).run_config();
  cfg4.variant.behavioral = core::to_behavioral_params(ch, false);
  const auto phase4 = core::run_system_simulation(cfg4);
  ctx.sink.notef("            %llu bits, %llu errors, %.2f s CPU\n",
                 static_cast<unsigned long long>(phase4.bits_demodulated),
                 static_cast<unsigned long long>(phase4.bit_errors),
                 phase4.cpu_seconds);

  base::Table t("Flow summary (the Table-1 trade at example scale)");
  t.set_header({"Phase", "Model", "CPU [s]", "errors"});
  t.add_row({"II", "IDEAL", base::Table::num(phase2.cpu_seconds, 2),
             std::to_string(phase2.bit_errors)});
  t.add_row({"III", "ELDO netlist", base::Table::num(phase3.cpu_seconds, 2),
             std::to_string(phase3.bit_errors)});
  t.add_row({"IV", "calibrated VHDL-AMS", base::Table::num(phase4.cpu_seconds, 2),
             std::to_string(phase4.bit_errors)});
  ctx.sink.table(t, "flow_summary");
  ctx.sink.perf("cpu_s_phase2", phase2.cpu_seconds);
  ctx.sink.perf("cpu_s_phase3", phase3.cpu_seconds);
  ctx.sink.perf("cpu_s_phase4", phase4.cpu_seconds);

  ctx.sink.note(
      "\nThe Phase-IV model recovers circuit-level behaviour at behavioral\n"
      "cost — 'unavoidable, if one aims at capturing the real circuits\n"
      "behavior while keeping under control the time budget' (paper §5).");
  return 0;
}

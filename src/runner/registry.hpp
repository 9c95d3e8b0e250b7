// registry.hpp — scenario self-registration and lookup.
//
// Every reproduction workload (paper figure/table benches, ablations,
// examples) registers itself at static-init time under a stable name, and
// the single `uwbams_run` CLI discovers and runs them by name — the
// replacement for fourteen hand-rolled main()s.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runner/scenario.hpp"

namespace uwbams::runner {

struct ScenarioInfo {
  std::string name;   // CLI name, e.g. "fig6_ber"
  std::string group;  // e.g. "bench"; --help lists the registered groups
  std::string title;  // one-line description shown by --list
  // Optional --scale tier annotation shown by --list, written as the
  // fast|default|full workloads in one compact string (e.g. "4|8|16 nodes").
  // Empty = the scenario has not spelled out its tiers.
  std::string tiers;
};

using ScenarioFn = std::function<int(RunContext&)>;

struct Scenario {
  ScenarioInfo info;
  ScenarioFn fn;
};

class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  // Throws std::logic_error on duplicate names (fail fast at startup).
  void add(ScenarioInfo info, ScenarioFn fn);
  const Scenario* find(const std::string& name) const;
  // All scenarios, sorted by (group, name). Optional group filter.
  std::vector<const Scenario*> list(const std::string& group = "") const;
  std::size_t size() const { return scenarios_.size(); }

 private:
  std::vector<Scenario> scenarios_;
};

// Static-init helper used by REGISTER_SCENARIO.
struct ScenarioRegistrar {
  ScenarioRegistrar(ScenarioInfo info, ScenarioFn fn);
};

}  // namespace uwbams::runner

// Defines and registers a scenario body:
//
//   REGISTER_SCENARIO(fig6_ber, "bench", "Fig. 6 — BER vs Eb/N0") {
//     auto spec = ctx.spec()...;
//     ...
//     return 0;
//   }
#define REGISTER_SCENARIO(id, group, title)                                  \
  static int uwbams_scenario_##id(::uwbams::runner::RunContext& ctx);        \
  static const ::uwbams::runner::ScenarioRegistrar uwbams_registrar_##id(    \
      {#id, group, title, ""}, &uwbams_scenario_##id);                       \
  static int uwbams_scenario_##id(::uwbams::runner::RunContext& ctx)

// REGISTER_SCENARIO plus the fast|default|full tier annotation `--list`
// prints in its SCALES column:
//
//   REGISTER_SCENARIO_TIERS(ranging_network, "ranging", "N-node TWR ...",
//                           "4|8|16 nodes") { ... }
#define REGISTER_SCENARIO_TIERS(id, group, title, tiers)                     \
  static int uwbams_scenario_##id(::uwbams::runner::RunContext& ctx);        \
  static const ::uwbams::runner::ScenarioRegistrar uwbams_registrar_##id(    \
      {#id, group, title, tiers}, &uwbams_scenario_##id);                    \
  static int uwbams_scenario_##id(::uwbams::runner::RunContext& ctx)

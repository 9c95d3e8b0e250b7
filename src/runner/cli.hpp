// cli.hpp — the uwbams_run command-line driver.
//
//   uwbams_run --list [--group=bench]
//   uwbams_run fig6_ber --scale=fast --jobs=8 --out=results/
//   uwbams_run --all --scale=fast
//
// Scale resolution: the --scale flag, else "default" (the UWBAMS_FAST /
// UWBAMS_FULL env fallback from PR 1 was retired in PR 9).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/registry.hpp"
#include "runner/scenario.hpp"

namespace uwbams::runner {

// The SCALES column of `--list`: the scenario's own fast|default|full tier
// annotation, or the generic tier names when it declared none.
inline std::string scales_label(const ScenarioInfo& info) {
  return info.tiers.empty() ? "fast|default|full" : info.tiers;
}

struct CliOptions {
  bool help = false;
  bool list = false;
  bool all = false;
  bool equiv_check = false;      // compare two golden_stats.json files
  std::string group;             // filter for --list / --all
  Scale scale = Scale::kDefault;
  bool scale_set = false;        // true when --scale was given
  core::ExactnessTier tier = core::ExactnessTier::kBitExact;
  std::string golden;            // golden_stats.json to gate the run against
  int jobs = 1;                  // 0 = hardware concurrency
  std::uint64_t seed = 1;
  std::string out_dir;           // empty = stdout only
  std::string fault_plan;        // JSON fault plan (also UWBAMS_FAULT_PLAN)
  std::string checkpoint;        // checkpoint root; "" disables
  bool resume = false;           // resume from --checkpoint
  int retries = 1;               // task retries before quarantine
  std::vector<std::string> scenarios;  // or the two files of --equiv-check
};

// The --help text; its --group line lists the registered groups.
std::string usage();

// Parses argv into `out`. Returns false (with a message on stderr) on
// malformed input.
bool parse_cli(int argc, const char* const* argv, CliOptions* out);

// Full driver: parse, resolve scale, select scenarios, run them.
// Returns a process exit code.
int run_cli(int argc, const char* const* argv);

}  // namespace uwbams::runner

// Golden-stats regression gate: re-runs the three pinned scenarios
// (fig6_ber, yield_report, ranging_network) in-process at the fast scale
// with the default bit_exact tier and seed 1 — exactly the configuration
// tools/refresh_golden.sh pins — and holds their golden_stats.json against
// tests/golden/. Because the run is bit_exact and the serialization is
// canonical (sorted keys, %.17g), the regenerated artifact must be
// byte-identical, not merely statistically equivalent; a diff here means
// the physics changed and the golden needs a deliberate refresh:
//
//   tools/refresh_golden.sh   (one command, commit the diff it leaves)
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/parallel.hpp"
#include "core/equiv.hpp"
#include "runner/registry.hpp"
#include "runner/sink.hpp"

#ifndef UWBAMS_GOLDEN_DIR
#error "UWBAMS_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

using namespace uwbams;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs a registered scenario the way the CLI does (fast scale, one
// worker, no output directory; seed 1 unless given) and returns the sink
// it filled.
int run_scenario(const std::string& name, runner::ResultSink* sink,
                 std::uint64_t seed = 1) {
  const auto* s = runner::ScenarioRegistry::instance().find(name);
  if (s == nullptr) {
    ADD_FAILURE() << "scenario '" << name << "' is not registered";
    return -1;
  }
  base::ParallelRunner pool(1);
  runner::RunContext ctx{name, runner::Scale::kFast, pool.jobs(),
                         seed, *sink,               pool,
                         core::ExactnessTier::kBitExact};
  return s->fn(ctx);
}

class GoldenStats : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenStats, FastRunReproducesPinnedGolden) {
  const std::string name = GetParam();
  const std::string pinned =
      read_file(std::string(UWBAMS_GOLDEN_DIR) + "/" + name +
                ".golden_stats.json");
  ASSERT_FALSE(pinned.empty())
      << "tests/golden/" << name << ".golden_stats.json is missing "
      << "(run tools/refresh_golden.sh)";

  runner::ResultSink sink(name, "");
  ASSERT_EQ(run_scenario(name, &sink), 0) << name << " scenario failed";
  ASSERT_FALSE(sink.golden_stats().empty())
      << name << " registered no golden stats";

  // The statistical gate must hold against the pinned golden...
  const auto report =
      core::compare_stats(core::StatArtifact::from_json(pinned),
                          core::StatArtifact::from_json(sink.golden_stats()));
  EXPECT_TRUE(report.passed) << report.to_text();

  // ...and under bit_exact the canonical serialization pins the run down
  // to the byte, so drift below the statistical thresholds is caught too.
  EXPECT_EQ(sink.golden_stats(), pinned)
      << "bit_exact fast run no longer reproduces the pinned golden; if "
         "the change is intentional, run tools/refresh_golden.sh and "
         "commit the refreshed files";
}

// On seed 15 no ppm point of twr_clock acquires, which leaves no slope to
// fit: the scenario must report a failed check, not throw, and a point
// without an acquired exchange must not read like a perfect measurement.
TEST(AcceptanceChecks, TwrClockWithoutTwoPpmPointsFailsCleanly) {
  runner::ResultSink sink("twr_clock", "");
  sink.set_quiet(true);
  sink.enable_capture();
  int rc = -1;
  EXPECT_NO_THROW(rc = run_scenario("twr_clock", &sink, 15));
  EXPECT_EQ(rc, 1);

  std::string csv;
  for (const auto& [name, content] : sink.captured())
    if (name == "bias_vs_ppm.csv") csv = content;
  ASSERT_FALSE(csv.empty()) << "twr_clock wrote no bias_vs_ppm.csv";
  // Columns: ppm_b, mean_raw_m, bias_m, mean_compensated_m, failures. The
  // fast tier runs 2 exchanges per point, so a dead point has failures=2.
  std::istringstream rows(csv);
  std::string row;
  std::getline(rows, row);  // header
  int dead = 0;
  while (std::getline(rows, row)) {
    std::vector<std::string> cells;
    std::istringstream cols(row);
    for (std::string cell; std::getline(cols, cell, ',');)
      cells.push_back(cell);
    ASSERT_EQ(cells.size(), 5u) << row;
    if (cells[4] != "2") continue;
    ++dead;
    for (std::size_t c = 1; c <= 3; ++c)
      EXPECT_EQ(cells[c], "nan") << "dead ppm point reads as a value: " << row;
  }
  EXPECT_GT(dead, 0) << csv;
}

INSTANTIATE_TEST_SUITE_P(PinnedScenarios, GoldenStats,
                         ::testing::Values("ranging_network", "yield_report",
                                           "fig6_ber"));

}  // namespace

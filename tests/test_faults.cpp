// Fault-tolerant execution layer (base/faults.hpp, base/parallel.hpp
// tolerant paths, base/checkpoint.hpp, core/montecarlo.hpp integration):
//   * FaultPlan round-trip and strict-parse rejection,
//   * fault decisions are deterministic in the key — the same plan
//     quarantines the same tasks for any --jobs value,
//   * retry semantics: fail_attempts faults clear on retry, persistent
//     faults exhaust retries into structured TaskFailure records,
//   * Monte-Carlo quarantine accounting (placeholder trials, yield
//     denominators, CSV columns) and the satellite fix that a failed
//     characterization captures the exception text,
//   * checkpoint/resume: byte-identical artifacts after full, partial and
//     corrupted-shard resumes, stale-checkpoint rejection, and quarantined
//     tasks being re-attempted (never checkpointed).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/checkpoint.hpp"
#include "base/faults.hpp"
#include "base/json.hpp"
#include "base/parallel.hpp"
#include "core/montecarlo.hpp"

namespace {

namespace fs = std::filesystem;
using namespace uwbams;

// Every test that installs a plan must clear it: the plan is process-wide
// state and would otherwise leak faults into unrelated tests.
class FaultsTest : public ::testing::Test {
 protected:
  void TearDown() override { base::faults::clear(); }
};

base::FaultRule make_rule(const std::string& site, double rate = 1.0) {
  base::FaultRule r;
  r.site = site;
  r.rate = rate;
  return r;
}

base::FaultPlan make_plan(std::vector<base::FaultRule> rules,
                          std::uint64_t seed = 1) {
  base::FaultPlan p;
  p.seed = seed;
  p.rules = std::move(rules);
  return p;
}

std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ------------------------------------------------------------- plan parsing

TEST(FaultPlan, JsonRoundTripIsExact) {
  base::FaultRule a = make_rule("runner.task", 0.25);
  a.fail_attempts = 1;
  a.message = "flaky worker";
  base::FaultRule b = make_rule("checkpoint.shard");
  b.abort = true;
  b.fire_after = 4;
  b.max_fires = 2;
  const base::FaultPlan plan = make_plan({a, b}, 77);

  const base::FaultPlan back = base::FaultPlan::from_json(plan.to_json());
  EXPECT_EQ(back.seed, plan.seed);
  ASSERT_EQ(back.rules.size(), plan.rules.size());
  EXPECT_EQ(back.rules[0], plan.rules[0]);
  EXPECT_EQ(back.rules[1], plan.rules[1]);
  // Canonical serialization: a second round trip is byte-identical.
  EXPECT_EQ(back.to_json(), plan.to_json());
}

TEST(FaultPlan, StrictParseRejectsMistakes) {
  // Unknown or missing schema.
  EXPECT_THROW(base::FaultPlan::from_json(R"({"rules":[]})"),
               std::runtime_error);
  EXPECT_THROW(
      base::FaultPlan::from_json(R"({"schema":"nope/9","rules":[]})"),
      std::runtime_error);
  const std::string head = R"({"schema":"uwbams.fault_plan/1","rules":[)";
  // Unknown site.
  EXPECT_THROW(
      base::FaultPlan::from_json(head + R"({"site":"bogus.site"}]})"),
      std::runtime_error);
  // Unknown rule key (typo'd plans must fail loudly, not silently no-op).
  EXPECT_THROW(base::FaultPlan::from_json(
                   head + R"({"site":"runner.task","rat":0.5}]})"),
               std::runtime_error);
  // Bad action vocabulary.
  EXPECT_THROW(base::FaultPlan::from_json(
                   head + R"({"site":"runner.task","action":"retry"}]})"),
               std::runtime_error);
  // Out-of-range values.
  EXPECT_THROW(base::FaultPlan::from_json(
                   head + R"({"site":"runner.task","rate":1.5}]})"),
               std::runtime_error);
  EXPECT_THROW(base::FaultPlan::from_json(
                   head + R"({"site":"runner.task","fail_attempts":0}]})"),
               std::runtime_error);
  // A correct minimal plan parses.
  const base::FaultPlan ok =
      base::FaultPlan::from_json(head + R"({"site":"runner.task"}]})");
  ASSERT_EQ(ok.rules.size(), 1u);
  EXPECT_EQ(ok.rules[0].rate, 1.0);
}

TEST(FaultPlan, KnownSitesCoverTheProbedVocabulary) {
  const auto& sites = base::faults::known_sites();
  for (const char* s : {"runner.task", "spice.nonconverge", "sink.write",
                        "net.calibrate", "netscale.measure",
                        "checkpoint.shard"}) {
    bool found = false;
    for (const auto& k : sites) found = found || k == s;
    EXPECT_TRUE(found) << "missing site " << s;
  }
}

TEST(FaultPlan, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(base::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(base::fnv1a64("runner.task"), base::fnv1a64("sink.write"));
  // The mismatch sub-streams of spice::ModelVariation use their own basis.
  EXPECT_EQ(base::fnv1a64("", 1469598103934665603ULL), 1469598103934665603ULL);
  EXPECT_EQ(base::fnv1a64("m1", 1469598103934665603ULL), 0x9bd4a600c67d91a1ULL);
}

// -------------------------------------------------------------- fault probes

TEST_F(FaultsTest, ProbeIsNoOpWithoutPlanAndFiresWithOne) {
  EXPECT_FALSE(base::faults::active());
  EXPECT_NO_THROW(base::faults::check("sink.write", 1));
  base::faults::install(make_plan({make_rule("sink.write")}));
  EXPECT_TRUE(base::faults::active());
  EXPECT_THROW(base::faults::check("sink.write", 1), base::FaultInjected);
  EXPECT_NO_THROW(base::faults::check("runner.task", 1));  // other site
  base::faults::clear();
  EXPECT_NO_THROW(base::faults::check("sink.write", 1));
}

TEST_F(FaultsTest, InjectedMessageNamesTheSite) {
  base::FaultRule r = make_rule("net.calibrate");
  r.message = "exchange timed out";
  base::faults::install(make_plan({r}));
  try {
    base::faults::check("net.calibrate", 9);
    FAIL() << "expected FaultInjected";
  } catch (const base::FaultInjected& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("exchange timed out"), std::string::npos);
    EXPECT_NE(what.find("[site=net.calibrate]"), std::string::npos);
  }
}

TEST_F(FaultsTest, FailAttemptsGatesOnAttemptScope) {
  base::FaultRule r = make_rule("sink.write");
  r.fail_attempts = 1;  // fire on attempt 0 only
  base::faults::install(make_plan({r}));
  EXPECT_EQ(base::faults::current_attempt(), 0);
  EXPECT_THROW(base::faults::check("sink.write", 5), base::FaultInjected);
  {
    base::faults::AttemptScope retry(1);
    EXPECT_EQ(base::faults::current_attempt(), 1);
    EXPECT_NO_THROW(base::faults::check("sink.write", 5));
  }
  EXPECT_EQ(base::faults::current_attempt(), 0);
  EXPECT_THROW(base::faults::check("sink.write", 5), base::FaultInjected);
}

TEST_F(FaultsTest, FireAfterAndMaxFiresCountMatches) {
  base::FaultRule r = make_rule("checkpoint.shard");
  r.fire_after = 2;
  r.max_fires = 2;
  base::faults::install(make_plan({r}));
  // Matches 1-2 skipped, 3-4 fire, 5+ exhausted.
  EXPECT_NO_THROW(base::faults::check("checkpoint.shard", 0));
  EXPECT_NO_THROW(base::faults::check("checkpoint.shard", 1));
  EXPECT_THROW(base::faults::check("checkpoint.shard", 2),
               base::FaultInjected);
  EXPECT_THROW(base::faults::check("checkpoint.shard", 3),
               base::FaultInjected);
  EXPECT_NO_THROW(base::faults::check("checkpoint.shard", 4));
  EXPECT_NO_THROW(base::faults::check("checkpoint.shard", 5));
}

TEST_F(FaultsTest, AbortRuleExitsLikeAKill) {
  base::FaultRule r = make_rule("checkpoint.shard");
  r.abort = true;
  base::faults::install(make_plan({r}));
  EXPECT_EXIT(base::faults::check("checkpoint.shard", 0),
              ::testing::ExitedWithCode(43), "aborting at site");
}

// ------------------------------------------------- tolerant runner semantics

TEST_F(FaultsTest, SameFaultSetForAnyJobCount) {
  constexpr std::size_t kTasks = 32;
  base::faults::install(make_plan({make_rule("runner.task", 0.5)}, 3));

  // Predict the fired set from the probe itself: the decision depends on
  // (plan seed, site, rule index, key) alone.
  std::set<std::size_t> predicted;
  for (std::size_t i = 0; i < kTasks; ++i) {
    try {
      base::faults::check("runner.task", i);
    } catch (const base::FaultInjected&) {
      predicted.insert(i);
    }
  }
  ASSERT_GT(predicted.size(), 0u) << "pick a plan seed that fires";
  ASSERT_LT(predicted.size(), kTasks) << "pick a plan seed that spares some";

  base::TaskPolicy no_retry;
  no_retry.max_retries = 0;
  for (const int jobs : {1, 8}) {
    const base::ParallelRunner pool(jobs);
    const auto failures =
        pool.for_each_tolerant(kTasks, [](std::size_t) {}, no_retry);
    std::set<std::size_t> fired;
    for (const auto& f : failures) {
      fired.insert(f.index);
      EXPECT_EQ(f.attempts, 1);
      EXPECT_NE(f.reason.find("[site=runner.task]"), std::string::npos);
    }
    EXPECT_EQ(fired, predicted) << "jobs=" << jobs;
  }
}

TEST_F(FaultsTest, RetryClearsAttemptScopedFaults) {
  base::FaultRule r = make_rule("runner.task");
  r.fail_attempts = 1;  // every task fails once, then succeeds
  base::faults::install(make_plan({r}));
  base::TaskPolicy policy;
  policy.max_retries = 1;
  std::vector<int> attempts(6, 0);
  const auto failures = base::ParallelRunner(3).for_each_tolerant(
      attempts.size(),
      [&](std::size_t i) {
        attempts[i] = base::faults::current_attempt() + 1;
      },
      policy);
  EXPECT_TRUE(failures.empty());
  for (const int a : attempts) EXPECT_EQ(a, 2);  // succeeded on the retry
}

TEST_F(FaultsTest, PersistentFaultExhaustsRetriesIntoQuarantine) {
  base::faults::install(make_plan({make_rule("runner.task")}));
  base::TaskPolicy policy;
  policy.max_retries = 2;
  const auto failures = base::ParallelRunner(2).for_each_tolerant(
      4, [](std::size_t) {}, policy);
  ASSERT_EQ(failures.size(), 4u);
  for (std::size_t k = 0; k < failures.size(); ++k) {
    EXPECT_EQ(failures[k].index, k);  // sorted by index
    EXPECT_EQ(failures[k].attempts, 3);
    EXPECT_FALSE(failures[k].reason.empty());
  }
}

TEST(ParallelRunner, ForEachAggregatesMultipleFailures) {
  const base::ParallelRunner pool(4);
  try {
    pool.for_each(8, [](std::size_t i) {
      if (i % 2 == 1) throw std::runtime_error("odd task " +
                                               std::to_string(i));
    });
    FAIL() << "expected aggregate failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4 of 8 tasks failed"), std::string::npos);
    EXPECT_NE(what.find("task 1: odd task 1"), std::string::npos);
  }
}

// ------------------------------------------------------- checkpoint journal

TEST(Checkpoint, HexAndHashHelpers) {
  EXPECT_EQ(base::hex_u64(0), "0x0000000000000000");
  EXPECT_EQ(base::hex_u64(0xdeadbeefULL), "0x00000000deadbeef");
  EXPECT_EQ(base::CheckpointStore::shard_name(7), "shard_000007.json");
}

TEST(Checkpoint, RecordResumeAndStaleRejection) {
  const std::string dir = temp_dir("ckpt_unit");
  // Payloads must be JSON: resume re-validates each shard and treats
  // anything unparseable as torn.
  const std::string payload = R"({"value": 1})";
  {
    base::CheckpointStore st(dir, "run-a", 0x123, 3, false);
    EXPECT_EQ(st.completed_count(), 0u);
    st.record(1, payload);
    EXPECT_TRUE(st.completed(1));
    EXPECT_EQ(st.payload(1), payload);
    EXPECT_TRUE(fs::exists(fs::path(dir) / "manifest.json"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "shard_000001.json"));
  }
  {
    // Resume with a matching identity loads the completed shard.
    base::CheckpointStore st(dir, "run-a", 0x123, 3, true);
    EXPECT_EQ(st.completed_count(), 1u);
    EXPECT_TRUE(st.completed(1));
    EXPECT_FALSE(st.completed(0));
    EXPECT_EQ(st.payload(1), payload);
    EXPECT_EQ(st.payload(0), "");
  }
  // A different content key or task count is a *different run*: rejected.
  EXPECT_THROW(base::CheckpointStore(dir, "run-a", 0x124, 3, true),
               std::runtime_error);
  EXPECT_THROW(base::CheckpointStore(dir, "run-a", 0x123, 4, true),
               std::runtime_error);
  // A fresh (non-resume) open wipes the previous journal.
  {
    base::CheckpointStore st(dir, "run-b", 0x999, 3, false);
    EXPECT_EQ(st.completed_count(), 0u);
  }
  base::CheckpointStore st(dir, "run-b", 0x999, 3, true);
  EXPECT_EQ(st.completed_count(), 0u) << "stale shard survived the wipe";
}

TEST(Checkpoint, ResumeWithoutManifestStartsFresh) {
  const std::string dir = temp_dir("ckpt_fresh");
  base::CheckpointStore st(dir, "run", 1, 2, true);  // nothing to resume
  EXPECT_EQ(st.completed_count(), 0u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "manifest.json"));
}

// -------------------------------------------------- Monte-Carlo integration

core::McConfig small_mc(std::uint64_t seed, int trials) {
  core::McConfig cfg;
  cfg.trials = trials;
  cfg.seed = seed;
  cfg.sigma_scale = 1.0;
  cfg.characterize.points_per_decade = 4;
  cfg.characterize.measure_linear_range = false;
  cfg.characterize.measure_slew = true;
  return cfg;
}

core::McRunOptions ckpt_opts(const std::string& dir, bool resume) {
  core::McRunOptions opts;
  opts.checkpoint_dir = dir;
  opts.resume = resume;
  opts.run_tag = "test_faults|fast|bit_exact";
  return opts;
}

TEST(MonteCarloTrialJson, RoundTripPreservesEveryField) {
  core::McTrial t = core::run_mc_trial(small_mc(5, 1), 0,
                                       core::YieldCriteria{});
  ASSERT_TRUE(t.converged);
  // Exercise the fields a real converged trial leaves at defaults,
  // including a seed above 2^53 (would corrupt as a JSON double).
  t.seed = 0xdeadbeefcafebabeULL;
  t.failure_reason = "it broke";
  t.attempts = 3;
  t.quarantined = true;
  t.ber = 0.015625;

  const core::McTrial back = core::trial_from_json(core::trial_to_json(t));
  EXPECT_EQ(back.index, t.index);
  EXPECT_EQ(back.seed, t.seed);
  EXPECT_EQ(back.corner.process, t.corner.process);
  EXPECT_EQ(back.corner.vdd, t.corner.vdd);
  EXPECT_EQ(back.corner.temp_c, t.corner.temp_c);
  EXPECT_EQ(back.converged, t.converged);
  EXPECT_EQ(back.dc_gain_db, t.dc_gain_db);
  EXPECT_EQ(back.f_pole1, t.f_pole1);
  EXPECT_EQ(back.f_pole2, t.f_pole2);
  EXPECT_EQ(back.unity_gain_freq, t.unity_gain_freq);
  EXPECT_EQ(back.input_linear_range, t.input_linear_range);
  EXPECT_EQ(back.slew_rate, t.slew_rate);
  EXPECT_EQ(back.fit_rms_error_db, t.fit_rms_error_db);
  EXPECT_EQ(back.params.dc_gain_db, t.params.dc_gain_db);
  EXPECT_EQ(back.params.f_pole1, t.params.f_pole1);
  EXPECT_EQ(back.params.f_pole2, t.params.f_pole2);
  EXPECT_EQ(back.params.input_clamp, t.params.input_clamp);
  EXPECT_EQ(back.ber, t.ber);
  EXPECT_EQ(back.violations, t.violations);
  EXPECT_EQ(back.pass, t.pass);
  EXPECT_EQ(back.failure_reason, t.failure_reason);
  EXPECT_EQ(back.attempts, t.attempts);
  EXPECT_EQ(back.quarantined, t.quarantined);
}

TEST_F(FaultsTest, FailedCharacterizationCapturesTheReason) {
  base::FaultRule r = make_rule("spice.nonconverge");
  r.message = "solver diverged";
  base::faults::install(make_plan({r}));
  const core::McTrial t = core::run_mc_trial(small_mc(5, 1), 0,
                                             core::YieldCriteria{});
  EXPECT_FALSE(t.converged);
  EXPECT_FALSE(t.quarantined);  // failed in-task, not quarantined
  EXPECT_NE(t.failure_reason.find("solver diverged"), std::string::npos);
  EXPECT_TRUE(t.violations & core::kViolNoConverge);
  EXPECT_FALSE(t.pass);
}

TEST_F(FaultsTest, McQuarantineIsDeterministicAcrossJobs) {
  const auto cfg = small_mc(11, 8);
  const core::YieldCriteria crit{};
  base::faults::install(make_plan({make_rule("runner.task", 0.5)}, 3));

  core::McRunOptions opts;  // no checkpoint, default policy
  const auto r1 = core::run_monte_carlo(cfg, crit, base::ParallelRunner(1),
                                        opts);
  const auto r8 = core::run_monte_carlo(cfg, crit, base::ParallelRunner(8),
                                        opts);
  ASSERT_GT(r1.summary.quarantined, 0);
  ASSERT_LT(r1.summary.quarantined, cfg.trials);
  EXPECT_EQ(r1.summary.quarantined, r8.summary.quarantined);
  // Quarantined work feeds the yield denominator as no-converge failures.
  EXPECT_GE(r1.summary.fail_no_converge, r1.summary.quarantined);
  EXPECT_EQ(r1.summary.trials, cfg.trials);
  // The artifact CI byte-compares across --jobs stays byte-identical even
  // with injected quarantines.
  const std::string csv1 = core::trials_to_csv(r1.trials);
  EXPECT_EQ(csv1, core::trials_to_csv(r8.trials));
  EXPECT_EQ(core::summary_to_json(r1), core::summary_to_json(r8));
  // Structured failure records surface in the CSV.
  EXPECT_NE(csv1.find("attempts,quarantined,failure_reason"),
            std::string::npos);
  EXPECT_NE(csv1.find("[site=runner.task]"), std::string::npos);
  for (const auto& t : r1.trials) {
    if (!t.quarantined) continue;
    EXPECT_FALSE(t.converged);
    EXPECT_FALSE(t.pass);
    EXPECT_TRUE(t.violations & core::kViolNoConverge);
    EXPECT_EQ(t.attempts, 2);  // default policy: one retry
    EXPECT_FALSE(t.failure_reason.empty());
  }
}

TEST_F(FaultsTest, McRetrySucceedsWithoutQuarantine) {
  base::FaultRule r = make_rule("runner.task");
  r.fail_attempts = 1;
  base::faults::install(make_plan({r}));
  core::McRunOptions opts;
  opts.policy.max_retries = 1;
  const auto res = core::run_monte_carlo(small_mc(7, 3),
                                         core::YieldCriteria{},
                                         base::ParallelRunner(2), opts);
  EXPECT_EQ(res.summary.quarantined, 0);
  EXPECT_EQ(res.summary.fail_no_converge, 0);
  for (const auto& t : res.trials) {
    EXPECT_TRUE(t.converged);
    EXPECT_EQ(t.attempts, 2);  // honest accounting: succeeded on the retry
  }
}

TEST(MonteCarloCheckpoint, ResumeIsByteIdenticalToUninterrupted) {
  const auto cfg = small_mc(11, 4);
  const core::YieldCriteria crit{};
  const base::ParallelRunner serial(1);
  const base::ParallelRunner pool8(8);

  const auto clean = core::run_monte_carlo(cfg, crit, serial);
  const std::string clean_csv = core::trials_to_csv(clean.trials);
  const std::string clean_json = core::summary_to_json(clean);

  // A checkpointing run changes no bytes of the artifacts.
  const std::string dir = temp_dir("mc_ckpt");
  const auto fresh =
      core::run_monte_carlo(cfg, crit, pool8, ckpt_opts(dir, false));
  EXPECT_EQ(core::trials_to_csv(fresh.trials), clean_csv);
  EXPECT_EQ(core::summary_to_json(fresh), clean_json);

  // Fully-checkpointed resume (different job count than the writer).
  const auto resumed =
      core::run_monte_carlo(cfg, crit, serial, ckpt_opts(dir, true));
  EXPECT_EQ(core::trials_to_csv(resumed.trials), clean_csv);
  EXPECT_EQ(core::summary_to_json(resumed), clean_json);

  // Partial checkpoint: a missing shard and a torn (garbage) shard are
  // recomputed, still byte-identical.
  fs::remove(fs::path(dir) / base::CheckpointStore::shard_name(1));
  {
    std::ofstream torn(fs::path(dir) / base::CheckpointStore::shard_name(2),
                       std::ios::trunc);
    torn << "{ not json";
  }
  const auto partial =
      core::run_monte_carlo(cfg, crit, pool8, ckpt_opts(dir, true));
  EXPECT_EQ(core::trials_to_csv(partial.trials), clean_csv);
  EXPECT_EQ(core::summary_to_json(partial), clean_json);
}

TEST(MonteCarloCheckpoint, StaleCheckpointIsRejectedOnResume) {
  const auto cfg = small_mc(11, 2);
  const core::YieldCriteria crit{};
  const base::ParallelRunner serial(1);
  const std::string dir = temp_dir("mc_stale");
  (void)core::run_monte_carlo(cfg, crit, serial, ckpt_opts(dir, false));

  // Different seed -> different content key -> different run: resuming
  // against the old journal must throw, never mix results.
  EXPECT_THROW(core::run_monte_carlo(small_mc(12, 2), crit, serial,
                                     ckpt_opts(dir, true)),
               std::runtime_error);
  // Different run tag (scenario|scale|tier) is a different run too.
  auto other_tag = ckpt_opts(dir, true);
  other_tag.run_tag = "test_faults|fast|stat_equiv";
  EXPECT_THROW(core::run_monte_carlo(cfg, crit, serial, other_tag),
               std::runtime_error);
  // The matching identity still resumes fine.
  EXPECT_NO_THROW(core::run_monte_carlo(cfg, crit, serial,
                                        ckpt_opts(dir, true)));
}

TEST_F(FaultsTest, QuarantinedTasksAreReattemptedOnResume) {
  const auto cfg = small_mc(21, 8);
  const core::YieldCriteria crit{};
  const base::ParallelRunner serial(1);

  const auto clean = core::run_monte_carlo(cfg, crit, serial);
  const std::string clean_csv = core::trials_to_csv(clean.trials);

  // First pass with injected task failures: the survivors checkpoint,
  // the quarantined tasks must NOT (their placeholders are not results).
  const std::string dir = temp_dir("mc_requar");
  base::faults::install(make_plan({make_rule("runner.task", 0.5)}, 3));
  const auto faulted =
      core::run_monte_carlo(cfg, crit, serial, ckpt_opts(dir, false));
  ASSERT_GT(faulted.summary.quarantined, 0);
  ASSERT_LT(faulted.summary.quarantined, cfg.trials);
  for (const auto& t : faulted.trials) {
    const bool shard_exists = fs::exists(
        fs::path(dir) /
        base::CheckpointStore::shard_name(static_cast<std::size_t>(t.index)));
    EXPECT_EQ(shard_exists, !t.quarantined) << "trial " << t.index;
  }

  // Second pass with the fault gone (a transient outage healed): resume
  // re-attempts exactly the quarantined tasks and the final artifact is
  // byte-identical to a run that never failed.
  base::faults::clear();
  const auto healed =
      core::run_monte_carlo(cfg, crit, serial, ckpt_opts(dir, true));
  EXPECT_EQ(healed.summary.quarantined, 0);
  EXPECT_EQ(core::trials_to_csv(healed.trials), clean_csv);
  EXPECT_EQ(core::summary_to_json(healed), core::summary_to_json(clean));
}

}  // namespace

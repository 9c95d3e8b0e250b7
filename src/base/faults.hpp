/// @file faults.hpp
/// @brief Deterministic fault injection for robustness testing.
///
/// Long sweeps must survive task failures, and the failure paths that make
/// that possible (retry, quarantine, checkpoint/resume) need to be
/// *testable* — which means failures must be injectable on demand and
/// reproducible. A FaultPlan names the failure sites the codebase exposes
/// (solver non-convergence, task-level exceptions in ParallelRunner,
/// artifact-write errors, surrogate-exchange failures, checkpoint shard
/// writes) and, per site, the probability and shape of the injected fault.
///
/// Determinism contract (same as every other stochastic layer in the
/// repo): whether a probe fires is decided by
///   Rng(derive_seed(derive_seed(derive_seed(plan.seed, fnv1a64(site)),
///                   rule_index), key)).uniform() < rate
/// where `key` is a caller-supplied value derived from the *work item*
/// (trial seed, task index, filename hash) — never from execution order or
/// worker id. The same plan + seed fires the same faults for any `--jobs`
/// value, so CI can byte-compare fault-injected artifacts across job
/// counts exactly like clean runs.
///
/// The exception: rules using `fire_after` / `max_fires` count *process-
/// wide* matches in arrival order, which is racy across workers by design.
/// They exist for abort-style kill faults ("die after ~N checkpoint
/// shards"), where the byte-determinism of the killed run is irrelevant —
/// only the resumed run's bytes are gated.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace uwbams::base {

/// FNV-1a 64-bit hash. Used to key fault sites and artifact names into the
/// derive_seed stream space, and as the checkpoint content hash — stable
/// across platforms and builds by construction. `basis` is the standard
/// offset basis; only streams pinned under another one pass their own.
std::uint64_t fnv1a64(std::string_view text,
                      std::uint64_t basis = 0xcbf29ce484222325ULL);

/// One injection rule of a FaultPlan.
struct FaultRule {
  std::string site;          ///< one of faults::known_sites()
  double rate = 1.0;         ///< per-probe fire probability in [0, 1]
  /// Fire only while the probe runs inside attempt < fail_attempts of a
  /// retry loop (-1 = every attempt). `fail_attempts: 1` makes a fault
  /// that a single retry deterministically clears — the retry-then-succeed
  /// path — while the default makes retries refire (retry-then-quarantine).
  int fail_attempts = -1;
  bool abort = false;        ///< action "abort": _Exit instead of throwing
  /// Skip the first N rate-passing matches (process-wide, arrival order) —
  /// "kill after ~N checkpoint shards". 0 = fire from the first match.
  std::uint64_t fire_after = 0;
  std::int64_t max_fires = -1;  ///< stop after this many fires (-1 = unlimited)
  std::string message;       ///< optional custom exception text

  bool operator==(const FaultRule&) const = default;
};

/// A schema-versioned, JSON-serializable set of fault rules.
struct FaultPlan {
  static constexpr const char* kSchema = "uwbams.fault_plan/1";

  std::uint64_t seed = 1;  ///< decision stream seed (independent of --seed)
  std::vector<FaultRule> rules;

  /// Strict parse: rejects unknown schema versions, unknown rule keys,
  /// unknown sites and out-of-range values (std::runtime_error /
  /// JsonError), so a stale or mistyped plan fails loudly.
  static FaultPlan from_json(const std::string& text);
  /// Canonical serialization (sorted keys, %.17g): from_json(to_json(p))
  /// round-trips exactly.
  std::string to_json() const;
};

/// Thrown by an injected `throw`-action fault.
class FaultInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace faults {

/// The closed site vocabulary. Adding an injection probe means adding its
/// name here (from_json validates against this list) and documenting it in
/// docs/robustness.md.
const std::vector<std::string>& known_sites();

/// Installs `plan` process-wide (replacing any previous plan). Probes are
/// no-ops until a plan is installed.
void install(const FaultPlan& plan);
/// Removes the installed plan.
void clear();
/// True when a plan is installed.
bool active();

/// The injection probe. No-op without an installed plan; with one,
/// evaluates every rule matching `site` against `key` and either returns
/// (no fire), throws FaultInjected, or — for abort rules — terminates the
/// process via _Exit (simulating a kill: no destructors, no flushes).
void check(const char* site, std::uint64_t key);

/// The current retry attempt (0-based) of the innermost AttemptScope on
/// this thread; 0 outside any scope. Lets sweep layers report honest
/// per-task attempt counts.
int current_attempt();

/// RAII attempt marker set by retry loops (ParallelRunner) so
/// FaultRule::fail_attempts can distinguish first runs from retries.
class AttemptScope {
 public:
  explicit AttemptScope(int attempt);
  ~AttemptScope();
  AttemptScope(const AttemptScope&) = delete;
  AttemptScope& operator=(const AttemptScope&) = delete;

 private:
  int prev_;
};

}  // namespace faults

}  // namespace uwbams::base

// Deterministic retry/escalation ladder for failing transients.
//
// A corner whose solve throws robust::SolveError is retried under
// cumulatively stronger numerics — halve dt, force partial pivoting,
// raise gmin and the iteration budget, tighten Newton damping — until an
// attempt succeeds or the ladder is exhausted. The stage sequence is a
// pure function of the attempt number and the base options, so retries
// are identical for any worker count or scheduling order. Per-attempt
// wall-clock deadlines ride the same mechanism: each attempt gets a fresh
// robust::Deadline the engines check cooperatively.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "circuit/engine.hpp"
#include "robust/error.hpp"

namespace emc::robust {

struct RetryPolicy {
  /// Off = exactly one attempt, exceptions pass through unchanged (the
  /// pre-robustness path, byte-identical when nothing fails).
  bool enabled = true;

  /// Base attempt + escalation stages; clamped to [1, kMaxLadderStages].
  int max_attempts = 5;

  /// Per-ATTEMPT wall-clock budget (seconds); 0 disables. A timed-out
  /// attempt counts as failed and escalates like any other failure. Real
  /// wall-clock expiry is machine-dependent — leave 0 where byte-identical
  /// summaries across runs are gated.
  double deadline_s = 0.0;

  /// Allow the ladder to halve dt. Pipelines whose engine step is pinned
  /// (the emission transient must run at the macromodel's sampling time
  /// Ts) set false: the "dt/2" stage then becomes a plain re-attempt at
  /// the base step and later stages keep base.dt while still adding the
  /// pivoting, gmin and damping escalations.
  bool refine_dt = true;
};

/// Base attempt + 4 escalation stages.
inline constexpr int kMaxLadderStages = 5;

/// Stage name for attempt `a` (0-based): "base", "dt/2", "pivot",
/// "gmin", "damp".
const char* retry_stage_name(int attempt);

/// The options attempt `attempt` runs with — cumulative escalation:
///   0: base verbatim
///   1: dt/2
///   2: + partial_pivot = true (every factorization pivots)
///   3: + gmin raised to >= 1e-9, max_newton doubled
///   4: + dx_limit quartered (stronger damping), max_newton doubled again
ckt::TransientOptions escalate(const ckt::TransientOptions& base, int attempt);

struct AttemptRecord {
  int attempt = 0;
  std::string stage;  ///< retry_stage_name(attempt)
  std::string error;  ///< what() of the failure
};

struct RetryOutcome {
  int attempts = 0;        ///< attempts actually run (>= 1)
  bool recovered = false;  ///< success after at least one failed attempt
  std::vector<AttemptRecord> failures;  ///< one per failed attempt
};

/// Run `body(options)` under the ladder. The body must rebuild all of its
/// state per call (fresh circuit, fresh sinks) — a failed attempt leaves
/// nothing behind. Only robust::SolveError failures are retried; any
/// other exception propagates immediately. When every attempt fails, the
/// final SolveError is rethrown with info().attempts set and the ladder
/// history appended to info().detail.
RetryOutcome run_with_escalation(
    const RetryPolicy& policy, const ckt::TransientOptions& base,
    const std::function<void(const ckt::TransientOptions&)>& body);

}  // namespace emc::robust

// Deterministic retry/escalation ladder for failing transients.
//
// A corner whose solve throws robust::SolveError is retried under
// cumulatively stronger numerics — force partial pivoting, raise gmin and
// the iteration budget, tighten Newton damping — until an attempt
// succeeds or the ladder is exhausted. No rung changes the time step:
// the emission transient is pinned to the macromodel's sampling time Ts,
// and a rung that repeated the base options would fail the same way. The stage sequence is a
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

  /// Per-ATTEMPT wall-clock budget (seconds); 0 disables. A timed-out
  /// attempt counts as failed and escalates like any other failure. Real
  /// wall-clock expiry is machine-dependent — leave 0 where byte-identical
  /// summaries across runs are gated.
  double deadline_s = 0.0;
};

/// Base attempt + 3 escalation stages: an enabled policy runs up to this
/// many attempts.
inline constexpr int kMaxLadderStages = 4;

/// Stage name for attempt `a` (0-based): "base", "pivot", "gmin", "damp".
const char* retry_stage_name(int attempt);

/// The options attempt `attempt` runs with — cumulative escalation, dt
/// always base.dt:
///   0: base verbatim
///   1: partial_pivot = true (every factorization pivots)
///   2: + gmin raised to >= 1e-9, max_newton doubled
///   3: + dx_limit quartered (stronger damping), max_newton doubled again
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

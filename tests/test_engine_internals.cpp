// Engine-internal behavior: TransientResult bounds checking, SolveStats
// accounting, and the cached-LU linear fast path (one Newton iteration per
// step, waveforms identical to the generic re-factorizing path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"

namespace ckt = emc::ckt;

namespace {

/// Step-driven RLC ladder: Vsrc -- R -- L -- node(out) -- C || R_load.
/// Purely linear, with enough state (L, C histories) to exercise the
/// companion-model rhs refresh under a frozen Jacobian.
int build_rlc(ckt::Circuit& c) {
  const int n1 = c.node("in");
  const int n2 = c.node("mid");
  const int out = c.node("out");
  c.add<ckt::VSource>(n1, 0, [](double t) { return t < 1e-9 ? 0.0 : 3.3; });
  c.add<ckt::Resistor>(n1, n2, 25.0);
  c.add<ckt::Inductor>(n2, out, 5e-9);
  c.add<ckt::Capacitor>(out, 0, 10e-12);
  c.add<ckt::Resistor>(out, 0, 1e3);
  return out;
}

ckt::TransientOptions rlc_options() {
  ckt::TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 10e-9;
  return opt;
}

}  // namespace

TEST(TransientResult, WaveformOutOfRangeIdThrows) {
  ckt::Circuit c;
  const int out = build_rlc(c);
  const auto res = ckt::run_transient(c, rlc_options());

  EXPECT_NO_THROW(res.waveform(0));    // ground: all-zero waveform
  EXPECT_NO_THROW(res.waveform(out));  // valid node
  // 3 nodes + 2 branch currents (VSource, Inductor) = 5 unknowns; id 6 is
  // past the end.
  EXPECT_THROW(res.waveform(6), std::out_of_range);
  EXPECT_THROW(res.waveform(1000), std::out_of_range);
}

TEST(TransientResult, GroundWaveformIsZero) {
  ckt::Circuit c;
  build_rlc(c);
  const auto res = ckt::run_transient(c, rlc_options());
  const auto gnd = res.waveform(0);
  for (std::size_t k = 0; k < gnd.size(); ++k) EXPECT_EQ(gnd[k], 0.0);
}

TEST(SolveStats, PopulatedByTransientRun) {
  ckt::Circuit c;
  build_rlc(c);
  const auto opt = rlc_options();
  const auto res = ckt::run_transient(c, opt);

  const long expected_steps =
      std::llround((opt.t_stop - opt.t_start) / opt.dt);
  EXPECT_EQ(res.stats.steps, expected_steps);
  EXPECT_GE(res.stats.total_newton_iters, res.stats.steps);
  EXPECT_EQ(res.stats.weak_steps, 0);
  // Result holds the initial state plus one record per step.
  EXPECT_EQ(res.steps(), static_cast<std::size_t>(expected_steps) + 1);
}

TEST(LinearFastPath, OneNewtonIterationPerStep) {
  // Regression: a purely linear circuit must ride the cached-LU fast path,
  // which solves each step with exactly one (exact) Newton iteration.
  ckt::Circuit c;
  build_rlc(c);
  const auto res = ckt::run_transient(c, rlc_options());
  EXPECT_EQ(res.stats.total_newton_iters, res.stats.steps);
  EXPECT_EQ(res.stats.weak_steps, 0);
}

TEST(LinearFastPath, MatchesGenericNewtonPath) {
  ckt::Circuit fast, ref;
  const int out_fast = build_rlc(fast);
  const int out_ref = build_rlc(ref);

  auto opt = rlc_options();
  opt.cache_lu = true;
  const auto res_fast = ckt::run_transient(fast, opt);
  opt.cache_lu = false;
  const auto res_ref = ckt::run_transient(ref, opt);

  ASSERT_EQ(res_fast.steps(), res_ref.steps());
  const auto wf = res_fast.waveform(out_fast);
  const auto wr = res_ref.waveform(out_ref);
  double max_dv = 0.0;
  for (std::size_t k = 0; k < wf.size(); ++k)
    max_dv = std::max(max_dv, std::abs(wf[k] - wr[k]));
  EXPECT_LT(max_dv, 1e-9);
}

TEST(LinearFastPath, NonlinearCircuitUsesGenericPath) {
  // A diode clamp makes the circuit nonlinear: Newton must iterate, so the
  // per-step iteration count exceeds one somewhere in the run.
  ckt::Circuit c;
  const int n1 = c.node();
  c.add<ckt::VSource>(n1, 0, [](double t) { return t < 1e-9 ? 0.0 : 3.3; });
  const int out = c.node();
  c.add<ckt::Resistor>(n1, out, 100.0);
  c.add<ckt::Diode>(out, 0);
  c.add<ckt::Capacitor>(out, 0, 1e-12);

  auto opt = rlc_options();
  const auto res = ckt::run_transient(c, opt);
  EXPECT_GT(res.stats.total_newton_iters, res.stats.steps);
}

namespace {

/// Ladder past ckt::kPivotBelowUnknowns, so the static-pivot kernel and
/// its symbolic analysis run: 66 unknowns (source node and branch, then a
/// node and an inductor branch per rung). Series-L/shunt-C rungs, or with
/// `shunt_l` series-R/shunt-LC rungs: equal sizes, different patterns.
int build_line(ckt::Circuit& c, bool shunt_l = false) {
  int prev = c.node();
  c.add<ckt::VSource>(prev, 0, [](double t) { return t < 1e-9 ? 0.0 : 3.3; });
  for (int k = 0; k < 32; ++k) {
    const int nk = c.node();
    if (shunt_l) {
      c.add<ckt::Resistor>(prev, nk, 2.0);
      c.add<ckt::Inductor>(nk, 0, 50e-9);
    } else {
      c.add<ckt::Inductor>(prev, nk, 1e-9);
    }
    c.add<ckt::Capacitor>(nk, 0, 0.4e-12);
    prev = nk;
  }
  if (!shunt_l) c.add<ckt::Resistor>(prev, 0, 50.0);
  return prev;
}

double max_waveform_delta(const ckt::TransientResult& a, const ckt::TransientResult& b,
                          int id) {
  const auto wa = a.waveform(id);
  const auto wb = b.waveform(id);
  EXPECT_EQ(wa.size(), wb.size());
  double max_dv = 0.0;
  for (std::size_t k = 0; k < wa.size(); ++k)
    max_dv = std::max(max_dv, std::abs(wa[k] - wb[k]));
  return max_dv;
}

}  // namespace

TEST(WorkspaceInvalidation, DenseCacheDroppedOnOptionChange) {
  // Reusing a workspace across runs with different dt or gmin must refactor
  // rather than reuse a stale cached LU: each run's waveforms must equal a
  // fresh-workspace run of the same configuration exactly.
  ckt::Circuit shared_c, fresh_c;
  const int out_shared = build_rlc(shared_c);
  const int out_fresh = build_rlc(fresh_c);

  ckt::NewtonWorkspace ws;
  auto opt = rlc_options();
  ckt::run_transient(shared_c, opt, ws);  // primes the dt = 25 ps cache

  for (const auto& [dt, gmin] : {std::pair{50e-12, 1e-12}, std::pair{50e-12, 1e-9}}) {
    opt.dt = dt;
    opt.gmin = gmin;
    const auto res = ckt::run_transient(shared_c, opt, ws);
    ckt::NewtonWorkspace fresh_ws;
    const auto ref = ckt::run_transient(fresh_c, opt, fresh_ws);
    EXPECT_EQ(max_waveform_delta(res, ref, out_shared), 0.0)
        << "dt=" << dt << " gmin=" << gmin;
    (void)out_fresh;
  }
}

TEST(WorkspaceInvalidation, SparseSymbolicSurvivesNumericDrop) {
  // Between runs the numeric factors are dropped but the symbolic analysis
  // (pattern-hash-validated) is reused: a second identical run re-factors
  // without re-analyzing, and an option change still matches a fresh run.
  ckt::Circuit c;
  const int out = build_line(c);
  ASSERT_GE(static_cast<std::size_t>(c.finalize()), ckt::kPivotBelowUnknowns);
  auto opt = rlc_options();

  ckt::NewtonWorkspace ws;
  ckt::run_transient(c, opt, ws);
  const auto& st = ws.sp_tr.lu.stats();
  EXPECT_EQ(st.analyses, 1);
  const long refactors_first = st.refactors;
  EXPECT_GT(refactors_first, 0);

  ckt::run_transient(c, opt, ws);
  EXPECT_EQ(st.analyses, 1);  // same topology: symbolic reused...
  EXPECT_GT(st.symbolic_reuses, 0);
  EXPECT_GT(st.refactors, refactors_first);  // ...but the numbers were redone

  opt.gmin = 1e-9;
  const auto res = ckt::run_transient(c, opt, ws);
  ckt::Circuit fresh_c;
  build_line(fresh_c);
  ckt::NewtonWorkspace fresh_ws;
  const auto ref = ckt::run_transient(fresh_c, opt, fresh_ws);
  EXPECT_EQ(max_waveform_delta(res, ref, out), 0.0);
}

TEST(WorkspaceInvalidation, TopologyChangeSameSizeReanalyzes) {
  // Equal unknown counts keep the workspace buffers, but a different
  // stamped pattern must trigger a fresh symbolic analysis and produce the
  // same waveforms as an unshared workspace.
  ckt::Circuit a, b, b_fresh;
  build_line(a);
  const int out_b = build_line(b, /*shunt_l=*/true);
  build_line(b_fresh, /*shunt_l=*/true);
  ASSERT_EQ(a.finalize(), b.finalize());
  ASSERT_GE(static_cast<std::size_t>(a.finalize()), ckt::kPivotBelowUnknowns);

  const auto opt = rlc_options();
  ckt::NewtonWorkspace ws;
  ckt::run_transient(a, opt, ws);
  EXPECT_EQ(ws.sp_tr.lu.stats().analyses, 1);

  const auto res = ckt::run_transient(b, opt, ws);
  EXPECT_EQ(ws.sp_tr.lu.stats().analyses, 2);

  ckt::NewtonWorkspace fresh_ws;
  const auto ref = ckt::run_transient(b_fresh, opt, fresh_ws);
  EXPECT_EQ(max_waveform_delta(res, ref, out_b), 0.0);
}

TEST(SparseSolver, MatchesDenseOnNonlinearCircuit) {
  // The default static-pivot kernel vs partial_pivot past
  // kPivotBelowUnknowns: the elimination orders round differently, but the
  // waveforms agree to solver tolerance in as many Newton iterations.
  ckt::Circuit static_c, pivot_c;
  int out = 0;
  for (ckt::Circuit* c : {&static_c, &pivot_c}) {
    out = build_line(*c);
    c->add<ckt::Diode>(out, 0);
  }
  ASSERT_GE(static_cast<std::size_t>(static_c.finalize()), ckt::kPivotBelowUnknowns);

  auto opt = rlc_options();
  const auto res_static = ckt::run_transient(static_c, opt);
  opt.partial_pivot = true;
  const auto res_pivot = ckt::run_transient(pivot_c, opt);

  ASSERT_EQ(res_static.steps(), res_pivot.steps());
  EXPECT_GT(res_static.stats.total_newton_iters, res_static.stats.steps);  // really nonlinear
  EXPECT_EQ(res_static.stats.total_newton_iters, res_pivot.stats.total_newton_iters);
  EXPECT_EQ(res_static.stats.dc_newton_iters, res_pivot.stats.dc_newton_iters);
  EXPECT_LT(max_waveform_delta(res_static, res_pivot, out), 1e-9);
}

TEST(SparseSolver, SymbolicAnalysisOnlyFromThePivotThresholdUp) {
  // Below kPivotBelowUnknowns every factorization takes the pivoting
  // kernel: no symbolic analysis, no static-pivot refactor. The ladder
  // past it analyzes each mode's pattern exactly once.
  ckt::Circuit small, big;
  build_rlc(small);
  build_line(big);
  ASSERT_LT(static_cast<std::size_t>(small.finalize()), ckt::kPivotBelowUnknowns);

  ckt::NewtonWorkspace ws_small, ws_big;
  ckt::run_transient(small, rlc_options(), ws_small);
  for (const ckt::ModeSystem* m : {&ws_small.sp_tr, &ws_small.sp_dc}) {
    EXPECT_EQ(m->lu.stats().analyses, 0);
    EXPECT_EQ(m->lu.stats().refactors, 0);
    EXPECT_TRUE(m->lu.valid());
  }

  ckt::run_transient(big, rlc_options(), ws_big);
  for (const ckt::ModeSystem* m : {&ws_big.sp_tr, &ws_big.sp_dc}) {
    EXPECT_EQ(m->lu.stats().analyses, 1);
    EXPECT_GT(m->lu.stats().refactors, 0);
  }
}

TEST(LinearFastPath, DcOperatingPointOfLinearDivider) {
  // The cached-LU path is also taken during DC (dt = 0 key); the divider
  // solution must be exact.
  ckt::Circuit c;
  const int n1 = c.node();
  const int n2 = c.node();
  c.add<ckt::VSource>(n1, 0, 2.0);
  c.add<ckt::Resistor>(n1, n2, 1e3);
  c.add<ckt::Resistor>(n2, 0, 1e3);

  ckt::TransientOptions opt;
  c.finalize();
  std::vector<double> x(3, 0.0);  // 2 nodes + 1 branch current
  ckt::dc_operating_point(c, x, opt);
  EXPECT_NEAR(x[0], 2.0, 1e-9);
  EXPECT_NEAR(x[1], 1.0, 1e-6);
}

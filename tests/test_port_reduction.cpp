// Port-reduced Newton solve: the linear interconnect is factored once per
// (mode, dt, gmin) and Newton runs only on the p x p border of unknowns
// the nonlinear devices touch. These tests pin the contract against the
// full-system reference loop (TransientOptions::cache_lu = false):
// waveforms within 1e-9 V with equal Newton iteration totals, a
// factorization count independent of the step count, the engagement rule,
// the singular-interconnect fallback, and failures raised inside the port
// loop still carrying the Newton residual history. The emission-corner
// suite also holds the sweep memo regression (a reused SweepRunner must
// not hand one configuration's record to another).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tline.hpp"
#include "core/circuit_dut.hpp"
#include "core/driver_device.hpp"
#include "core/driver_estimator.hpp"
#include "devices/reference_driver.hpp"
#include "obs/metrics.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "signal/sources.hpp"
#include "sweep/sweep_runner.hpp"

namespace {

using namespace emc;

double max_delta(const ckt::TransientResult& a, const ckt::TransientResult& b) {
  EXPECT_EQ(a.data().size(), b.data().size());
  double m = 0.0;
  for (std::size_t i = 0; i < std::min(a.data().size(), b.data().size()); ++i)
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  return m;
}

/// A diode clamp to ground behind a resistive step source, padded with an
/// RC ladder so the circuit has `rungs` more linear unknowns.
void build_clamp(ckt::Circuit& c, int rungs) {
  const int src = c.node();
  const int pad = c.node();
  c.add<ckt::VSource>(src, c.ground(), [](double t) { return t < 0.2e-9 ? 0.0 : 3.3; });
  c.add<ckt::Resistor>(src, pad, 50.0);
  c.add<ckt::Diode>(pad, c.ground());
  c.add<ckt::Capacitor>(pad, c.ground(), 1e-12);
  int prev = pad;
  for (int k = 0; k < rungs; ++k) {
    const int next = c.node();
    c.add<ckt::Resistor>(prev, next, 10.0);
    c.add<ckt::Capacitor>(next, c.ground(), 0.5e-12);
    prev = next;
  }
}

ckt::TransientOptions clamp_options() {
  ckt::TransientOptions opt;
  opt.dt = 10e-12;
  opt.t_stop = 2e-9;
  return opt;
}

/// Diode whose stamps are counted; once the count reaches `expire_at` it
/// arms `*deadline` to an already expired budget, so the next cooperative
/// check — inside the Newton loop — fails deterministically.
class ExpiringDiode : public ckt::Device {
 public:
  ExpiringDiode(int a, int b, long expire_at, robust::Deadline* deadline, long* stamps)
      : diode_(a, b), expire_at_(expire_at), deadline_(deadline), stamps_(stamps) {}
  bool nonlinear() const override { return true; }
  void stamp(ckt::Stamper& s, const ckt::SimState& st) const override {
    if (++*stamps_ == expire_at_) *deadline_ = robust::Deadline::after(0.0);
    diode_.stamp(s, st);
  }

 private:
  ckt::Diode diode_;
  long expire_at_;
  robust::Deadline* deadline_;
  long* stamps_;
};

}  // namespace

TEST(PortReduction, EngagesWhenTheBorderIsSmall) {
  // One diode: p = 1. With 16 ladder rungs n = 19 >= 8p, the reduction
  // engages; the bare clamp (n = 3) keeps the full-system loop.
  ckt::Circuit big, small;
  build_clamp(big, 16);
  build_clamp(small, 0);
  ckt::NewtonWorkspace ws_big, ws_small;
  ckt::run_transient(big, clamp_options(), ws_big);
  ckt::run_transient(small, clamp_options(), ws_small);
  EXPECT_EQ(ws_big.sp_tr.use_ports, 1);
  EXPECT_EQ(ws_big.sp_tr.ports, std::vector<int>{1});  // the pad node
  EXPECT_EQ(ws_big.sp_dc.use_ports, 1);
  EXPECT_EQ(ws_small.sp_tr.use_ports, 0);
}

TEST(PortReduction, MatchesFullSystemNewton) {
  // 64 rungs put n past kPivotBelowUnknowns: the default runs the
  // static-pivot kernel, partial_pivot the pivoting one.
  for (const bool pivot : {false, true}) {
    ckt::Circuit reduced_c, full_c;
    build_clamp(reduced_c, 64);
    build_clamp(full_c, 64);
    ASSERT_GE(static_cast<std::size_t>(reduced_c.finalize()), ckt::kPivotBelowUnknowns);
    auto opt = clamp_options();
    opt.partial_pivot = pivot;
    const auto reduced = ckt::run_transient(reduced_c, opt);
    opt.cache_lu = false;
    const auto full = ckt::run_transient(full_c, opt);
    EXPECT_LT(max_delta(reduced, full), 1e-9);
    EXPECT_EQ(reduced.stats.total_newton_iters, full.stats.total_newton_iters);
    EXPECT_EQ(reduced.stats.dc_newton_iters, full.stats.dc_newton_iters);
    EXPECT_GT(reduced.stats.total_newton_iters, reduced.stats.steps);  // really nonlinear
  }
}

TEST(PortReduction, SingularLinearBlockFallsBackToFullSystem) {
  // With gmin = 0 the node behind the diode is held only by the diode: the
  // linear block A0 is singular, the full system is not. The run must fall
  // back to the full-system loop and still match the reference.
  const auto build = [](ckt::Circuit& c) {
    build_clamp(c, 16);
    const int tail = c.node();
    c.add<ckt::Diode>(2, tail);  // pad -> tail
    c.add<ckt::Diode>(tail, c.ground());
  };
  ckt::Circuit reduced_c, full_c;
  build(reduced_c);
  build(full_c);
  auto opt = clamp_options();
  opt.gmin = 0.0;
  ckt::NewtonWorkspace ws;
  const auto reduced = ckt::run_transient(reduced_c, opt, ws);
  EXPECT_EQ(ws.sp_tr.use_ports, 0);
  opt.cache_lu = false;
  const auto full = ckt::run_transient(full_c, opt);
  EXPECT_LT(max_delta(reduced, full), 1e-9);
}

TEST(PortReduction, ReferenceDriverA0FallsBackAndSolvesThroughNonzeros) {
  // Two transistor-level drivers on a short lossy coupled line: the
  // transient A0 fails the static kernel's health check, so the x0 solves
  // and Z's columns go through the pivoted factors' nonzeros, and Z keeps
  // only its nonzeros. The record must still match the full-system loop.
  const auto build = [](ckt::Circuit& c) {
    ckt::CoupledLineParams line;
    line.l = linalg::Matrix{{466e-9, 66e-9}, {66e-9, 466e-9}};
    line.c = linalg::Matrix{{66e-12, -6.6e-12}, {-6.6e-12, 66e-12}};
    line.length = 0.05;
    line.loss.rdc = 66.0;
    line.loss.rskin = 1.6e-3;
    line.loss.tan_delta = 0.001;
    line.loss.f_ref = 1e9;
    const int a1 = c.node();
    const int a2 = c.node();
    const int b1 = c.node();
    const int b2 = c.node();
    ckt::add_coupled_lossy_line(c, {a1, a2}, {b1, b2}, line, 25e-12, 0);
    c.add<ckt::Capacitor>(b1, c.ground(), 1e-12);
    c.add<ckt::Capacitor>(b2, c.ground(), 1e-12);
    const dev::DriverTech tech = dev::DriverTech::md3_ibm25();
    for (const auto& [pad, bits] : {std::pair{a1, "0110"}, std::pair{a2, "0000"}}) {
      auto pattern = sig::bit_stream(bits, 1e-9, 0.1e-9, 0.0, tech.vdd);
      const auto inst =
          dev::build_reference_driver(c, tech, [pattern](double t) { return pattern(t); });
      c.add<ckt::Resistor>(inst.pad, pad, 1e-3);
    }
  };
  ckt::Circuit reduced_c, full_c;
  build(reduced_c);
  build(full_c);
  const auto n = static_cast<std::size_t>(reduced_c.finalize());
  ckt::TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 5e-9;  // 200 steps
  ckt::NewtonWorkspace ws;
  const auto reduced = ckt::run_transient(reduced_c, opt, ws);
  ASSERT_EQ(ws.sp_tr.use_ports, 1);
  EXPECT_GE(ws.sp_tr.lu.stats().pivot_fallbacks, 1);
  const std::size_t p = ws.sp_tr.ports.size();
  EXPECT_EQ(ws.sp_tr.z_ptr.size(), p + 1);
  EXPECT_EQ(ws.sp_tr.z_val.size(), ws.sp_tr.z_ptr.back());
  EXPECT_LT(ws.sp_tr.z_val.size(), n * p);
  EXPECT_LT(ws.sp_tr.lu.solve_walk(), n * n);

  opt.cache_lu = false;
  const auto full = ckt::run_transient(full_c, opt);
  EXPECT_LT(max_delta(reduced, full), 1e-9);
  EXPECT_EQ(reduced.stats.total_newton_iters, full.stats.total_newton_iters);
  EXPECT_EQ(reduced.stats.dc_newton_iters, full.stats.dc_newton_iters);
}

TEST(PortReduction, DeadlineInsidePortLoopCarriesResidualHistory) {
  robust::Deadline deadline;
  long stamps = 0;
  ckt::Circuit c;
  build_clamp(c, 16);
  const int pad = 2;
  // From a zero start the circuit sits still (one iteration per step)
  // until the source steps at 0.2 ns = step 20; the 40th stamp lands in
  // the edge, where every step iterates.
  c.add<ExpiringDiode>(pad, c.ground(), 40, &deadline, &stamps);
  auto opt = clamp_options();
  opt.dc_start = false;
  opt.deadline = &deadline;
  ckt::NewtonWorkspace ws;
  try {
    ckt::run_transient(c, opt, ws);
    FAIL() << "expected a deadline failure";
  } catch (const robust::SolveError& e) {
    EXPECT_EQ(e.info().kind, robust::FailureKind::kDeadlineExceeded);
    EXPECT_FALSE(e.info().residual_history.empty());
  }
  EXPECT_EQ(ws.sp_tr.use_ports, 1);
}

TEST(PortReduction, InjectedFactorFaultInsidePortLoopCarriesResidualHistory) {
  // The kFactor probe runs once per port iteration; skipping k probes
  // lands the fault on successive iterations. From a zero start the first
  // 20 steps take one iteration each; past the source edge some faulted
  // iterations follow an earlier iteration of the same solve.
  std::size_t with_history = 0;
  for (long skip = 20; skip <= 40; ++skip) {
    robust::FaultPlan plan;
    robust::FaultSpec spec;
    spec.site = robust::FaultSite::kFactor;
    spec.skip = skip;
    plan.arm(spec);
    robust::ScopedFaultPlan guard(plan);

    ckt::Circuit c;
    build_clamp(c, 16);
    auto opt = clamp_options();
    opt.dc_start = false;
    ckt::NewtonWorkspace ws;
    try {
      ckt::run_transient(c, opt, ws);
      ADD_FAILURE() << "skip " << skip << ": expected an injected singular pivot";
    } catch (const robust::SolveError& e) {
      EXPECT_EQ(e.info().kind, robust::FailureKind::kSingularSystem);
      EXPECT_EQ(e.info().site, "newton_solve");
      if (!e.info().residual_history.empty()) ++with_history;
    }
    EXPECT_EQ(ws.sp_tr.use_ports, 1);
  }
  EXPECT_GT(with_history, 0u);
}

// ------------------------------------------------------------ emission corner

namespace {

/// One estimated MD1-class macromodel for the whole suite (estimation is
/// the expensive step; a reduced identification budget keeps it short —
/// fidelity is not under test here).
class EmissionCorner : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const dev::DriverTech tech = dev::DriverTech::md1_lvc244();
    const core::CircuitDriverDut dut(tech);
    core::DriverEstimationOptions eo;
    eo.n_steps = 60;
    eo.max_basis_high = 12;
    eo.max_basis_low = 12;
    model_ = new core::PwRbfDriverModel(core::estimate_driver_model(dut, eo));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  static ckt::CoupledLineParams line(double rdc) {
    ckt::CoupledLineParams p;
    p.l = linalg::Matrix{{466e-9, 66e-9}, {66e-9, 466e-9}};
    p.c = linalg::Matrix{{66e-12, -6.6e-12}, {-6.6e-12, 66e-12}};
    p.length = 0.1;
    p.loss.rdc = rdc;
    p.loss.rskin = 1.6e-3;
    p.loss.tan_delta = 0.001;
    p.loss.f_ref = 1e9;
    return p;
  }

  /// The sweep's emission corner: two PW-RBF drivers on a lossy coupled
  /// line, the aggressor toggling, the victim quiet, capacitive far ends.
  static void build(ckt::Circuit& c, const std::string& bits) {
    const int a1 = c.node();
    const int a2 = c.node();
    const int b1 = c.node();
    const int b2 = c.node();
    ckt::add_coupled_lossy_line(c, {a1, a2}, {b1, b2}, line(66.0), 25e-12, 0);
    c.add<ckt::Capacitor>(b1, c.ground(), 1e-12);
    c.add<ckt::Capacitor>(b2, c.ground(), 1e-12);
    c.add<core::DriverDevice>(a1, *model_, bits, 1e-9);
    c.add<core::DriverDevice>(a2, *model_, std::string(bits.size(), '0'), 1e-9);
  }

  static ckt::TransientOptions options(std::size_t bits) {
    ckt::TransientOptions opt;
    opt.dt = 25e-12;
    opt.t_stop = 1e-9 * static_cast<double>(bits);
    return opt;
  }

  static core::PwRbfDriverModel* model_;
};

core::PwRbfDriverModel* EmissionCorner::model_ = nullptr;

}  // namespace

TEST_F(EmissionCorner, PortReducedMatchesFullSystem) {
  const std::string bits = "0110100";
  ckt::Circuit reduced_c, full_c;
  build(reduced_c, bits);
  build(full_c, bits);
  auto opt = options(bits.size());
  ckt::NewtonWorkspace ws;
  const auto reduced = ckt::run_transient(reduced_c, opt, ws);
  EXPECT_EQ(ws.sp_tr.use_ports, 1);
  EXPECT_EQ(ws.sp_tr.ports.size(), 2u);  // the two driver pads
  opt.cache_lu = false;
  const auto full = ckt::run_transient(full_c, opt);
  EXPECT_LT(max_delta(reduced, full), 1e-9);
  EXPECT_EQ(reduced.stats.total_newton_iters, full.stats.total_newton_iters);
  EXPECT_EQ(reduced.stats.dc_newton_iters, full.stats.dc_newton_iters);
}

TEST_F(EmissionCorner, FactorizationsDoNotDependOnStepCount) {
  const auto refactors = [](const std::string& bits) {
    ckt::Circuit c;
    build(c, bits);
    const auto before = obs::registry().snapshot().value("linalg.sparselu.refactors");
    const auto res = ckt::run_transient(c, options(bits.size()));
    EXPECT_GT(res.stats.total_newton_iters, res.stats.steps);
    return obs::registry().snapshot().value("linalg.sparselu.refactors") - before;
  };
  const auto short_run = refactors("0110");
  const auto long_run = refactors("0110011010010110");
  EXPECT_EQ(short_run, long_run);
  // One transient factor plus one per DC gmin stage.
  EXPECT_GT(short_run, 0u);
  EXPECT_LE(short_run, 12u);
}

TEST_F(EmissionCorner, ReusedRunnerMatchesFreshRunnerAcrossConfigs) {
  // Sweep config A, then config B (10x the line's dc resistance) on the
  // same runner: B must equal B on a fresh runner — the record memo must
  // not carry A's transient across run() calls.
  // One transient key shared by every corner of both sweeps, so a memo
  // surviving run() would hit on B's first corner.
  sweep::CornerAxes axes;
  axes.pattern_bits = 7;
  axes.vdd_scale = {0.9, 1.0};
  axes.rbw = {120e6};  // the 7 ns steady record resolves >= ~30 MHz
  const sweep::CornerGrid grid(axes);

  sweep::EmissionSweepConfig a;
  a.model = model_;
  a.line = line(66.0);
  a.periods = 2;
  a.rx.name = "scan";
  a.rx.f_start = 50e6;
  a.rx.f_stop = 2e9;
  a.rx.n_points = 12;
  a.rx.tau_charge = 1e-9;
  a.rx.tau_discharge = 30e-9;
  a.mask = {"flat", {{50e6, 120.0}, {2e9, 120.0}}};
  sweep::EmissionSweepConfig b = a;
  b.line.loss.rdc = 660.0;

  const std::size_t chunk = sweep::emission_chunk_hint(grid);
  sweep::SweepRunner reused(1);
  const auto out_a = reused.run(grid, sweep::make_emission_corner_fn(a), {.chunk = chunk});
  const auto out_b = reused.run(grid, sweep::make_emission_corner_fn(b), {.chunk = chunk});
  sweep::SweepRunner fresh(1);
  const auto ref_b = fresh.run(grid, sweep::make_emission_corner_fn(b), {.chunk = chunk});

  EXPECT_NE(out_a.summary.worst_margin_db, ref_b.summary.worst_margin_db);
  EXPECT_TRUE(out_b.summary == ref_b.summary);
  ASSERT_EQ(out_b.results.size(), ref_b.results.size());
  for (std::size_t i = 0; i < out_b.results.size(); ++i)
    EXPECT_EQ(out_b.results[i].report.worst_margin_db, ref_b.results[i].report.worst_margin_db)
        << "corner " << i;
}

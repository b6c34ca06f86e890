#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "circuit/stampers.hpp"
#include "circuit/tline.hpp"
#include "linalg/sparse.hpp"
#include "signal/metrics.hpp"
#include "signal/sources.hpp"

using namespace emc::ckt;
namespace sg = emc::sig;

namespace {

struct LineRun {
  sg::Waveform near;
  sg::Waveform far;
};

/// Step of 1 V through source resistance rs into an ideal line (z0, td)
/// terminated by r_load (use 1e9 for open).
LineRun run_ideal_line(double rs, double z0, double td, double r_load, double t_stop,
                       double dt) {
  Circuit ckt;
  const int src = ckt.node();
  const int a = ckt.node();
  const int b = ckt.node();
  sg::Pwl step({{0.0, 0.0}, {50e-12, 0.0}, {60e-12, 1.0}});
  ckt.add<VSource>(src, ckt.ground(), [step](double t) { return step(t); });
  ckt.add<Resistor>(src, a, rs);
  ckt.add<IdealLine>(a, ckt.ground(), b, ckt.ground(), z0, td);
  ckt.add<Resistor>(b, ckt.ground(), r_load);

  TransientOptions opt;
  opt.dt = dt;
  opt.t_stop = t_stop;
  auto res = run_transient(ckt, opt);
  return {res.waveform(a), res.waveform(b)};
}

}  // namespace

TEST(IdealLineModel, MatchedLineNoReflection) {
  const double z0 = 50.0, td = 1e-9;
  auto r = run_ideal_line(z0, z0, td, z0, 6e-9, 25e-12);
  // Near end: half the step immediately, stays at half (matched).
  EXPECT_NEAR(r.near.value_at(0.5e-9), 0.5, 5e-3);
  EXPECT_NEAR(r.near.value_at(5e-9), 0.5, 5e-3);
  // Far end: zero until td, then half step.
  EXPECT_NEAR(r.far.value_at(0.9e-9), 0.0, 5e-3);
  EXPECT_NEAR(r.far.value_at(1.5e-9), 0.5, 5e-3);
}

TEST(IdealLineModel, OpenEndDoublesAndReflects) {
  const double z0 = 50.0, td = 1e-9;
  auto r = run_ideal_line(z0, z0, td, 1e9, 6e-9, 25e-12);
  // Far end doubles the incident half-step at td.
  EXPECT_NEAR(r.far.value_at(1.5e-9), 1.0, 1e-2);
  // Near end sits at half until the reflection returns at 2*td.
  EXPECT_NEAR(r.near.value_at(1.9e-9), 0.5, 1e-2);
  EXPECT_NEAR(r.near.value_at(2.5e-9), 1.0, 1e-2);
}

TEST(IdealLineModel, ShortEndInverts) {
  const double z0 = 50.0, td = 1e-9;
  auto r = run_ideal_line(z0, z0, td, 1e-3, 6e-9, 25e-12);
  // Far end pinned near zero; near end collapses to ~0 after 2*td.
  EXPECT_NEAR(r.far.value_at(2e-9), 0.0, 2e-2);
  EXPECT_NEAR(r.near.value_at(1.5e-9), 0.5, 1e-2);
  EXPECT_NEAR(r.near.value_at(2.5e-9), 0.0, 2e-2);
}

TEST(IdealLineModel, MismatchedLoadReflectionCoefficient) {
  // r_load = 150 on z0 = 50: rho = 0.5, far end = incident*(1+rho) = 0.75.
  const double z0 = 50.0, td = 1e-9;
  auto r = run_ideal_line(z0, z0, td, 150.0, 6e-9, 25e-12);
  EXPECT_NEAR(r.far.value_at(1.7e-9), 0.75, 1e-2);
}

TEST(IdealLineModel, DelayShorterThanStepThrows) {
  Circuit ckt;
  const int a = ckt.node();
  const int b = ckt.node();
  ckt.add<VSource>(a, ckt.ground(), 1.0);
  ckt.add<IdealLine>(a, ckt.ground(), b, ckt.ground(), 50.0, 10e-12);
  ckt.add<Resistor>(b, ckt.ground(), 50.0);
  TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 1e-9;
  EXPECT_THROW(run_transient(ckt, opt), std::runtime_error);
}

TEST(IdealLineModel, ParameterValidation) {
  EXPECT_THROW(IdealLine(1, 0, 2, 0, -50.0, 1e-9), std::invalid_argument);
  EXPECT_THROW(IdealLine(1, 0, 2, 0, 50.0, 0.0), std::invalid_argument);
}

TEST(IdealLineModel, DcChargedLineStartsQuiet) {
  // A line biased at 2 V DC must not generate spurious transients.
  Circuit ckt;
  const int a = ckt.node();
  const int b = ckt.node();
  ckt.add<VSource>(a, ckt.ground(), 2.0);
  ckt.add<IdealLine>(a, ckt.ground(), b, ckt.ground(), 50.0, 1e-9);
  ckt.add<Resistor>(b, ckt.ground(), 1e6);

  TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 5e-9;
  auto res = run_transient(ckt, opt);
  const auto v = res.waveform(b);
  for (std::size_t k = 0; k < v.size(); ++k) EXPECT_NEAR(v[k], 2.0, 5e-3);
}

TEST(ModalSegment, SingleConductorMatchesIdealLine) {
  // A 1-conductor modal segment must behave exactly like IdealLine with
  // z0 = sqrt(L/C), td = len*sqrt(LC).
  const double lpm = 2.5e-7, cpm = 1e-10, len = 0.2;
  const double z0 = std::sqrt(lpm / cpm);
  const double td = len * std::sqrt(lpm * cpm);

  auto build = [&](bool modal) {
    Circuit ckt;
    const int src = ckt.node();
    const int a = ckt.node();
    const int b = ckt.node();
    sg::Pwl step({{0.0, 0.0}, {50e-12, 0.0}, {150e-12, 1.0}});
    ckt.add<VSource>(src, ckt.ground(), [step](double t) { return step(t); });
    ckt.add<Resistor>(src, a, 30.0);
    if (modal) {
      ckt.add<ModalLineSegment>(std::vector<int>{a}, std::vector<int>{b},
                                emc::linalg::Matrix{{lpm}}, emc::linalg::Matrix{{cpm}}, len);
    } else {
      ckt.add<IdealLine>(a, ckt.ground(), b, ckt.ground(), z0, td);
    }
    ckt.add<Resistor>(b, ckt.ground(), 120.0);
    TransientOptions opt;
    opt.dt = 25e-12;
    opt.t_stop = 8e-9;
    auto res = run_transient(ckt, opt);
    return res.waveform(b);
  };

  const auto v_modal = build(true);
  const auto v_ideal = build(false);
  EXPECT_LT(sg::max_error(v_ideal, v_modal), 1e-6);
}

TEST(ModalSegment, SymmetricPairEvenOddParameters) {
  const double l0 = 466e-9, lm = 66e-9, c0 = 66e-12, cm = 6.6e-12, len = 0.1;
  emc::linalg::Matrix l{{l0, lm}, {lm, l0}};
  emc::linalg::Matrix c{{c0, -cm}, {-cm, c0}};
  ModalLineSegment seg({1, 2}, {3, 4}, l, c, len);
  ASSERT_EQ(seg.modes(), 2u);

  const double z_even = std::sqrt((l0 + lm) / (c0 - cm));
  const double z_odd = std::sqrt((l0 - lm) / (c0 + cm));
  const double td_even = len * std::sqrt((l0 + lm) * (c0 - cm));
  const double td_odd = len * std::sqrt((l0 - lm) * (c0 + cm));

  // Modal delays are physical; modes come out sorted by eigenvalue.
  const double ta = seg.modal_td(0), tb = seg.modal_td(1);
  EXPECT_NEAR(std::min(ta, tb), std::min(td_even, td_odd), 1e-6 * td_odd);
  EXPECT_NEAR(std::max(ta, tb), std::max(td_even, td_odd), 1e-6 * td_even);

  // The physical characteristic admittance of a symmetric pair is
  // Yc = 0.5*[[ge+go, ge-go],[ge-go, ge+go]] with ge = 1/Z_even, go = 1/Z_odd.
  const auto& y = seg.char_admittance();
  const double ge = 1.0 / z_even, go = 1.0 / z_odd;
  EXPECT_NEAR(y(0, 0), 0.5 * (ge + go), 1e-6 * go);
  EXPECT_NEAR(y(1, 1), 0.5 * (ge + go), 1e-6 * go);
  EXPECT_NEAR(y(0, 1), 0.5 * (ge - go), 1e-6 * go);
  EXPECT_NEAR(y(1, 0), 0.5 * (ge - go), 1e-6 * go);
}

TEST(ModalSegment, QuietLineSeesCrosstalk) {
  // Drive line 1, keep line 2 terminated: the coupled segment must
  // produce a small but nonzero far-end crosstalk signal.
  const double l0 = 466e-9, lm = 66e-9, c0 = 66e-12, cm = 6.6e-12, len = 0.1;
  emc::linalg::Matrix l{{l0, lm}, {lm, l0}};
  emc::linalg::Matrix c{{c0, -cm}, {-cm, c0}};

  Circuit ckt;
  const int src = ckt.node();
  const int a1 = ckt.node();
  const int a2 = ckt.node();
  const int b1 = ckt.node();
  const int b2 = ckt.node();
  sg::Pwl step({{0.0, 0.0}, {0.1e-9, 0.0}, {0.2e-9, 1.0}});
  ckt.add<VSource>(src, ckt.ground(), [step](double t) { return step(t); });
  ckt.add<Resistor>(src, a1, 50.0);
  ckt.add<Resistor>(a2, ckt.ground(), 50.0);
  ckt.add<ModalLineSegment>(std::vector<int>{a1, a2}, std::vector<int>{b1, b2}, l, c, len);
  ckt.add<Resistor>(b1, ckt.ground(), 50.0);
  ckt.add<Resistor>(b2, ckt.ground(), 50.0);

  TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 5e-9;
  auto res = run_transient(ckt, opt);
  const auto v_active = res.waveform(b1);
  const auto v_quiet = res.waveform(b2);

  const double peak_active = std::max(std::abs(v_active.max_value()),
                                      std::abs(v_active.min_value()));
  const double peak_quiet = std::max(std::abs(v_quiet.max_value()),
                                     std::abs(v_quiet.min_value()));
  EXPECT_GT(peak_active, 0.3);
  EXPECT_GT(peak_quiet, 1e-3);            // crosstalk exists
  EXPECT_LT(peak_quiet, 0.3 * peak_active);  // but is much smaller
}

TEST(SkinLadderFit, ApproximatesSqrtF) {
  const double rskin = 1.6e-3 * 0.0125;  // ohm*sqrt(s) for a 12.5 mm section
  const auto lad = fit_skin_ladder(rskin, 1e7, 1e10, 3);
  ASSERT_EQ(lad.r.size(), 3u);
  for (double rk : lad.r) EXPECT_GT(rk, 0.0);
  for (double lk : lad.l) EXPECT_GT(lk, 0.0);

  // The ladder's series impedance magnitude should track rskin*sqrt(f)
  // within a factor ~2 across the band.
  for (double f : {3e7, 3e8, 3e9}) {
    const double w = 2.0 * M_PI * f;
    double re = 0.0, im = 0.0;
    for (std::size_t k = 0; k < lad.r.size(); ++k) {
      // Parallel R-L branch: Z = jwL*R / (R + jwL).
      const double r = lad.r[k], x = w * lad.l[k];
      const double den = r * r + x * x;
      re += r * x * x / den;
      im += r * r * x / den;
    }
    const double mag = std::sqrt(re * re + im * im);
    const double target = rskin * std::sqrt(f);
    EXPECT_GT(mag, 0.4 * target) << "f = " << f;
    EXPECT_LT(mag, 2.5 * target) << "f = " << f;
  }
}

TEST(LossyCoupledLine, DcResistanceEndToEnd) {
  // At DC the cascade reduces to the series resistance: check the voltage
  // divider ratio against rdc*length.
  CoupledLineParams p;
  p.l = emc::linalg::Matrix{{466e-9}};
  p.c = emc::linalg::Matrix{{66e-12}};
  p.length = 0.1;
  p.loss.rdc = 66.0;

  Circuit ckt;
  const int a = ckt.node();
  const int b = ckt.node();
  ckt.add<VSource>(a, ckt.ground(), 1.0);
  add_coupled_lossy_line(ckt, {a}, {b}, p, 25e-12, 4);
  ckt.add<Resistor>(b, ckt.ground(), 50.0);

  TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 50e-9;  // settle through the line delay
  auto res = run_transient(ckt, opt);
  const auto v = res.waveform(b);
  const double expect = 50.0 / (50.0 + 6.6);
  EXPECT_NEAR(v[v.size() - 1], expect, 0.02);
}

TEST(LossyCoupledLine, AttenuatesStep) {
  // Lossy line attenuates the transmitted edge relative to lossless.
  auto run_line = [](double rdc) {
    CoupledLineParams p;
    p.l = emc::linalg::Matrix{{466e-9}};
    p.c = emc::linalg::Matrix{{66e-12}};
    p.length = 0.1;
    p.loss.rdc = rdc;

    Circuit ckt;
    const int src = ckt.node();
    const int a = ckt.node();
    const int b = ckt.node();
    sg::Pwl step({{0.0, 0.0}, {0.1e-9, 0.0}, {0.2e-9, 1.0}});
    ckt.add<VSource>(src, ckt.ground(), [step](double t) { return step(t); });
    ckt.add<Resistor>(src, a, 50.0);
    add_coupled_lossy_line(ckt, {a}, {b}, p, 25e-12, 4);
    ckt.add<Resistor>(b, ckt.ground(), 50.0);
    TransientOptions opt;
    opt.dt = 25e-12;
    opt.t_stop = 3e-9;
    auto res = run_transient(ckt, opt);
    return res.waveform(b).value_at(2.5e-9);
  };

  const double v_lossless = run_line(0.0);
  const double v_lossy = run_line(66.0);
  EXPECT_GT(v_lossless, v_lossy + 0.01);
  EXPECT_GT(v_lossy, 0.2);  // but the signal still arrives
}

TEST(LossyCoupledLine, PortReducedSolveMatchesFullSystemWithClampedLoads) {
  // Diode clamps at the far ends make the line circuit nonlinear on two
  // port nodes: the port-reduced Newton solve (default) must track the
  // full-system reference loop within 1e-9 V with equal iteration totals.
  auto run_line = [](bool port_reduced) {
    CoupledLineParams p;
    p.l = emc::linalg::Matrix{{466e-9, 66e-9}, {66e-9, 466e-9}};
    p.c = emc::linalg::Matrix{{66e-12, -6.6e-12}, {-6.6e-12, 66e-12}};
    p.length = 0.1;
    p.loss.rdc = 66.0;
    p.loss.rskin = 1.6e-3;
    p.loss.tan_delta = 0.001;

    Circuit ckt;
    const int src = ckt.node();
    const int a1 = ckt.node();
    const int a2 = ckt.node();
    const int b1 = ckt.node();
    const int b2 = ckt.node();
    sg::Pwl step({{0.0, 0.0}, {0.1e-9, 0.0}, {0.2e-9, 3.3}});
    ckt.add<VSource>(src, ckt.ground(), [step](double t) { return step(t); });
    ckt.add<Resistor>(src, a1, 10.0);
    ckt.add<Resistor>(a2, ckt.ground(), 50.0);
    add_coupled_lossy_line(ckt, {a1, a2}, {b1, b2}, p, 25e-12, 0);
    for (int b : {b1, b2}) {
      ckt.add<Diode>(b, ckt.ground());
      ckt.add<Diode>(ckt.ground(), b);
      ckt.add<Capacitor>(b, ckt.ground(), 1e-12);
    }
    TransientOptions opt;
    opt.dt = 25e-12;
    opt.t_stop = 4e-9;
    opt.cache_lu = port_reduced;
    return run_transient(ckt, opt);
  };

  const auto reduced = run_line(true);
  const auto full = run_line(false);
  ASSERT_EQ(reduced.data().size(), full.data().size());
  double max_dv = 0.0;
  for (std::size_t i = 0; i < full.data().size(); ++i)
    max_dv = std::max(max_dv, std::abs(reduced.data()[i] - full.data()[i]));
  EXPECT_LT(max_dv, 1e-9);
  EXPECT_EQ(reduced.stats.total_newton_iters, full.stats.total_newton_iters);
  EXPECT_GT(reduced.stats.total_newton_iters, reduced.stats.steps);
}

TEST(LossyCoupledLine, SectionCountValidation) {
  CoupledLineParams p;
  p.l = emc::linalg::Matrix{{466e-9}};
  p.c = emc::linalg::Matrix{{66e-12}};
  p.length = 0.1;  // total delay ~0.55 ns

  Circuit ckt;
  const int a = ckt.node();
  const int b = ckt.node();
  // 64 sections -> section delay ~8.6 ps < dt = 25 ps: must throw.
  EXPECT_THROW(add_coupled_lossy_line(ckt, {a}, {b}, p, 25e-12, 64), std::invalid_argument);
}

TEST(LossyCoupledLine, AutoSectionsRespectDt) {
  CoupledLineParams p;
  p.l = emc::linalg::Matrix{{466e-9}};
  p.c = emc::linalg::Matrix{{66e-12}};
  p.length = 0.1;

  Circuit ckt;
  const int a = ckt.node();
  const int b = ckt.node();
  auto h = add_coupled_lossy_line(ckt, {a}, {b}, p, 25e-12, 0);
  const double td_total = 0.1 * std::sqrt(466e-9 * 66e-12);
  EXPECT_GE(td_total / h.sections, 25e-12);
  EXPECT_GE(h.sections, 1);
  EXPECT_LE(h.sections, 16);
}

TEST(LossyCoupledLine, RhsIdenticalThroughRhsAndSparseStampers) {
  // The Fig. 3 structure — two coupled conductors, driver + quiet line,
  // capacitive far-end loads — stamped twice from identical device state:
  // once through pattern discovery + the sparse stamper (the full-system
  // assembly), once through the rhs-only stamper the port-reduced engine
  // refreshes every step. The discovered pattern must hold every stamp and
  // every rhs entry must match exactly.
  CoupledLineParams p;
  p.l = emc::linalg::Matrix{{300e-9, 60e-9}, {60e-9, 300e-9}};
  p.c = emc::linalg::Matrix{{100e-12, -20e-12}, {-20e-12, 100e-12}};
  p.length = 0.1;
  p.loss.rdc = 5.0;
  p.loss.rskin = 1e-3;
  p.loss.tan_delta = 0.02;

  const double dt = 25e-12;
  Circuit ckt;
  const int a1 = ckt.node();
  const int a2 = ckt.node();
  const int b1 = ckt.node();
  const int b2 = ckt.node();
  const int src = ckt.node();
  ckt.add<VSource>(src, ckt.ground(), [](double t) { return t < 1e-10 ? 0.0 : 1.0; });
  ckt.add<Resistor>(src, a1, 25.0);
  ckt.add<Resistor>(a2, ckt.ground(), 25.0);
  add_coupled_lossy_line(ckt, {a1, a2}, {b1, b2}, p, dt, 0);
  ckt.add<Capacitor>(b1, ckt.ground(), 2e-12);
  ckt.add<Capacitor>(b2, ckt.ground(), 2e-12);

  const auto n = static_cast<std::size_t>(ckt.finalize());
  // Deterministic nonzero state so history-dependent stamps are exercised.
  std::vector<double> x(n), x_prev(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.1 + 0.03 * static_cast<double>(i % 7);
    x_prev[i] = 0.05 + 0.02 * static_cast<double>(i % 5);
  }

  const auto check_state = [&](const SimState& st) {
    std::vector<double> rhs_only(n, 0.0);
    RhsStamper rs(rhs_only);
    for (const auto& dev : ckt.devices()) dev->stamp(rs, st);

    PatternStamper ps;
    for (const auto& dev : ckt.devices()) dev->stamp(ps, st);
    const auto pattern =
        emc::linalg::SparsePattern::build(n, std::move(ps).take_coords());

    emc::linalg::SparseMatrix a;
    a.set_pattern(&pattern);
    std::vector<double> rhs_sparse(n, 0.0);
    SparseStamper ss(a, rhs_sparse);
    for (const auto& dev : ckt.devices()) dev->stamp(ss, st);
    ASSERT_TRUE(ss.missed().empty());

    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(rhs_sparse[i], rhs_only[i]) << "rhs row " << i;
  };

  // DC topology: line stamps dc shorts, capacitors stamp open.
  for (const auto& dev : ckt.devices()) dev->reset();
  check_state(SimState{x, x_prev, 0.0, 0.0, true, 1.0});

  // Transient topology at a mid-run step, with line history loaded.
  for (const auto& dev : ckt.devices()) dev->reset();
  for (int k = 1; k <= 4; ++k) {
    const double t = dt * static_cast<double>(k);
    SimState step{x_prev, x_prev, t, dt, false, 1.0};
    for (const auto& dev : ckt.devices()) dev->start_step(step);
    SimState committed{x, x_prev, t, dt, false, 1.0};
    for (const auto& dev : ckt.devices()) dev->commit(committed);
  }
  const double t = dt * 5.0;
  SimState step{x_prev, x_prev, t, dt, false, 1.0};
  for (const auto& dev : ckt.devices()) dev->start_step(step);
  check_state(SimState{x, x_prev, t, dt, false, 1.0});
}

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "signal/metrics.hpp"
#include "signal/sources.hpp"

using namespace emc::ckt;

namespace {

/// Counts right-hand-side stamps; matrix stamps are ignored.
class RhsCounter final : public Stamper {
 public:
  void g(int, int, double) override {}
  void rhs(int, double) override { ++calls; }
  int calls = 0;
};

}  // namespace

TEST(CircuitDc, VoltageDivider) {
  Circuit ckt;
  const int vin = ckt.node("in");
  const int mid = ckt.node("mid");
  ckt.add<VSource>(vin, ckt.ground(), 10.0);
  ckt.add<Resistor>(vin, mid, 1000.0);
  ckt.add<Resistor>(mid, ckt.ground(), 3000.0);

  TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 2e-9;
  auto res = run_transient(ckt, opt);
  EXPECT_NEAR(res.waveform(mid)[0], 7.5, 1e-6);
  EXPECT_NEAR(res.waveform(vin)[0], 10.0, 1e-9);
}

TEST(CircuitDc, VsourceCurrentSignConvention) {
  // 10 V across 10 ohm: 1 A delivered, so the SPICE-convention branch
  // current (plus terminal through the source) is -1 A.
  Circuit ckt;
  const int vin = ckt.node();
  auto& vs = ckt.add<VSource>(vin, ckt.ground(), 10.0);
  ckt.add<Resistor>(vin, ckt.ground(), 10.0);

  TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 2e-9;
  auto res = run_transient(ckt, opt);
  EXPECT_NEAR(res.waveform(vs.current_id())[0], -1.0, 1e-6);
}

TEST(CircuitTransient, RcStepMatchesAnalytic) {
  // 1k / 1nF driven by a 1 V step: v_c = 1 - exp(-t/tau), tau = 1 us.
  Circuit ckt;
  const int vin = ckt.node();
  const int out = ckt.node();
  emc::sig::Pwl step({{0.0, 0.0}, {1e-9, 0.0}, {1.001e-9, 1.0}});
  ckt.add<VSource>(vin, ckt.ground(), [step](double t) { return step(t); });
  ckt.add<Resistor>(vin, out, 1000.0);
  ckt.add<Capacitor>(out, ckt.ground(), 1e-9);

  TransientOptions opt;
  opt.dt = 5e-9;
  opt.t_stop = 5e-6;
  auto res = run_transient(ckt, opt);
  const auto v = res.waveform(out);
  for (std::size_t k = 0; k < v.size(); k += 50) {
    const double t = v.time_at(k) - 1e-9;
    const double expect = t <= 0 ? 0.0 : 1.0 - std::exp(-t / 1e-6);
    EXPECT_NEAR(v[k], expect, 2e-3) << "at t=" << v.time_at(k);
  }
}

TEST(CircuitTransient, RlStepCurrentMatchesAnalytic) {
  // Series R-L on a step: i = (V/R)(1 - exp(-t R/L)).
  Circuit ckt;
  const int vin = ckt.node();
  const int mid = ckt.node();
  emc::sig::Pwl step({{0.0, 0.0}, {1e-9, 0.0}, {1.0001e-9, 1.0}});
  ckt.add<VSource>(vin, ckt.ground(), [step](double t) { return step(t); });
  ckt.add<Resistor>(vin, mid, 50.0);
  auto& ind = ckt.add<Inductor>(mid, ckt.ground(), 100e-9);

  TransientOptions opt;
  opt.dt = 10e-12;
  opt.t_stop = 20e-9;
  auto res = run_transient(ckt, opt);
  const auto i = res.waveform(ind.current_id());
  const double tau = 100e-9 / 50.0;  // 2 ns
  for (std::size_t k = 0; k < i.size(); k += 100) {
    const double t = i.time_at(k) - 1e-9;
    const double expect = t <= 0 ? 0.0 : (1.0 / 50.0) * (1.0 - std::exp(-t / tau));
    EXPECT_NEAR(i[k], expect, 5e-4) << "at t=" << i.time_at(k);
  }
}

TEST(CircuitTransient, LcResonanceFrequency) {
  // Underdamped series RLC; ringing frequency ~ 1/(2*pi*sqrt(LC)).
  Circuit ckt;
  const int vin = ckt.node();
  const int a = ckt.node();
  const int out = ckt.node();
  emc::sig::Pwl step({{0.0, 0.0}, {1e-10, 1.0}});
  ckt.add<VSource>(vin, ckt.ground(), [step](double t) { return step(t); });
  ckt.add<Resistor>(vin, a, 1.0);
  ckt.add<Inductor>(a, out, 10e-9);
  ckt.add<Capacitor>(out, ckt.ground(), 10e-12);

  TransientOptions opt;
  opt.dt = 5e-12;
  opt.t_stop = 20e-9;
  auto res = run_transient(ckt, opt);
  const auto v = res.waveform(out);

  // Period from successive upward crossings of the settled value (1 V).
  const auto crossings = emc::sig::threshold_crossings(v, 1.0);
  ASSERT_GE(crossings.size(), 3u);
  const double period = crossings[2] - crossings[0];
  const double expected = 2.0 * M_PI * std::sqrt(10e-9 * 10e-12);
  EXPECT_NEAR(period, expected, 0.03 * expected);
}

TEST(CircuitTransient, CapacitorDcInitIsSteady) {
  // Capacitor pre-charged by the DC solve; transient must stay put.
  Circuit ckt;
  const int vin = ckt.node();
  const int out = ckt.node();
  ckt.add<VSource>(vin, ckt.ground(), 2.5);
  ckt.add<Resistor>(vin, out, 100.0);
  ckt.add<Capacitor>(out, ckt.ground(), 1e-12);

  TransientOptions opt;
  opt.dt = 1e-11;
  opt.t_stop = 1e-8;
  auto res = run_transient(ckt, opt);
  const auto v = res.waveform(out);
  for (std::size_t k = 0; k < v.size(); ++k) EXPECT_NEAR(v[k], 2.5, 1e-6);
}

TEST(ControlledSources, VcvsGain) {
  Circuit ckt;
  const int a = ckt.node();
  const int out = ckt.node();
  ckt.add<VSource>(a, ckt.ground(), 2.0);
  ckt.add<Vcvs>(out, ckt.ground(), a, ckt.ground(), 3.0);
  ckt.add<Resistor>(out, ckt.ground(), 1000.0);

  TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 2e-9;
  auto res = run_transient(ckt, opt);
  EXPECT_NEAR(res.waveform(out)[0], 6.0, 1e-6);
}

TEST(ControlledSources, VccsIntoLoad) {
  // gm = 10 mS driven by 2 V into 100 ohm: v_out = -gm*v*R = -2 V
  // (current flows out of node `out` into ground through the source).
  Circuit ckt;
  const int a = ckt.node();
  const int out = ckt.node();
  ckt.add<VSource>(a, ckt.ground(), 2.0);
  ckt.add<Vccs>(out, ckt.ground(), a, ckt.ground(), 10e-3);
  ckt.add<Resistor>(out, ckt.ground(), 100.0);

  TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 2e-9;
  auto res = run_transient(ckt, opt);
  EXPECT_NEAR(res.waveform(out)[0], -2.0, 1e-6);
}

TEST(TableCurrentDevice, PiecewiseLinearResistor) {
  // Table of a 100 ohm resistor: i = v/100.
  Circuit ckt;
  const int a = ckt.node();
  ckt.add<VSource>(a, ckt.ground(), 2.0);
  std::vector<std::pair<double, double>> iv{{-1.0, -0.01}, {0.0, 0.0}, {1.0, 0.01}};
  auto& tc = ckt.add<TableCurrent>(a, ckt.ground(), iv);
  (void)tc;

  TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 2e-9;
  auto res = run_transient(ckt, opt);
  // Extrapolated linearly beyond the table: at 2 V the branch draws 20 mA;
  // the node is pinned by the source, so just verify via the source current.
  EXPECT_NEAR(res.waveform(a)[0], 2.0, 1e-9);
}

TEST(TableCurrentDevice, EvalInterpolatesAndExtrapolates) {
  std::vector<std::pair<double, double>> iv{{0.0, 0.0}, {1.0, 1e-3}, {2.0, 4e-3}};
  TableCurrent tc(1, 0, iv);
  EXPECT_NEAR(tc.eval(0.5).first, 0.5e-3, 1e-12);
  EXPECT_NEAR(tc.eval(1.5).first, 2.5e-3, 1e-12);
  EXPECT_NEAR(tc.eval(3.0).first, 7e-3, 1e-12);    // end-slope extrapolation
  EXPECT_NEAR(tc.eval(-1.0).first, -1e-3, 1e-12);  // start-slope extrapolation
}

TEST(TableCurrentDevice, RejectsBadTables) {
  EXPECT_THROW(TableCurrent(1, 0, {{0.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(TableCurrent(1, 0, {{1.0, 0.0}, {0.0, 0.0}}), std::invalid_argument);
}

TEST(Engine, InputValidation) {
  Circuit ckt;
  const int a = ckt.node();
  ckt.add<Resistor>(a, ckt.ground(), 1.0);
  TransientOptions opt;
  opt.dt = -1.0;
  opt.t_stop = 1.0;
  EXPECT_THROW(run_transient(ckt, opt), std::invalid_argument);
  opt.dt = 1e-9;
  opt.t_stop = 0.0;
  EXPECT_THROW(run_transient(ckt, opt), std::invalid_argument);
}

TEST(Engine, DeviceValidation) {
  EXPECT_THROW(Resistor(1, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(Capacitor(1, 0, -1e-12), std::invalid_argument);
  EXPECT_THROW(Inductor(1, 0, 0.0), std::invalid_argument);
}

TEST(DeviceContract, MatrixOnlyDevicesNeverStampRhs) {
  // has_rhs() == false promises zero rhs() calls in every mode: DC and
  // transient stamps, any solution, history and source scale.
  Circuit ckt;
  const int a = ckt.node();
  const int b = ckt.node();
  const int c = ckt.node();
  const int d = ckt.node();
  const Device& r = ckt.add<Resistor>(a, b, 50.0);
  const Device& g = ckt.add<Vccs>(a, c, b, d, 0.02);
  const Device& e = ckt.add<Vcvs>(c, d, a, b, 3.0);
  const Device& src = ckt.add<VSource>(a, ckt.ground(), 1.0);
  const Device& cap = ckt.add<Capacitor>(b, ckt.ground(), 1e-12);
  const Device& ind = ckt.add<Inductor>(c, d, 1e-9);
  const std::size_t n = static_cast<std::size_t>(ckt.finalize());
  EXPECT_FALSE(r.has_rhs());
  EXPECT_FALSE(g.has_rhs());
  EXPECT_FALSE(e.has_rhs());
  EXPECT_TRUE(src.has_rhs());
  EXPECT_TRUE(cap.has_rhs());
  EXPECT_TRUE(ind.has_rhs());

  std::vector<double> x(n), x_prev(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.3 + 0.1 * static_cast<double>(i);
    x_prev[i] = -0.2 * static_cast<double>(i);
  }
  int matrix_only = 0;
  for (const auto& dev : ckt.devices()) {
    if (dev->has_rhs()) continue;
    ++matrix_only;
    RhsCounter counter;
    for (const double scale : {0.25, 1.0}) {
      dev->stamp(counter, SimState{x, x_prev, 0.0, 0.0, true, scale});
      dev->post_dc(SimState{x, x, 0.0, 0.0, true, 1.0});
      for (int k = 1; k <= 3; ++k) {
        const double t = 1e-11 * k;
        dev->start_step(SimState{x_prev, x_prev, t, 1e-11, false, scale});
        dev->stamp(counter, SimState{x, x_prev, t, 1e-11, false, scale});
        dev->commit(SimState{x, x_prev, t, 1e-11, false, scale});
      }
    }
    EXPECT_EQ(counter.calls, 0);
  }
  EXPECT_EQ(matrix_only, 3);

  // The port-reduced engine's per-step right-hand-side list leaves out
  // exactly the matrix-only linear devices.
  NewtonWorkspace ws;
  TransientOptions opt;
  opt.dt = 1e-11;
  opt.t_stop = 5e-11;
  run_transient(ckt, opt, ws);
  EXPECT_EQ(ws.linear_devs.size(), 6u);
  EXPECT_EQ(ws.rhs_devs.size(), 3u);
  for (const Device* dev : ws.rhs_devs) EXPECT_TRUE(dev->has_rhs());
}

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "core/circuit_dut.hpp"
#include "core/receiver_device.hpp"
#include "core/receiver_estimator.hpp"
#include "core/validation.hpp"
#include "signal/sources.hpp"

using namespace emc;

class ReceiverModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = new dev::ReceiverTech(dev::ReceiverTech::md4_ibm18());
    dut_ = new core::CircuitReceiverDut(*tech_);
    model_ = new core::ParametricReceiverModel(core::estimate_receiver_model(*dut_));
    cr_ = new core::CrReceiverModel(core::estimate_cr_model(*dut_));
  }
  static void TearDownTestSuite() {
    delete cr_;
    delete model_;
    delete dut_;
    delete tech_;
    cr_ = nullptr;
    model_ = nullptr;
    dut_ = nullptr;
    tech_ = nullptr;
  }

  /// Record the reference response to a trapezoid of given amplitude.
  static core::PortRecord trapezoid_record(double amp, double rs, double t_stop) {
    auto tz = sig::trapezoid(0.0, amp, 0.4e-9, 0.1e-9, 3e-9, 0.1e-9);
    return dut_->forced_response(tz, rs, 25e-12, t_stop);
  }

  static dev::ReceiverTech* tech_;
  static core::CircuitReceiverDut* dut_;
  static core::ParametricReceiverModel* model_;
  static core::CrReceiverModel* cr_;
};

namespace {

/// The clamp-fit dataset of core::estimate_receiver_model, rebuilt from
/// the same multilevel record: FIR voltage taps against the residual the
/// linear submodel leaves.
struct ClampData {
  linalg::Matrix x;
  std::vector<double> y;
};

ClampData clamp_dataset(const core::ReceiverDut& dut, const ident::ArxModel& lin,
                        double v_min, double v_max, std::uint64_t seed,
                        const core::ReceiverEstimationOptions& opt) {
  const auto sig = sig::multilevel_signal(v_min, v_max, opt.n_levels, opt.n_steps,
                                          opt.t_hold, opt.t_edge, seed);
  const double t_stop = (opt.t_hold + opt.t_edge) * (opt.n_steps + 2);
  const auto rec = dut.forced_response(sig, opt.rs, opt.ts, t_stop);
  const auto i_lin = ident::simulate_arx(lin, rec.v.samples());
  const auto taps = static_cast<std::size_t>(opt.nl_taps);
  const std::size_t n_rows = rec.v.size() - taps;
  ClampData d{linalg::Matrix(n_rows, taps), std::vector<double>(n_rows)};
  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::size_t k = r + taps - 1;
    for (std::size_t j = 0; j < taps; ++j) d.x(r, j) = rec.v[k - j];
    d.y[r] = rec.i[k] - i_lin[k];
  }
  return d;
}

/// The receiver's former sigma selection, kept as the oracle of the clamp
/// fits: per sigma an OLS fit on the first 3/4 of the rows, scored by the
/// one-step squared error on the rest; the first strict minimum wins and
/// is refitted on every row.
ident::RbfModel one_step_sigma_oracle(const linalg::Matrix& x, std::span<const double> y,
                                      int max_basis) {
  const std::size_t n = x.rows();
  const std::size_t n_train = std::max<std::size_t>(n * 3 / 4, 1);
  linalg::Matrix x_train(n_train, x.cols());
  for (std::size_t r = 0; r < n_train; ++r)
    for (std::size_t c = 0; c < x.cols(); ++c) x_train(r, c) = x(r, c);
  ident::RbfFitOptions o;
  o.max_basis = max_basis;
  double best_err = std::numeric_limits<double>::infinity();
  double best_sigma = 0.7;
  for (double s : {0.7, 1.0, 1.5, 2.2, 3.2}) {
    o.sigma = s;
    const auto m = ident::OlsPath(x_train, y.first(n_train), o)
                       .model(static_cast<std::size_t>(max_basis));
    double err = 0.0;
    for (std::size_t r = n_train; r < n; ++r) {
      const double e = m.eval(x.row(r)) - y[r];
      err += e * e;
    }
    if (err < best_err) {
      best_err = err;
      best_sigma = s;
    }
  }
  o.sigma = best_sigma;
  return ident::OlsPath(x, y, o).model(static_cast<std::size_t>(max_basis));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const ident::RbfModel& a, const ident::RbfModel& b,
                      const std::string& what) {
  EXPECT_EQ(bits(a.sigma()), bits(b.sigma())) << what << ": sigma " << a.sigma();
  EXPECT_EQ(bits(a.bias()), bits(b.bias())) << what;
  ASSERT_EQ(a.scaler().dim(), b.scaler().dim()) << what;
  for (std::size_t k = 0; k < a.scaler().dim(); ++k) {
    EXPECT_EQ(bits(a.scaler().mean()[k]), bits(b.scaler().mean()[k])) << what;
    EXPECT_EQ(bits(a.scaler().scale()[k]), bits(b.scaler().scale()[k])) << what;
  }
  ASSERT_EQ(a.weights().size(), b.weights().size()) << what;
  for (std::size_t j = 0; j < a.weights().size(); ++j)
    EXPECT_EQ(bits(a.weights()[j]), bits(b.weights()[j])) << what << ": weight " << j;
  ASSERT_EQ(a.centers().rows(), b.centers().rows()) << what;
  ASSERT_EQ(a.centers().cols(), b.centers().cols()) << what;
  for (std::size_t j = 0; j < a.centers().rows(); ++j)
    for (std::size_t k = 0; k < a.centers().cols(); ++k)
      EXPECT_EQ(bits(a.centers()(j, k)), bits(b.centers()(j, k))) << what << ": center " << j;
}

}  // namespace

dev::ReceiverTech* ReceiverModelTest::tech_ = nullptr;
core::CircuitReceiverDut* ReceiverModelTest::dut_ = nullptr;
core::ParametricReceiverModel* ReceiverModelTest::model_ = nullptr;
core::CrReceiverModel* ReceiverModelTest::cr_ = nullptr;

TEST_F(ReceiverModelTest, LinearRegionParametricBeatsCr) {
  // Paper Figure 5: inside the rails the parametric model tracks the
  // reference current closely; the C-R model is a rough approximation.
  const auto rec = trapezoid_record(1.0, 10.0, 5e-9);
  const auto i_par = core::simulate_receiver_on_voltage(*model_, rec.v);
  const auto i_cr = core::simulate_cr_on_voltage(*cr_, rec.v);

  const auto rep_par = core::validate_waveform("par", rec.i, i_par, 0.02);
  const auto rep_cr = core::validate_waveform("cr", rec.i, i_cr, 0.02);
  EXPECT_LT(rep_par.rel_rms, 0.10);
  EXPECT_GT(rep_cr.rel_rms, 1.5 * rep_par.rel_rms);
}

TEST_F(ReceiverModelTest, NonlinearRegionParametricStaysAccurate) {
  // Amplitudes beyond VDD engage the protection clamps (paper Figure 6).
  for (double amp : {2.5, 3.3}) {
    const auto rec = trapezoid_record(amp, 50.0, 6e-9);
    const auto i_par = core::simulate_receiver_on_voltage(*model_, rec.v);
    const auto rep = core::validate_waveform("par", rec.i, i_par, 0.02);
    EXPECT_LT(rep.rel_rms, 0.10) << "amp = " << amp;
  }
}

TEST_F(ReceiverModelTest, ClampFitsMatchOneStepSigmaOracleBitwise) {
  // The clamps select sigma through ident::fit_rbf_best; with voltage-only
  // regressors that must reproduce the one-step held-out selection bit
  // for bit.
  const core::ReceiverEstimationOptions opt;
  const double vdd = dut_->vdd();
  const auto up = clamp_dataset(*dut_, model_->lin, vdd - 0.15, vdd + opt.v_beyond,
                                opt.seed + 11, opt);
  const auto dn = clamp_dataset(*dut_, model_->lin, -opt.v_beyond, 0.15, opt.seed + 22, opt);
  expect_same_bits(model_->up, one_step_sigma_oracle(up.x, up.y, opt.max_basis_clamp), "up");
  expect_same_bits(model_->dn, one_step_sigma_oracle(dn.x, dn.y, opt.max_basis_clamp), "dn");
}

TEST_F(ReceiverModelTest, LinearSubmodelIsNearlyLossless) {
  // A receiver inside the rails is capacitive: near-zero DC gain.
  EXPECT_NEAR(model_->lin.dc_gain(), 0.0, 1e-4);
}

TEST_F(ReceiverModelTest, StaticCurrentClampShape) {
  // Tiny leakage inside the rails, strong conduction beyond them.
  EXPECT_NEAR(model_->static_current(0.9), 0.0, 2e-3);
  EXPECT_GT(model_->static_current(tech_->vdd + 1.0), 5e-3);
  EXPECT_LT(model_->static_current(-1.0), -5e-3);
}

TEST_F(ReceiverModelTest, CrModelCapacitanceMatchesTechnology) {
  const double c_expected = tech_->c_pad + tech_->c_esd;
  EXPECT_NEAR(cr_->c, c_expected, 0.25 * c_expected);
}

TEST_F(ReceiverModelTest, CrTableIsMonotone) {
  for (std::size_t k = 1; k < cr_->iv.size(); ++k)
    EXPECT_GE(cr_->iv[k].second, cr_->iv[k - 1].second - 1e-6);
}

TEST_F(ReceiverModelTest, DeviceClosedLoopMatchesReferencePinVoltage) {
  // Replace the reference receiver by the macromodel at the end of a
  // resistive divider and compare the resulting pin voltages.
  auto run = [&](bool use_model) {
    ckt::Circuit c;
    const int src = c.node();
    const int pin = c.node();
    auto tz = sig::trapezoid(0.0, 2.5, 0.4e-9, 0.1e-9, 2e-9, 0.1e-9);
    c.add<ckt::VSource>(src, c.ground(), [tz](double t) { return tz(t); });
    c.add<ckt::Resistor>(src, pin, 50.0);
    if (use_model) {
      c.add<core::ReceiverDevice>(pin, *model_);
    } else {
      auto inst = dev::build_reference_receiver(c, *tech_);
      c.add<ckt::Resistor>(inst.pin, pin, 1e-3);
    }
    ckt::TransientOptions topt;
    topt.dt = 25e-12;
    topt.t_stop = 5e-9;
    auto res = ckt::run_transient(c, topt);
    return res.waveform(pin);
  };
  const auto v_ref = run(false);
  const auto v_mod = run(true);
  const auto rep = core::validate_waveform("pin", v_ref, v_mod, 1.25, 0.2e-9);
  EXPECT_LT(rep.rel_rms, 0.05);
  ASSERT_TRUE(rep.timing_error.has_value());
  EXPECT_LT(*rep.timing_error, 20e-12);
}

TEST_F(ReceiverModelTest, CrDeviceBuildsAndClamps) {
  ckt::Circuit c;
  const int src = c.node();
  const int pin = c.node();
  auto tz = sig::trapezoid(0.0, 3.3, 0.4e-9, 0.1e-9, 2e-9, 0.1e-9);
  c.add<ckt::VSource>(src, c.ground(), [tz](double t) { return tz(t); });
  c.add<ckt::Resistor>(src, pin, 50.0);
  core::add_cr_receiver(c, pin, *cr_);
  ckt::TransientOptions topt;
  topt.dt = 25e-12;
  topt.t_stop = 5e-9;
  auto res = ckt::run_transient(c, topt);
  const auto v = res.waveform(pin);
  // The static clamp must keep the pin well below the source amplitude.
  EXPECT_LT(v.max_value(), 3.1);
}

TEST_F(ReceiverModelTest, CrDeviceValidation) {
  ckt::Circuit c;
  core::CrReceiverModel empty;
  EXPECT_THROW(core::add_cr_receiver(c, 1, empty), std::invalid_argument);
}

TEST_F(ReceiverModelTest, DeviceRequiresMatchingTimeStep) {
  ckt::Circuit c;
  const int pin = c.node();
  c.add<ckt::Resistor>(pin, c.ground(), 50.0);
  c.add<core::ReceiverDevice>(pin, *model_);
  ckt::TransientOptions topt;
  topt.dt = 10e-12;
  topt.t_stop = 1e-9;
  EXPECT_THROW(ckt::run_transient(c, topt), std::runtime_error);
}

TEST_F(ReceiverModelTest, SimulateValidation) {
  EXPECT_THROW(core::simulate_receiver_on_voltage(*model_, sig::Waveform()),
               std::invalid_argument);
  EXPECT_THROW(core::simulate_cr_on_voltage(*cr_, sig::Waveform()), std::invalid_argument);
}

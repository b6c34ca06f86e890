// Spectrum, EMI-receiver and limit-mask layers of the spectral EMC
// subsystem (the FFT layer has its own test binary).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "emc/limits.hpp"
#include "emc/receiver.hpp"
#include "emc/spectrum.hpp"
#include "signal/waveform.hpp"

using namespace emc;
using spec::Window;

namespace {

sig::Waveform tone(double amplitude, double freq, double fs, std::size_t n) {
  return sig::Waveform::sample(
      [=](double t) { return amplitude * std::sin(2.0 * std::numbers::pi * freq * t); }, 0.0,
      1.0 / fs, n);
}

}  // namespace

// ---------------------------------------------------------------- windows

TEST(EmcWindow, GainsOfStandardWindows) {
  const auto rect = spec::make_window(Window::kRectangular, 64);
  EXPECT_DOUBLE_EQ(rect.coherent_gain, 1.0);
  EXPECT_DOUBLE_EQ(rect.noise_gain, 1.0);

  // Periodic Hann: mean = 1/2 and mean-square = 3/8 exactly.
  const auto hann = spec::make_window(Window::kHann, 64);
  EXPECT_NEAR(hann.coherent_gain, 0.5, 1e-12);
  EXPECT_NEAR(hann.noise_gain, 0.375, 1e-12);

  const auto ft = spec::make_window(Window::kFlatTop, 64);
  EXPECT_NEAR(ft.coherent_gain, 0.21557895, 1e-9);
  EXPECT_GT(ft.noise_gain, ft.coherent_gain * ft.coherent_gain);
}

// ------------------------------------------------------- amplitude spectra

TEST(EmcSpectrum, HannExactOnBinCenteredTone) {
  const std::size_t n = 1024;
  const double fs = 1024.0;
  const auto w = tone(0.7, 128.0, fs, n);  // exactly bin 128
  const auto s = spec::amplitude_spectrum(w, Window::kHann);
  ASSERT_EQ(s.size(), n / 2 + 1);
  EXPECT_NEAR(s.df, 1.0, 1e-12);
  EXPECT_NEAR(s.value[128], 0.7, 1e-9);
  EXPECT_NEAR(s.value[300], 0.0, 1e-9);  // far-away bin stays clean
}

TEST(EmcSpectrum, FlatTopAmplitudeAccurateWithinPoint05Db) {
  // Acceptance criterion: worst-case scalloping (tone exactly between two
  // bins) stays within 0.05 dB of the true amplitude.
  const std::size_t n = 1024;
  const double fs = 1024.0;
  const auto w = tone(1.0, 100.5, fs, n);
  const auto s = spec::amplitude_spectrum(w, Window::kFlatTop);
  double peak = 0.0;
  for (double v : s.value) peak = std::max(peak, v);
  EXPECT_LT(std::abs(20.0 * std::log10(peak)), 0.05);

  // And a bin-centered tone reads essentially exactly.
  const auto s2 = spec::amplitude_spectrum(tone(1.0, 100.0, fs, n), Window::kFlatTop);
  EXPECT_NEAR(s2.value[100], 1.0, 1e-6);
}

TEST(EmcSpectrum, DbuvConversion) {
  // A sine of amplitude sqrt(2) has RMS 1 V = 120 dBuV.
  const auto w = tone(std::numbers::sqrt2, 64.0, 1024.0, 1024);
  const auto s = spec::amplitude_spectrum_dbuv(w, Window::kHann);
  EXPECT_NEAR(s.value[64], 120.0, 1e-6);

  EXPECT_NEAR(spec::volts_to_dbuv(1.0), 120.0, 1e-12);
  EXPECT_NEAR(spec::volts_to_dbuv(1e-6), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(spec::volts_to_dbuv(0.0), -120.0);  // clamped floor
}

TEST(EmcSpectrum, DcBinIsNotDoubled) {
  const auto w = sig::Waveform::sample([](double) { return 2.5; }, 0.0, 1e-3, 256);
  const auto s = spec::amplitude_spectrum(w, Window::kRectangular);
  EXPECT_NEAR(s.value[0], 2.5, 1e-12);
  EXPECT_NEAR(s.value[5], 0.0, 1e-12);
}

// ------------------------------------------------------------ EMI receiver

namespace {

/// 100 kHz carrier pulsed at 10% duty (200 us bursts every 2 ms),
/// sampled at 1 MS/s for 20 ms.
sig::Waveform pulsed_carrier() {
  return sig::Waveform::sample(
      [](double t) {
        const double phase_in_frame = std::fmod(t, 2e-3);
        const double gate = phase_in_frame < 200e-6 ? 1.0 : 0.0;
        return gate * std::sin(2.0 * std::numbers::pi * 100e3 * t);
      },
      0.0, 1e-6, 20000);
}

spec::ReceiverSettings test_rx() {
  spec::ReceiverSettings s;
  s.name = "test";
  s.f_start = 50e3;
  s.f_stop = 200e3;
  s.n_points = 3;  // log-spaced: 50 kHz, 100 kHz, 200 kHz
  s.rbw = 20e3;
  s.tau_charge = 100e-6;
  s.tau_discharge = 2e-3;
  return s;
}

}  // namespace

TEST(EmcReceiver, QuasiPeakLiesBetweenAverageAndPeakOnPulsedSignal) {
  // Acceptance criterion. 10% duty: the average detector reads far below
  // the carrier, the peak detector reads the full burst amplitude, and the
  // quasi-peak charge/discharge circuit lands in between.
  const auto scan = spec::emi_scan(pulsed_carrier(), test_rx());
  ASSERT_EQ(scan.size(), 3u);
  EXPECT_NEAR(scan.freq[1], 100e3, 1.0);  // geometric middle point

  const double peak = scan.peak_dbuv[1];
  const double qp = scan.quasi_peak_dbuv[1];
  const double avg = scan.average_dbuv[1];
  EXPECT_LT(qp, peak);
  EXPECT_GT(qp, avg + 3.0);
  // Full burst amplitude 1 V peak = 117 dBuV at the detector.
  EXPECT_NEAR(peak, 117.0, 1.5);
  // 10% duty cycle: average roughly 20 dB below peak.
  EXPECT_LT(avg, peak - 12.0);
}

TEST(EmcReceiver, AllDetectorsAgreeOnContinuousTone) {
  const auto cw = sig::Waveform::sample(
      [](double t) { return std::sin(2.0 * std::numbers::pi * 100e3 * t); }, 0.0, 1e-6,
      20000);
  const auto scan = spec::emi_scan(cw, test_rx());
  const double peak = scan.peak_dbuv[1];
  EXPECT_NEAR(peak, 117.0, 1.0);
  EXPECT_NEAR(scan.quasi_peak_dbuv[1], peak, 1.5);
  EXPECT_NEAR(scan.average_dbuv[1], peak, 1.5);
  // An off-carrier scan point reads well below the tone.
  EXPECT_LT(scan.peak_dbuv[2], peak - 20.0);
}

TEST(EmcReceiver, CisprBandPresetsAndValidation) {
  const auto a = spec::ReceiverSettings::cispr_band_a();
  EXPECT_DOUBLE_EQ(a.rbw, 200.0);
  EXPECT_DOUBLE_EQ(a.f_start, 9e3);
  const auto b = spec::ReceiverSettings::cispr_band_b();
  EXPECT_DOUBLE_EQ(b.rbw, 9e3);
  EXPECT_DOUBLE_EQ(b.f_stop, 30e6);
  const auto scaled = b.with_time_scale(1e-3);
  EXPECT_NEAR(scaled.tau_charge, 1e-6, 1e-18);
  EXPECT_NEAR(scaled.tau_discharge, 160e-6, 1e-15);

  auto bad = test_rx();
  bad.rbw = 0.0;
  EXPECT_THROW(spec::emi_scan(pulsed_carrier(), bad), std::invalid_argument);
  bad = test_rx();
  bad.f_stop = bad.f_start;
  EXPECT_THROW(spec::emi_scan(pulsed_carrier(), bad), std::invalid_argument);

  // A record too short to resolve the RBW must refuse loudly rather than
  // silently reading the -120 dBuV floor (false compliance PASS).
  const auto short_record = sig::Waveform::sample(
      [](double t) { return std::sin(2.0 * std::numbers::pi * 50e3 * t); }, 0.0, 1e-6,
      256);  // 256 us: band A needs >= ~1 ms at RBW 200 Hz
  EXPECT_THROW(spec::emi_scan(short_record, spec::ReceiverSettings::cispr_band_a()),
               std::invalid_argument);
}

// ---------------------------------------------------------------- limits

TEST(EmcLimits, MaskInterpolatesInLogFrequency) {
  const auto mask = spec::LimitMask::cispr32_class_b_conducted_qp();
  EXPECT_NEAR(mask.at(150e3), 66.0, 1e-9);
  EXPECT_NEAR(mask.at(500e3), 56.0, 1e-9);
  // Halfway in log10(f) between 150 and 500 kHz: halfway in dB.
  EXPECT_NEAR(mask.at(std::sqrt(150e3 * 500e3)), 61.0, 1e-9);
  EXPECT_NEAR(mask.at(1e6), 56.0, 1e-9);
  // Step at 5 MHz: the upper segment wins at the boundary.
  EXPECT_NEAR(mask.at(5e6), 60.0, 1e-9);
  EXPECT_NEAR(mask.at(30e6), 60.0, 1e-9);

  EXPECT_FALSE(mask.covers(100e3));
  EXPECT_FALSE(mask.covers(40e6));
  EXPECT_TRUE(std::isnan(mask.at(100e3)));

  const auto avg = spec::LimitMask::cispr32_class_b_conducted_avg();
  EXPECT_NEAR(avg.at(150e3), 56.0, 1e-9);
  const auto a_qp = spec::LimitMask::cispr32_class_a_conducted_qp();
  EXPECT_NEAR(a_qp.at(200e3), 79.0, 1e-9);
  EXPECT_NEAR(a_qp.at(10e6), 73.0, 1e-9);
}

TEST(EmcLimits, ComplianceReportFindsWorstMargin) {
  const auto mask = spec::LimitMask::cispr32_class_b_conducted_qp();
  const std::vector<double> freq = {100e3, 200e3, 1e6, 10e6, 40e6};
  const std::vector<double> level = {90.0, 50.0, 58.5, 40.0, 95.0};
  // 100 kHz and 40 MHz are outside the mask; 1 MHz violates 56 by 2.5 dB.
  const auto rep = spec::check_compliance(freq, level, mask, "unit");
  ASSERT_EQ(rep.points.size(), 3u);
  EXPECT_FALSE(rep.pass);
  EXPECT_NEAR(rep.worst_margin_db, -2.5, 1e-9);
  EXPECT_NEAR(rep.points[rep.worst_index].f, 1e6, 1e-3);
  EXPECT_NE(rep.summary().find("FAIL"), std::string::npos);

  const std::vector<double> quiet = {90.0, 50.0, 49.0, 40.0, 95.0};
  const auto ok = spec::check_compliance(freq, quiet, mask, "unit");
  EXPECT_TRUE(ok.pass);
  EXPECT_NEAR(ok.worst_margin_db, 7.0, 1e-9);  // 56 dBuV limit at 1 MHz
  EXPECT_NE(ok.summary().find("PASS"), std::string::npos);
}

TEST(EmcLimits, EmptyIntersectionPasses) {
  spec::LimitMask mask{"narrow", {{1e6, 60.0}, {2e6, 60.0}}};
  const std::vector<double> freq = {10e3, 100e3};
  const std::vector<double> level = {200.0, 200.0};
  const auto rep = spec::check_compliance(freq, level, mask, "oob");
  EXPECT_TRUE(rep.pass);
  EXPECT_TRUE(rep.points.empty());
  EXPECT_NE(rep.summary().find("no points"), std::string::npos);
}

TEST(EmcLimits, SpectrumOverloadUsesUniformGrid) {
  // A flat 70 dBuV spectrum against class A QP (73/79 dBuV) passes; the
  // same against class B QP (56-66 dBuV) fails everywhere in band.
  spec::Spectrum s;
  s.df = 100e3;
  s.value.assign(301, 70.0);  // 0 - 30 MHz
  const auto a = spec::check_compliance(s, spec::LimitMask::cispr32_class_a_conducted_qp());
  EXPECT_TRUE(a.pass);
  EXPECT_NEAR(a.worst_margin_db, 3.0, 1e-9);
  const auto b = spec::check_compliance(s, spec::LimitMask::cispr32_class_b_conducted_qp());
  EXPECT_FALSE(b.pass);
  EXPECT_NEAR(b.worst_margin_db, 56.0 - 70.0, 1e-9);
}

#include "emc/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <span>
#include <stdexcept>

#include "emc/fft.hpp"

namespace emc::spec {

namespace {

/// Cosine-sum window w[j] = sum_k (-1)^k a[k] cos(2*pi*k*j/n), DFT-even.
std::vector<double> cosine_sum(std::span<const double> a, std::size_t n) {
  std::vector<double> w(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double x = 2.0 * std::numbers::pi * static_cast<double>(j) / static_cast<double>(n);
    double acc = 0.0;
    double sign = 1.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      acc += sign * a[k] * std::cos(static_cast<double>(k) * x);
      sign = -sign;
    }
    w[j] = acc;
  }
  return w;
}

}  // namespace

WindowData make_window(Window kind, std::size_t n) {
  if (n == 0) throw std::invalid_argument("make_window: empty window");
  WindowData out;
  switch (kind) {
    case Window::kRectangular:
      out.w.assign(n, 1.0);
      break;
    case Window::kHann: {
      const double a[] = {0.5, 0.5};
      out.w = cosine_sum(a, n);
      break;
    }
    case Window::kFlatTop: {
      // 5-term flat-top (SRS / SciPy "flattop"): < 0.01 dB scalloping loss.
      const double a[] = {0.21557895, 0.41663158, 0.277263158, 0.083578947, 0.006947368};
      out.w = cosine_sum(a, n);
      break;
    }
  }
  double s1 = 0.0, s2 = 0.0;
  for (double v : out.w) {
    s1 += v;
    s2 += v * v;
  }
  out.coherent_gain = s1 / static_cast<double>(n);
  out.noise_gain = s2 / static_cast<double>(n);
  return out;
}

double volts_to_dbuv(double v_rms) {
  constexpr double kFloor = 1e-12;  // -120 dBuV
  return 20.0 * std::log10(std::max(v_rms, kFloor) / 1e-6);
}

Spectrum amplitude_spectrum(const sig::Waveform& w, Window win) {
  const std::size_t n = w.size();
  if (n < 2) throw std::invalid_argument("amplitude_spectrum: need at least 2 samples");

  const WindowData wd = make_window(win, n);
  std::vector<double> x(n);
  for (std::size_t k = 0; k < n; ++k) x[k] = w[k] * wd.w[k];

  FftPlan plan(n);
  std::vector<std::complex<double>> bins;
  plan.forward_real(x, bins);

  Spectrum out;
  out.df = 1.0 / (w.dt() * static_cast<double>(n));
  out.value.resize(bins.size());
  const double base = 1.0 / (static_cast<double>(n) * wd.coherent_gain);
  for (std::size_t k = 0; k < bins.size(); ++k) {
    // Single-sided fold: interior bins carry the conjugate pair's energy;
    // DC and (for even n) Nyquist do not.
    const bool paired = k != 0 && !(n % 2 == 0 && k == n / 2);
    out.value[k] = std::abs(bins[k]) * base * (paired ? 2.0 : 1.0);
  }
  return out;
}

Spectrum amplitude_spectrum_dbuv(const sig::Waveform& w, Window win) {
  Spectrum s = amplitude_spectrum(w, win);
  for (std::size_t k = 0; k < s.value.size(); ++k) {
    const double v_rms = k == 0 ? s.value[k] : s.value[k] / std::numbers::sqrt2;
    s.value[k] = volts_to_dbuv(v_rms);
  }
  return s;
}

}  // namespace emc::spec

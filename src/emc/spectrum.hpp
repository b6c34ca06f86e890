// Spectral analysis of sig::Waveform records: windowing and single-shot
// amplitude spectra (the EMC engineer's dBuV-vs-frequency view).
#pragma once

#include <cstddef>
#include <vector>

#include "signal/waveform.hpp"

namespace emc::spec {

/// Analysis windows. All are generated in DFT-even ("periodic") form so a
/// bin-centered tone is measured exactly.
enum class Window {
  kRectangular,  ///< no taper; exact for coherently sampled periodic records
  kHann,         ///< general-purpose, -31.5 dB sidelobes
  kFlatTop,      ///< amplitude-accurate (<0.01 dB scalloping), wide main lobe
};

/// Window samples plus the gains needed to undo its effect:
/// coherent_gain = mean(w) corrects tone amplitudes, noise_gain = mean(w^2)
/// corrects power/PSD estimates.
struct WindowData {
  std::vector<double> w;
  double coherent_gain = 1.0;
  double noise_gain = 1.0;
};

WindowData make_window(Window kind, std::size_t n);

/// A one-sided spectrum on the uniform frequency grid k * df, k = 0..n/2
/// (interior bins already carry their conjugate pair's contribution).
/// `value` units depend on the producer: volts (peak) for
/// amplitude_spectrum, dBuV for amplitude_spectrum_dbuv.
struct Spectrum {
  double df = 0.0;
  std::vector<double> value;

  std::size_t size() const { return value.size(); }
  double frequency_at(std::size_t k) const { return df * static_cast<double>(k); }
  double operator[](std::size_t k) const { return value[k]; }
};

/// RMS voltage -> dBuV (the EMI-receiver unit): 20*log10(v_rms / 1 uV).
/// Clamped at -120 dBuV so exact zeros stay finite.
double volts_to_dbuv(double v_rms);

/// Single-shot amplitude spectrum: window, FFT, single-sided fold and
/// coherent-gain correction. value[k] is the peak amplitude (volts) of the
/// spectral component at k*df; a pure tone A*sin(2*pi*f*t) on a bin reads
/// exactly A.
Spectrum amplitude_spectrum(const sig::Waveform& w, Window win = Window::kHann);

/// Amplitude spectrum converted to dBuV of the equivalent sine RMS
/// (value / sqrt(2), except the DC bin which is already an RMS level).
Spectrum amplitude_spectrum_dbuv(const sig::Waveform& w, Window win = Window::kHann);

}  // namespace emc::spec

// ARX (AutoRegression with eXtra input) estimation — the linear submodel
// of the paper's receiver model (eq. 2):
//   i(k) = sum_{j=0..nb} b_j v(k-j) + sum_{j=1..na} a_j i(k-j)
#pragma once

#include <span>
#include <vector>

#include "signal/waveform.hpp"

namespace emc::ident {

struct ArxModel {
  std::vector<double> b;  ///< input taps b0..b_nb (b0 multiplies v(k))
  std::vector<double> a;  ///< output feedback taps a1..a_na

  int nb() const { return static_cast<int>(b.size()) - 1; }
  int na() const { return static_cast<int>(a.size()); }
  int history() const { return std::max(nb(), na()); }

  /// One-step prediction from explicit histories (newest first):
  /// v_hist = [v(k), v(k-1), ...], i_hist = [i(k-1), i(k-2), ...].
  double predict(std::span<const double> v_hist, std::span<const double> i_hist) const;

  /// The same prediction with the newest input v(k) passed apart from the
  /// older taps v_tail = [v(k-1), v(k-2), ...] (a candidate head in front
  /// of a committed history, without copying it).
  double predict(double v_head, std::span<const double> v_tail,
                 std::span<const double> i_hist) const;

  /// DC gain i/v for a constant input (throws if the AR part is unstable
  /// in the sense of unit-sum feedback).
  double dc_gain() const;
};

/// Least-squares ARX fit from aligned waveforms.
ArxModel fit_arx(const sig::Waveform& v, const sig::Waveform& i, int na, int nb);

/// Free-run simulation over an input sequence; the first history() output
/// samples are taken from i_init (zero-padded if shorter).
std::vector<double> simulate_arx(const ArxModel& m, std::span<const double> v,
                                 std::span<const double> i_init = {});

}  // namespace emc::ident

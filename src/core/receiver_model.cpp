#include "core/receiver_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emc::core {

namespace {

/// The first `taps` entries of `buf`, checked against the RBF input cap.
std::span<double> clamp_input(ident::RbfModel::InputBuf& buf, int taps) {
  const auto n = static_cast<std::size_t>(std::max(taps, 0));
  if (n > buf.size())
    throw std::invalid_argument("ParametricReceiverModel: nl_taps above 64 inputs");
  return {buf.data(), n};
}

/// Evaluate an RBF clamp submodel on [v, v_hist...] (nl_taps inputs).
/// An unfitted (default) submodel contributes nothing.
double eval_clamp(const ident::RbfModel& f, int taps, double v,
                  std::span<const double> v_hist, double* d_dv) {
  if (f.input_dim() == 0) {
    if (d_dv) *d_dv = 0.0;
    return 0.0;
  }
  ident::RbfModel::InputBuf buf;
  const std::span<double> x = clamp_input(buf, taps);
  for (std::size_t j = 0; j < x.size(); ++j) x[j] = j == 0 ? v : v_hist[j - 1];
  return d_dv ? f.eval_with_grad(x, 0, d_dv) : f.eval(x);
}

/// A clamp submodel's output with every voltage tap at v (0 if unfitted).
double eval_clamp_static(const ident::RbfModel& f, int taps, double v) {
  if (f.input_dim() == 0) return 0.0;
  ident::RbfModel::InputBuf buf;
  const std::span<double> x = clamp_input(buf, taps);
  std::fill(x.begin(), x.end(), v);
  return f.eval(x);
}

}  // namespace

double ParametricReceiverModel::linear_current(double v, std::span<const double> v_hist,
                                               std::span<const double> ilin_hist) const {
  return lin.predict(v, v_hist, ilin_hist.first(lin.a.size()));
}

double ParametricReceiverModel::current(double v, std::span<const double> v_hist,
                                        std::span<const double> ilin_hist,
                                        double* d_dv) const {
  const double i_lin = linear_current(v, v_hist, ilin_hist);
  double g_up = 0.0, g_dn = 0.0;
  const double i_up = eval_clamp(up, nl_taps, v, v_hist, d_dv ? &g_up : nullptr);
  const double i_dn = eval_clamp(dn, nl_taps, v, v_hist, d_dv ? &g_dn : nullptr);
  if (d_dv) *d_dv = lin.b.empty() ? (g_up + g_dn) : (lin.b[0] + g_up + g_dn);
  return i_lin + i_up + i_dn;
}

double ParametricReceiverModel::static_current(double v) const {
  // Steady ARX output: i_ss = dc_gain * v for a stable AR part.
  double i_lin = 0.0;
  try {
    i_lin = lin.dc_gain() * v;
  } catch (const std::runtime_error&) {
    i_lin = 0.0;  // marginal AR part: treat as zero static gain
  }
  const double i_up = eval_clamp_static(up, nl_taps, v);
  const double i_dn = eval_clamp_static(dn, nl_taps, v);
  return i_lin + i_up + i_dn;
}

sig::Waveform simulate_receiver_on_voltage(const ParametricReceiverModel& m,
                                           const sig::Waveform& v) {
  if (v.empty()) throw std::invalid_argument("simulate_receiver_on_voltage: empty input");
  const std::size_t hv = std::max<std::size_t>(
      m.lin.b.size() > 0 ? m.lin.b.size() - 1 : 0, static_cast<std::size_t>(m.nl_taps - 1));
  std::vector<double> v_hist(std::max<std::size_t>(hv, 1), v[0]);
  std::vector<double> ilin_hist(std::max<std::size_t>(m.lin.a.size(), 1), 0.0);

  std::vector<double> i(v.size());
  for (std::size_t k = 0; k < v.size(); ++k) {
    const double i_lin = m.linear_current(v[k], v_hist, ilin_hist);
    i[k] = m.current(v[k], v_hist, ilin_hist);
    // Shift histories (newest first).
    for (std::size_t j = v_hist.size(); j-- > 1;) v_hist[j] = v_hist[j - 1];
    v_hist[0] = v[k];
    for (std::size_t j = ilin_hist.size(); j-- > 1;) ilin_hist[j] = ilin_hist[j - 1];
    ilin_hist[0] = i_lin;
  }
  return sig::Waveform(v.t0(), v.dt(), std::move(i));
}

sig::Waveform simulate_cr_on_voltage(const CrReceiverModel& m, const sig::Waveform& v) {
  if (v.empty()) throw std::invalid_argument("simulate_cr_on_voltage: empty input");
  std::vector<double> i(v.size(), 0.0);
  // Static table lookup with end-slope extrapolation.
  auto table = [&](double vv) {
    if (m.iv.size() < 2) return 0.0;
    std::size_t hi = 1;
    if (vv >= m.iv.back().first) {
      hi = m.iv.size() - 1;
    } else if (vv > m.iv.front().first) {
      while (hi + 1 < m.iv.size() && m.iv[hi].first < vv) ++hi;
    }
    const auto& p0 = m.iv[hi - 1];
    const auto& p1 = m.iv[hi];
    const double slope = (p1.second - p0.second) / (p1.first - p0.first);
    return p0.second + slope * (vv - p0.first);
  };
  double i_cap_prev = 0.0;
  for (std::size_t k = 0; k < v.size(); ++k) {
    double i_cap = 0.0;
    if (k > 0) {
      // Trapezoidal companion, consistent with the circuit capacitor.
      i_cap = 2.0 * m.c / v.dt() * (v[k] - v[k - 1]) - i_cap_prev;
    }
    i_cap_prev = i_cap;
    i[k] = i_cap + table(v[k]);
  }
  return sig::Waveform(v.t0(), v.dt(), std::move(i));
}

}  // namespace emc::core

#include "ident/arx.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/decomp.hpp"
#include "linalg/matrix.hpp"

namespace emc::ident {

double ArxModel::predict(std::span<const double> v_hist,
                         std::span<const double> i_hist) const {
  if (v_hist.size() < b.size() || i_hist.size() < a.size())
    throw std::invalid_argument("ArxModel::predict: history too short");
  double y = 0.0;
  for (std::size_t j = 0; j < b.size(); ++j) y += b[j] * v_hist[j];
  for (std::size_t j = 0; j < a.size(); ++j) y += a[j] * i_hist[j];
  return y;
}

double ArxModel::predict(double v_head, std::span<const double> v_tail,
                         std::span<const double> i_hist) const {
  if (v_tail.size() + 1 < b.size() || i_hist.size() < a.size())
    throw std::invalid_argument("ArxModel::predict: history too short");
  double y = 0.0;
  for (std::size_t j = 0; j < b.size(); ++j) y += b[j] * (j == 0 ? v_head : v_tail[j - 1]);
  for (std::size_t j = 0; j < a.size(); ++j) y += a[j] * i_hist[j];
  return y;
}

double ArxModel::dc_gain() const {
  double asum = 0.0;
  for (double aj : a) asum += aj;
  double bsum = 0.0;
  for (double bj : b) bsum += bj;
  const double den = 1.0 - asum;
  if (std::abs(den) < 1e-12) throw std::runtime_error("ArxModel::dc_gain: marginal AR part");
  return bsum / den;
}

ArxModel fit_arx(const sig::Waveform& v, const sig::Waveform& i, int na, int nb) {
  if (v.size() != i.size()) throw std::invalid_argument("fit_arx: waveform length mismatch");
  if (na < 0 || nb < 0) throw std::invalid_argument("fit_arx: negative order");
  const int h = std::max(na, nb);
  if (static_cast<int>(v.size()) <= h + 2)
    throw std::invalid_argument("fit_arx: record too short");

  const std::size_t n_rows = v.size() - static_cast<std::size_t>(h);
  const std::size_t n_cols = static_cast<std::size_t>(nb + 1 + na);
  linalg::Matrix x(n_rows, n_cols);
  std::vector<double> y(n_rows);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::size_t k = r + static_cast<std::size_t>(h);
    std::size_t c = 0;
    for (int j = 0; j <= nb; ++j) x(r, c++) = v[k - static_cast<std::size_t>(j)];
    for (int j = 1; j <= na; ++j) x(r, c++) = i[k - static_cast<std::size_t>(j)];
    y[r] = i[k];
  }

  const auto theta = linalg::solve_ridge(x, y, 1e-12);
  ArxModel m;
  m.b.assign(theta.begin(), theta.begin() + nb + 1);
  m.a.assign(theta.begin() + nb + 1, theta.end());
  return m;
}

std::vector<double> simulate_arx(const ArxModel& m, std::span<const double> v,
                                 std::span<const double> i_init) {
  const auto h = static_cast<std::size_t>(m.history());
  std::vector<double> i(v.size(), 0.0);
  for (std::size_t k = 0; k < h && k < i.size(); ++k)
    i[k] = k < i_init.size() ? i_init[k] : 0.0;

  std::vector<double> v_hist(m.b.size());
  std::vector<double> i_hist(m.a.size());
  for (std::size_t k = h; k < v.size(); ++k) {
    for (std::size_t j = 0; j < m.b.size(); ++j)
      v_hist[j] = (k >= j) ? v[k - j] : v[0];
    for (std::size_t j = 0; j < m.a.size(); ++j) i_hist[j] = i[k - 1 - j];
    i[k] = m.predict(v_hist, i_hist);
  }
  return i;
}

}  // namespace emc::ident

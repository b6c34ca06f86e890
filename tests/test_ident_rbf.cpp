#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ident/rbf.hpp"
#include "linalg/matrix.hpp"
#include "signal/sources.hpp"

using namespace emc::ident;
namespace la = emc::linalg;

namespace {

/// Static nonlinear test function on [-2, 2].
double bump(double v) { return std::tanh(2.0 * v) + 0.3 * v; }

la::Matrix column(const std::vector<double>& v) {
  la::Matrix m(v.size(), 1);
  for (std::size_t r = 0; r < v.size(); ++r) m(r, 0) = v[r];
  return m;
}

/// Textbook OLS selection, kept as the oracle of OlsPath's fused loop:
/// every step recomputes p.p and p.y of each live candidate with
/// linalg::dot, picks the best error reduction, then deflates the target
/// and each remaining candidate by the pick in separate passes. Returns
/// the picked training rows in order.
std::vector<std::size_t> naive_ols_order(const la::Matrix& x, std::span<const double> y,
                                         const RbfFitOptions& opt) {
  const std::size_t n = x.rows();
  const Scaler scaler = Scaler::fit(x);
  const la::Matrix z = scaler.transform(x);
  const double inv2s2 = 1.0 / (2.0 * opt.sigma * opt.sigma);
  const auto kernel = [&](std::size_t r, std::size_t c) {
    double dist2 = 0.0;
    for (std::size_t k = 0; k < z.cols(); ++k) {
      const double d = z(r, k) - z(c, k);
      dist2 += d * d;
    }
    return std::exp(-dist2 * inv2s2);
  };

  std::vector<std::size_t> cand;
  if (n <= static_cast<std::size_t>(opt.max_candidates)) {
    cand.resize(n);
    std::iota(cand.begin(), cand.end(), 0);
  } else {
    emc::sig::Lcg rng(opt.seed);
    const double stride = static_cast<double>(n) / opt.max_candidates;
    for (int j = 0; j < opt.max_candidates; ++j) {
      const double base = stride * static_cast<double>(j);
      const auto idx = static_cast<std::size_t>(base + rng.uniform() * stride);
      cand.push_back(std::min(idx, n - 1));
    }
  }
  const std::size_t nc = cand.size();
  std::vector<std::vector<double>> p(nc, std::vector<double>(n));
  for (std::size_t c = 0; c < nc; ++c)
    for (std::size_t r = 0; r < n; ++r) p[c][r] = kernel(r, cand[c]);

  std::vector<double> yres(y.begin(), y.end());
  const double ymean = std::accumulate(yres.begin(), yres.end(), 0.0) / static_cast<double>(n);
  for (auto& v : yres) v -= ymean;
  for (auto& col : p) {
    const double m = std::accumulate(col.begin(), col.end(), 0.0) / static_cast<double>(n);
    for (auto& v : col) v -= m;
  }

  const double y_energy = std::max(la::dot(yres, yres), 1e-30);
  std::vector<bool> used(nc, false);
  std::vector<std::size_t> order;
  const int n_select = std::min<int>(opt.max_basis, static_cast<int>(nc));
  for (int step = 0; step < n_select; ++step) {
    double best_err = 0.0;
    std::size_t best_c = nc;
    for (std::size_t c = 0; c < nc; ++c) {
      if (used[c]) continue;
      const double pp = la::dot(p[c], p[c]);
      if (pp < 1e-20) continue;
      const double py = la::dot(p[c], yres);
      const double err = py * py / (pp * y_energy);
      if (err > best_err) {
        best_err = err;
        best_c = c;
      }
    }
    if (best_c == nc || best_err < opt.min_err_reduction) break;
    used[best_c] = true;
    order.push_back(cand[best_c]);

    const double qq = la::dot(p[best_c], p[best_c]);
    const std::vector<double> q = p[best_c];
    const double qy = la::dot(q, yres) / qq;
    for (std::size_t r = 0; r < n; ++r) yres[r] -= qy * q[r];
    for (std::size_t c = 0; c < nc; ++c) {
      if (used[c]) continue;
      const double qc = la::dot(q, p[c]) / qq;
      for (std::size_t r = 0; r < n; ++r) p[c][r] -= qc * q[r];
    }
  }
  return order;
}

}  // namespace

TEST(Scaler, StandardizesColumns) {
  la::Matrix x(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    x(r, 0) = static_cast<double>(r);  // mean 1.5
    x(r, 1) = 10.0;                    // constant
  }
  const Scaler s = Scaler::fit(x);
  EXPECT_NEAR(s.mean()[0], 1.5, 1e-12);
  EXPECT_NEAR(s.mean()[1], 10.0, 1e-12);
  EXPECT_NEAR(s.scale()[1], 1.0, 1e-12);  // constant column passes through

  const la::Matrix z = s.transform(x);
  double m0 = 0.0, v0 = 0.0;
  for (std::size_t r = 0; r < 4; ++r) m0 += z(r, 0);
  EXPECT_NEAR(m0, 0.0, 1e-12);
  for (std::size_t r = 0; r < 4; ++r) v0 += z(r, 0) * z(r, 0);
  EXPECT_NEAR(std::sqrt(v0 / 4.0), 1.0, 1e-12);
}

TEST(NarxDataset, LayoutMatchesDefinition) {
  // v = [0,1,2,3,4], i = [10,11,12,13,14], orders nv=1, ni=2.
  emc::sig::Waveform v(0.0, 1.0, {0, 1, 2, 3, 4});
  emc::sig::Waveform i(0.0, 1.0, {10, 11, 12, 13, 14});
  NarxOrders ord{1, 2};
  const auto ds = build_narx_dataset(v, i, ord);
  ASSERT_EQ(ds.x.rows(), 3u);  // k = 2, 3, 4
  ASSERT_EQ(ds.x.cols(), 4u);  // v(k), v(k-1), i(k-1), i(k-2)
  // First row: k = 2 -> [2, 1, 11, 10], y = 12.
  EXPECT_DOUBLE_EQ(ds.x(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(ds.x(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ds.x(0, 2), 11.0);
  EXPECT_DOUBLE_EQ(ds.x(0, 3), 10.0);
  EXPECT_DOUBLE_EQ(ds.y[0], 12.0);
}

TEST(NarxDataset, Validation) {
  emc::sig::Waveform v(0.0, 1.0, {0, 1});
  emc::sig::Waveform i(0.0, 1.0, {0, 1, 2});
  EXPECT_THROW(build_narx_dataset(v, i, NarxOrders{}), std::invalid_argument);
  emc::sig::Waveform i2(0.0, 1.0, {0, 1});
  EXPECT_THROW(build_narx_dataset(v, i2, NarxOrders{2, 2}), std::invalid_argument);
}

TEST(NarxRegressor, FillMatchesDataset) {
  std::vector<double> v_hist{5.0, 4.0, 3.0};  // v(k), v(k-1), v(k-2)
  std::vector<double> i_hist{2.0, 1.0};       // i(k-1), i(k-2)
  NarxOrders ord{2, 2};
  std::vector<double> reg(5);
  fill_narx_regressor(v_hist, i_hist, ord, reg);
  EXPECT_DOUBLE_EQ(reg[0], 5.0);
  EXPECT_DOUBLE_EQ(reg[2], 3.0);
  EXPECT_DOUBLE_EQ(reg[3], 2.0);
  EXPECT_DOUBLE_EQ(reg[4], 1.0);
}

TEST(RbfFit, RecoversStaticNonlinearity) {
  // Dense 1-D samples of a smooth function: an RBF net with a handful of
  // centers must fit it to sub-percent accuracy.
  std::vector<double> xs, ys;
  for (int k = 0; k <= 200; ++k) {
    const double v = -2.0 + 4.0 * k / 200.0;
    xs.push_back(v);
    ys.push_back(bump(v));
  }
  RbfFitOptions opt;
  opt.max_basis = 12;
  opt.sigma = 0.5;
  const RbfModel m = fit_rbf_ols(column(xs), ys, opt);
  EXPECT_LE(m.num_basis(), 12u);
  double worst = 0.0;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    const double e = std::abs(m.eval(std::vector<double>{xs[k]}) - ys[k]);
    worst = std::max(worst, e);
  }
  EXPECT_LT(worst, 0.02);
}

TEST(RbfFit, ConstantDataGivesConstantModel) {
  std::vector<double> xs(50), ys(50, 3.25);
  for (std::size_t k = 0; k < xs.size(); ++k) xs[k] = static_cast<double>(k);
  RbfFitOptions opt;
  const RbfModel m = fit_rbf_ols(column(xs), ys, opt);
  EXPECT_NEAR(m.eval(std::vector<double>{25.0}), 3.25, 1e-9);
}

TEST(RbfFit, GradientMatchesFiniteDifference) {
  std::vector<double> xs, ys;
  for (int k = 0; k <= 100; ++k) {
    const double v = -1.0 + 0.02 * k;
    xs.push_back(v);
    ys.push_back(std::sin(3.0 * v));
  }
  RbfFitOptions opt;
  opt.max_basis = 15;
  const RbfModel m = fit_rbf_ols(column(xs), ys, opt);

  for (double v : {-0.8, -0.3, 0.0, 0.4, 0.9}) {
    double grad = 0.0;
    m.eval_with_grad(std::vector<double>{v}, 0, &grad);
    const double h = 1e-6;
    const double fd = (m.eval(std::vector<double>{v + h}) - m.eval(std::vector<double>{v - h})) /
                      (2.0 * h);
    EXPECT_NEAR(grad, fd, 1e-4 * std::max(1.0, std::abs(fd))) << "v = " << v;
  }
}

TEST(RbfFit, AutoSigmaNotWorseThanFixed) {
  std::vector<double> xs, ys;
  for (int k = 0; k <= 300; ++k) {
    const double v = -2.0 + 4.0 * k / 300.0;
    xs.push_back(v);
    ys.push_back(bump(v) + 0.2 * std::sin(6.0 * v));
  }
  RbfFitOptions opt;
  opt.max_basis = 14;
  const RbfModel fixed = fit_rbf_ols(column(xs), ys, opt);
  const RbfModel autom = fit_rbf_auto(column(xs), ys, opt);

  double err_fixed = 0.0, err_auto = 0.0;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    err_fixed += std::pow(fixed.eval(std::vector<double>{xs[k]}) - ys[k], 2);
    err_auto += std::pow(autom.eval(std::vector<double>{xs[k]}) - ys[k], 2);
  }
  EXPECT_LE(err_auto, err_fixed * 1.5);
}

TEST(RbfFit, DynamicNarxSystemFreeRun) {
  // Nonlinear first-order system: i(k) = 0.8 i(k-1) + tanh(v(k)).
  // Identify from a multilevel excitation, then free-run on fresh input.
  emc::sig::Lcg rng(3);
  std::vector<double> v(1200), i(1200, 0.0);
  double level = 0.0;
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k % 25 == 0) level = 4.0 * rng.uniform() - 2.0;
    v[k] = level;
    if (k > 0) i[k] = 0.8 * i[k - 1] + std::tanh(v[k]);
  }

  NarxOrders ord{0, 1};  // v(k), i(k-1)
  emc::sig::Waveform vw(0.0, 1.0, v), iw(0.0, 1.0, i);
  const auto ds = build_narx_dataset(vw, iw, ord);
  RbfFitOptions opt;
  opt.max_basis = 16;
  opt.sigma = 1.0;
  const RbfModel m = fit_rbf_ols(ds.x, ds.y, opt);

  // Fresh validation sequence.
  std::vector<double> v2(400), i2(400, 0.0);
  level = 0.0;
  for (std::size_t k = 0; k < v2.size(); ++k) {
    if (k % 40 == 0) level = 4.0 * rng.uniform() - 2.0;
    v2[k] = level;
    if (k > 0) i2[k] = 0.8 * i2[k - 1] + std::tanh(v2[k]);
  }
  const auto sim = simulate_narx(m, ord, v2, std::vector<double>{0.0});
  double rms = 0.0, ref = 0.0;
  for (std::size_t k = 10; k < v2.size(); ++k) {
    rms += std::pow(sim[k] - i2[k], 2);
    ref += i2[k] * i2[k];
  }
  EXPECT_LT(std::sqrt(rms / ref), 0.05);  // < 5% relative free-run error
}

TEST(RbfFit, InputValidation) {
  la::Matrix x(0, 1);
  std::vector<double> y;
  EXPECT_THROW(fit_rbf_ols(x, y, RbfFitOptions{}), std::invalid_argument);

  la::Matrix x2(3, 1);
  std::vector<double> y2(2);
  EXPECT_THROW(fit_rbf_ols(x2, y2, RbfFitOptions{}), std::invalid_argument);

  RbfFitOptions bad;
  bad.max_basis = 0;
  std::vector<double> y3(3);
  EXPECT_THROW(fit_rbf_ols(x2, y3, bad), std::invalid_argument);
}

TEST(RbfModel, ConstructorValidation) {
  EXPECT_THROW(RbfModel(Scaler({0.0}, {1.0}), la::Matrix(2, 1), {1.0}, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(RbfModel(Scaler({0.0}, {1.0}), la::Matrix(1, 1), {1.0}, 0.0, -1.0),
               std::invalid_argument);
}

TEST(OlsPath, SelectionEqualsNaiveOracleOnRandomData) {
  // 3-D random inputs, subsampled candidates (n > max_candidates) and a
  // candidate count that is not a multiple of the deflation block.
  emc::sig::Lcg rng(11);
  const std::size_t n = 700;
  la::Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = 4.0 * rng.uniform() - 2.0;
    y[r] = std::sin(x(r, 0)) * x(r, 1) + 0.3 * x(r, 2) * x(r, 2) + 0.05 * rng.uniform();
  }
  RbfFitOptions opt;
  opt.max_basis = 15;
  opt.sigma = 1.2;
  opt.max_candidates = 203;
  opt.seed = 5;
  const OlsPath path(x, y, opt);
  const auto oracle = naive_ols_order(x, y, opt);
  ASSERT_EQ(oracle.size(), 15u);
  EXPECT_EQ(path.order(), oracle);
}

TEST(OlsPath, SelectionEqualsNaiveOracleOnNarxData) {
  // Every row is a candidate; the stop threshold ends the selection early.
  emc::sig::Lcg rng(3);
  std::vector<double> v(600), i(600, 0.0);
  double level = 0.0;
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k % 25 == 0) level = 4.0 * rng.uniform() - 2.0;
    v[k] = level;
    if (k > 0) i[k] = 0.8 * i[k - 1] + std::tanh(v[k]);
  }
  const NarxOrders ord{2, 2};
  const auto ds = build_narx_dataset(emc::sig::Waveform(0.0, 1.0, v),
                                     emc::sig::Waveform(0.0, 1.0, i), ord);
  for (const double sigma : {0.7, 1.5}) {
    RbfFitOptions opt;
    opt.max_basis = 40;
    opt.sigma = sigma;
    opt.min_err_reduction = 1e-6;
    const OlsPath path(ds.x, ds.y, opt);
    const auto oracle = naive_ols_order(ds.x, ds.y, opt);
    EXPECT_GT(oracle.size(), 4u);
    EXPECT_EQ(path.order(), oracle) << "sigma " << sigma;
  }
}

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "ident/rbf.hpp"
#include "linalg/decomp.hpp"
#include "linalg/matrix.hpp"
#include "signal/sources.hpp"
#include "sweep/thread_pool.hpp"

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

/// The weight solve OlsPath::model made before it cached the normal
/// equations, kept as the oracle of the Gram-prefix solve: the n x (m+1)
/// design matrix [1, phi_1 .. phi_m] of the first m picks, solved with
/// linalg::solve_ridge.
RbfModel design_matrix_model(const la::Matrix& x, std::span<const double> y,
                             const RbfFitOptions& opt, const std::vector<std::size_t>& order,
                             std::size_t n_basis) {
  const std::size_t n = x.rows();
  const Scaler scaler = Scaler::fit(x);
  const la::Matrix z = scaler.transform(x);
  const std::size_t d = z.cols();
  const std::size_t m = std::min(n_basis, order.size());
  if (m == 0) {
    const double ymean = std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(n);
    return RbfModel(scaler, la::Matrix(0, d), {}, ymean, opt.sigma);
  }
  const double inv2s2 = 1.0 / (2.0 * opt.sigma * opt.sigma);
  la::Matrix a(n, m + 1);
  for (std::size_t r = 0; r < n; ++r) a(r, 0) = 1.0;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t r = 0; r < n; ++r) {
      double dist2 = 0.0;
      for (std::size_t k = 0; k < d; ++k) {
        const double dl = z(r, k) - z(order[j], k);
        dist2 += dl * dl;
      }
      a(r, j + 1) = std::exp(-dist2 * inv2s2);
    }
  }
  const auto w = la::solve_ridge(a, y, opt.ridge);
  la::Matrix centers(m, d);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t k = 0; k < d; ++k) centers(j, k) = z(order[j], k);
  return RbfModel(scaler, std::move(centers), std::vector<double>(w.begin() + 1, w.end()),
                  w[0], opt.sigma);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bitwise equality of everything a model evaluates with: scaler, sigma,
/// bias, weights and centers.
void expect_same_bits(const RbfModel& a, const RbfModel& b, const std::string& what) {
  EXPECT_EQ(bits(a.sigma()), bits(b.sigma())) << what;
  EXPECT_EQ(bits(a.bias()), bits(b.bias())) << what << ": bias " << a.bias() << " vs " << b.bias();
  ASSERT_EQ(a.scaler().dim(), b.scaler().dim()) << what;
  for (std::size_t k = 0; k < a.scaler().dim(); ++k) {
    EXPECT_EQ(bits(a.scaler().mean()[k]), bits(b.scaler().mean()[k])) << what;
    EXPECT_EQ(bits(a.scaler().scale()[k]), bits(b.scaler().scale()[k])) << what;
  }
  ASSERT_EQ(a.weights().size(), b.weights().size()) << what;
  for (std::size_t j = 0; j < a.weights().size(); ++j)
    EXPECT_EQ(bits(a.weights()[j]), bits(b.weights()[j]))
        << what << ": weight " << j << " " << a.weights()[j] << " vs " << b.weights()[j];
  ASSERT_EQ(a.centers().rows(), b.centers().rows()) << what;
  ASSERT_EQ(a.centers().cols(), b.centers().cols()) << what;
  for (std::size_t j = 0; j < a.centers().rows(); ++j)
    for (std::size_t k = 0; k < a.centers().cols(); ++k)
      EXPECT_EQ(bits(a.centers()(j, k)), bits(b.centers()(j, k))) << what << ": center " << j;
}

/// 3-D random regression data; 700 rows, so candidates are subsampled
/// whenever max_candidates < 700.
void random_dataset(la::Matrix& x, std::vector<double>& y) {
  emc::sig::Lcg rng(11);
  const std::size_t n = 700;
  x = la::Matrix(n, 3);
  y.assign(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = 4.0 * rng.uniform() - 2.0;
    y[r] = std::sin(x(r, 0)) * x(r, 1) + 0.3 * x(r, 2) * x(r, 2) + 0.05 * rng.uniform();
  }
}

/// NARX dataset of i(k) = 0.8 i(k-1) + tanh(v(k)) under a multilevel v.
Dataset narx_dataset(std::size_t len) {
  emc::sig::Lcg rng(3);
  std::vector<double> v(len), i(len, 0.0);
  double level = 0.0;
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k % 25 == 0) level = 4.0 * rng.uniform() - 2.0;
    v[k] = level;
    if (k > 0) i[k] = 0.8 * i[k - 1] + std::tanh(v[k]);
  }
  return build_narx_dataset(emc::sig::Waveform(0.0, 1.0, v), emc::sig::Waveform(0.0, 1.0, i),
                            NarxOrders{2, 2});
}

/// A pooled path (1 and 4 workers) must select the same centers as the
/// serial one and give bitwise-equal models of every size.
void expect_pool_invariant(const la::Matrix& x, std::span<const double> y,
                           const RbfFitOptions& opt) {
  const OlsPath serial(x, y, opt);
  ASSERT_GT(serial.selected(), 4u);
  for (const std::size_t workers : {1u, 4u}) {
    emc::sweep::ThreadPool pool(workers);
    const OlsPath pooled(x, y, opt, &pool);
    EXPECT_EQ(pooled.order(), serial.order()) << workers << " workers";
    for (std::size_t nb = 0; nb <= serial.selected() + 1; ++nb)
      expect_same_bits(pooled.model(nb), serial.model(nb),
                       std::to_string(workers) + " workers, nb " + std::to_string(nb));
  }
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
  const RbfModel m = OlsPath(column(xs), ys, opt).model(static_cast<std::size_t>(opt.max_basis));
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
  const RbfModel m = OlsPath(column(xs), ys, opt).model(static_cast<std::size_t>(opt.max_basis));
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
  const RbfModel m = OlsPath(column(xs), ys, opt).model(static_cast<std::size_t>(opt.max_basis));

  for (double v : {-0.8, -0.3, 0.0, 0.4, 0.9}) {
    double grad = 0.0;
    m.eval_with_grad(std::vector<double>{v}, 0, &grad);
    const double h = 1e-6;
    const double fd = (m.eval(std::vector<double>{v + h}) - m.eval(std::vector<double>{v - h})) /
                      (2.0 * h);
    EXPECT_NEAR(grad, fd, 1e-4 * std::max(1.0, std::abs(fd))) << "v = " << v;
  }
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
  const RbfModel m = OlsPath(ds.x, ds.y, opt).model(static_cast<std::size_t>(opt.max_basis));

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
  EXPECT_THROW(OlsPath(x, y, RbfFitOptions{}), std::invalid_argument);

  la::Matrix x2(3, 1);
  std::vector<double> y2(2);
  EXPECT_THROW(OlsPath(x2, y2, RbfFitOptions{}), std::invalid_argument);

  RbfFitOptions bad;
  bad.max_basis = 0;
  std::vector<double> y3(3);
  EXPECT_THROW(OlsPath(x2, y3, bad), std::invalid_argument);
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
  la::Matrix x;
  std::vector<double> y;
  random_dataset(x, y);
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
  const auto ds = narx_dataset(600);
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

TEST(OlsPath, PooledEqualsSerialOnRandomData) {
  la::Matrix x;
  std::vector<double> y;
  random_dataset(x, y);
  RbfFitOptions opt;
  opt.max_basis = 15;
  opt.sigma = 1.2;
  opt.max_candidates = 203;  // 50 blocks of four plus a 3-column tail
  opt.seed = 5;
  expect_pool_invariant(x, y, opt);
}

TEST(OlsPath, PooledEqualsSerialOnNarxData) {
  const auto ds = narx_dataset(600);
  for (const double sigma : {0.7, 1.5}) {
    RbfFitOptions opt;
    opt.max_basis = 40;
    opt.sigma = sigma;
    opt.min_err_reduction = 1e-6;
    expect_pool_invariant(ds.x, ds.y, opt);
  }
}

TEST(OlsPath, GramPrefixModelEqualsDesignMatrixRidgeSolve) {
  // model(nb) solves the leading block of the normal equations cached
  // once per path; the oracle builds the design matrix per size and runs
  // linalg::solve_ridge on it. Same sums in the same order: same bits.
  la::Matrix x;
  std::vector<double> y;
  random_dataset(x, y);
  RbfFitOptions opt;
  opt.max_basis = 15;
  opt.sigma = 1.2;
  opt.max_candidates = 203;
  opt.seed = 5;
  const OlsPath path(x, y, opt);
  ASSERT_EQ(path.selected(), 15u);
  for (std::size_t nb = 0; nb <= path.selected() + 1; ++nb)
    expect_same_bits(path.model(nb), design_matrix_model(x, y, opt, path.order(), nb),
                     "random data, nb " + std::to_string(nb));

  const auto ds = narx_dataset(600);
  RbfFitOptions narx;
  narx.max_basis = 30;
  narx.sigma = 1.5;
  narx.ridge = 1e-6;
  const OlsPath npath(ds.x, ds.y, narx);
  ASSERT_GT(npath.selected(), 4u);
  for (std::size_t nb = 0; nb <= npath.selected(); ++nb)
    expect_same_bits(npath.model(nb), design_matrix_model(ds.x, ds.y, narx, npath.order(), nb),
                     "NARX data, nb " + std::to_string(nb));
}

TEST(FitRbfBest, PooledPickEqualsSerialIncludingTies) {
  const auto ds = narx_dataset(600);
  const NarxOrders ord{2, 2};
  const std::vector<double> v_in = [&] {
    std::vector<double> v(ds.x.rows());
    for (std::size_t r = 0; r < v.size(); ++r) v[r] = ds.x(r, 0);
    return v;
  }();
  RbfFitOptions base;
  base.min_err_reduction = 1e-6;
  const double sigma_grid[] = {0.7, 1.0, 1.5};
  const int basis_grid[] = {6, 10, 14, 18};
  emc::sweep::ThreadPool pool(4);

  // A real score (free-run error on the identification data).
  const auto free_run = [&](const RbfModel& m) {
    const std::vector<double> i_init{ds.y[0], ds.y[1]};
    const auto sim = simulate_narx(m, ord, v_in, i_init);
    double err = 0.0;
    for (std::size_t k = 2; k < sim.size(); ++k) err += (sim[k] - ds.y[k]) * (sim[k] - ds.y[k]);
    return err;
  };
  expect_same_bits(fit_rbf_best(ds.x, ds.y, base, sigma_grid, basis_grid, free_run, &pool),
                   fit_rbf_best(ds.x, ds.y, base, sigma_grid, basis_grid, free_run),
                   "free-run score");

  // Every candidate ties: the first grid point (smallest sigma, smallest
  // basis count) must win, pooled or not.
  const auto constant = [](const RbfModel&) { return 1.0; };
  const RbfModel tied = fit_rbf_best(ds.x, ds.y, base, sigma_grid, basis_grid, constant, &pool);
  expect_same_bits(tied, fit_rbf_best(ds.x, ds.y, base, sigma_grid, basis_grid, constant),
                   "all tied");
  RbfFitOptions first = base;
  first.sigma = sigma_grid[0];
  first.max_basis = 18;
  expect_same_bits(tied, OlsPath(ds.x, ds.y, first).model(6), "all tied vs first candidate");

  // Ties within and across sigma paths, non-finite scores skipped: the
  // first model of >= 10 centers at the first sigma wins.
  const auto banded = [](const RbfModel& m) {
    return m.num_basis() < 10 ? std::numeric_limits<double>::quiet_NaN() : 2.0;
  };
  const RbfModel band = fit_rbf_best(ds.x, ds.y, base, sigma_grid, basis_grid, banded, &pool);
  expect_same_bits(band, fit_rbf_best(ds.x, ds.y, base, sigma_grid, basis_grid, banded),
                   "banded ties");
  expect_same_bits(band, OlsPath(ds.x, ds.y, first).model(10), "banded vs first >= 10");
}

#include "ident/rbf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "linalg/decomp.hpp"
#include "signal/sources.hpp"

namespace emc::ident {

RbfModel::RbfModel(Scaler scaler, linalg::Matrix centers, std::vector<double> weights,
                   double bias, double sigma)
    : scaler_(std::move(scaler)),
      centers_(std::move(centers)),
      weights_(std::move(weights)),
      bias_(bias),
      sigma_(sigma) {
  if (centers_.rows() != weights_.size())
    throw std::invalid_argument("RbfModel: centers/weights mismatch");
  if (sigma_ <= 0.0) throw std::invalid_argument("RbfModel: sigma must be positive");
}

double RbfModel::eval(std::span<const double> x) const {
  return eval_with_grad(x, 0, nullptr);
}

double RbfModel::eval_with_grad(std::span<const double> x, std::size_t idx,
                                double* grad) const {
  const std::size_t d = scaler_.dim();
  if (x.size() != d) throw std::invalid_argument("RbfModel::eval: input size mismatch");

  double zbuf[kMaxInputs];
  if (d > kMaxInputs) throw std::invalid_argument("RbfModel::eval: input dimension > 64");
  std::span<double> z(zbuf, d);
  scaler_.transform_row(x, z);

  const double inv2s2 = 1.0 / (2.0 * sigma_ * sigma_);
  double y = bias_;
  double dy = 0.0;
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    const auto c = centers_.row(j);
    double dist2 = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double dlt = z[k] - c[k];
      dist2 += dlt * dlt;
    }
    const double phi = std::exp(-dist2 * inv2s2);
    y += weights_[j] * phi;
    if (grad) dy += weights_[j] * phi * (-(z[idx] - c[idx]) / (sigma_ * sigma_));
  }
  if (grad) *grad = dy / scaler_.scale()[idx];  // chain rule through standardization
  return y;
}

namespace {

/// Gaussian kernel value between a scaled row and a scaled center.
double kernel(std::span<const double> z, std::span<const double> c, double inv2s2) {
  double dist2 = 0.0;
  for (std::size_t k = 0; k < z.size(); ++k) {
    const double d = z[k] - c[k];
    dist2 += d * d;
  }
  return std::exp(-dist2 * inv2s2);
}

/// Deflate the M candidates p[c[0..M)] by the selected column q (q.q = qq)
/// and recompute their pp = p.p and py = p.yres against the already
/// deflated target. Pass 1 takes q.p_c, pass 2 updates p_c and
/// accumulates; every candidate keeps its own sequential accumulators.
template <std::size_t M>
void deflate_block(const std::size_t* c, std::vector<std::vector<double>>& p,
                   std::span<const double> q, double qq, const std::vector<double>& yres,
                   std::vector<double>& pp, std::vector<double>& py) {
  const std::size_t n = q.size();
  double* pc[M];
  double qc[M];
  for (std::size_t m = 0; m < M; ++m) {
    pc[m] = p[c[m]].data();
    qc[m] = 0.0;
  }
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t m = 0; m < M; ++m) qc[m] += q[r] * pc[m][r];
  double acc_pp[M], acc_py[M];
  for (std::size_t m = 0; m < M; ++m) {
    qc[m] /= qq;
    acc_pp[m] = 0.0;
    acc_py[m] = 0.0;
  }
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t m = 0; m < M; ++m) {
      const double v = pc[m][r] - qc[m] * q[r];
      pc[m][r] = v;
      acc_pp[m] += v * v;
      acc_py[m] += v * yres[r];
    }
  }
  for (std::size_t m = 0; m < M; ++m) {
    pp[c[m]] = acc_pp[m];
    py[c[m]] = acc_py[m];
  }
}

}  // namespace

OlsPath::OlsPath(const linalg::Matrix& x, std::span<const double> y,
                 const RbfFitOptions& opt)
    : scaler_(Scaler::fit(x)), y_(y.begin(), y.end()), sigma_(opt.sigma), ridge_(opt.ridge) {
  const std::size_t n = x.rows();
  if (n == 0 || y.size() != n) throw std::invalid_argument("OlsPath: bad dataset");
  if (opt.max_basis < 1) throw std::invalid_argument("OlsPath: max_basis must be >= 1");

  z_ = scaler_.transform(x);
  const double inv2s2 = 1.0 / (2.0 * sigma_ * sigma_);

  // Candidate centers: subsample training rows deterministically.
  std::vector<std::size_t> cand;
  if (n <= static_cast<std::size_t>(opt.max_candidates)) {
    cand.resize(n);
    std::iota(cand.begin(), cand.end(), 0);
  } else {
    sig::Lcg rng(opt.seed);
    const double stride = static_cast<double>(n) / opt.max_candidates;
    for (int j = 0; j < opt.max_candidates; ++j) {
      const double base = stride * static_cast<double>(j);
      const auto idx = static_cast<std::size_t>(base + rng.uniform() * stride);
      cand.push_back(std::min(idx, n - 1));
    }
  }
  const std::size_t nc = cand.size();

  // Candidate design columns phi_c (n x nc), plus the residual targets.
  // OLS with incremental Gram-Schmidt: after a column is selected, all
  // remaining candidates and the target are deflated by it; the error
  // reduction ratio of a candidate is then (p.y)^2 / (p.p * y.y).
  std::vector<std::vector<double>> p(nc, std::vector<double>(n));
  for (std::size_t c = 0; c < nc; ++c) {
    const auto center = z_.row(cand[c]);
    for (std::size_t r = 0; r < n; ++r) p[c][r] = kernel(z_.row(r), center, inv2s2);
  }

  std::vector<double> yres(y.begin(), y.end());
  // Deflate the mean (the bias regressor is always in the model).
  const double ymean =
      std::accumulate(yres.begin(), yres.end(), 0.0) / static_cast<double>(n);
  for (auto& v : yres) v -= ymean;
  for (std::size_t c = 0; c < nc; ++c) {
    const double m =
        std::accumulate(p[c].begin(), p[c].end(), 0.0) / static_cast<double>(n);
    for (auto& v : p[c]) v -= m;
  }

  const double y_energy = std::max(linalg::dot(yres, yres), 1e-30);
  std::vector<bool> used(nc, false);

  // pp[c] = p_c.p_c and py[c] = p_c.yres of every live candidate, kept
  // current by the fused deflation pass below. Each value is one
  // sequential accumulation in row order — exactly linalg::dot's — so the
  // selection equals the textbook loop (recompute both dots per step,
  // then deflate) bit for bit, in two passes over the candidates per pick.
  std::vector<double> pp(nc), py(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    pp[c] = linalg::dot(p[c], p[c]);
    py[c] = linalg::dot(p[c], yres);
  }
  std::vector<std::size_t> live;  // unused candidates, ascending
  live.reserve(nc);

  const int n_select = std::min<int>(opt.max_basis, static_cast<int>(nc));
  for (int step = 0; step < n_select; ++step) {
    double best_err = 0.0;
    std::size_t best_c = nc;
    for (std::size_t c = 0; c < nc; ++c) {
      if (used[c]) continue;
      if (pp[c] < 1e-20) continue;  // deflated to nothing: collinear with picks
      const double err = py[c] * py[c] / (pp[c] * y_energy);
      if (err > best_err) {
        best_err = err;
        best_c = c;
      }
    }
    if (best_c == nc || best_err < opt.min_err_reduction) break;

    used[best_c] = true;
    order_.push_back(cand[best_c]);
    if (step + 1 == n_select) break;  // nothing left to pick against

    // Deflate the target and the remaining candidates by the chosen
    // column q (no longer modified: it is used), rescoring as we go.
    const std::span<const double> q = p[best_c];
    const double qq = pp[best_c];
    const double qy = py[best_c] / qq;
    for (std::size_t r = 0; r < n; ++r) yres[r] -= qy * q[r];
    live.clear();
    for (std::size_t c = 0; c < nc; ++c)
      if (!used[c]) live.push_back(c);
    std::size_t k = 0;
    for (; k + 4 <= live.size(); k += 4) deflate_block<4>(&live[k], p, q, qq, yres, pp, py);
    for (; k < live.size(); ++k) deflate_block<1>(&live[k], p, q, qq, yres, pp, py);
  }
}

RbfModel OlsPath::model(std::size_t n_basis) const {
  const std::size_t n = z_.rows();
  const std::size_t d = z_.cols();
  const std::size_t m = std::min(n_basis, order_.size());
  const double inv2s2 = 1.0 / (2.0 * sigma_ * sigma_);

  if (m == 0) {
    const double ymean =
        std::accumulate(y_.begin(), y_.end(), 0.0) / static_cast<double>(n);
    return RbfModel(scaler_, linalg::Matrix(0, d), {}, ymean, sigma_);
  }

  // Weights: ridge least squares on the selected raw columns + bias.
  linalg::Matrix a(n, m + 1);
  for (std::size_t r = 0; r < n; ++r) a(r, 0) = 1.0;
  for (std::size_t j = 0; j < m; ++j) {
    const auto center = z_.row(order_[j]);
    for (std::size_t r = 0; r < n; ++r) a(r, j + 1) = kernel(z_.row(r), center, inv2s2);
  }
  const auto w = linalg::solve_ridge(a, y_, ridge_);

  linalg::Matrix centers(m, d);
  std::vector<double> weights(m);
  for (std::size_t j = 0; j < m; ++j) {
    const auto c = z_.row(order_[j]);
    for (std::size_t k = 0; k < d; ++k) centers(j, k) = c[k];
    weights[j] = w[j + 1];
  }
  return RbfModel(scaler_, std::move(centers), std::move(weights), w[0], sigma_);
}

RbfModel fit_rbf_ols(const linalg::Matrix& x, std::span<const double> y,
                     const RbfFitOptions& opt) {
  const OlsPath path(x, y, opt);
  return path.model(static_cast<std::size_t>(opt.max_basis));
}

RbfModel fit_rbf_best(const linalg::Matrix& x, std::span<const double> y,
                      const RbfFitOptions& base, std::span<const double> sigma_grid,
                      std::span<const int> basis_grid,
                      const std::function<double(const RbfModel&)>& score) {
  if (sigma_grid.empty() || basis_grid.empty())
    throw std::invalid_argument("fit_rbf_best: empty grids");

  RbfModel best;
  double best_score = std::numeric_limits<double>::infinity();
  for (double s : sigma_grid) {
    RbfFitOptions opt = base;
    opt.sigma = s;
    opt.max_basis = *std::max_element(basis_grid.begin(), basis_grid.end());
    const OlsPath path(x, y, opt);
    for (int nb : basis_grid) {
      RbfModel m = path.model(static_cast<std::size_t>(nb));
      const double sc = score(m);
      if (std::isfinite(sc) && sc < best_score) {
        best_score = sc;
        best = std::move(m);
      }
    }
  }
  if (!std::isfinite(best_score))
    throw std::runtime_error("fit_rbf_best: every candidate model scored non-finite");
  return best;
}

RbfModel fit_rbf_auto(const linalg::Matrix& x, std::span<const double> y, RbfFitOptions opt,
                      std::span<const double> sigma_grid) {
  static constexpr double kDefaultGrid[] = {0.7, 1.0, 1.5, 2.2, 3.2};
  std::span<const double> grid =
      sigma_grid.empty() ? std::span<const double>(kDefaultGrid) : sigma_grid;

  const std::size_t n = x.rows();
  const std::size_t n_train = std::max<std::size_t>(n * 3 / 4, 1);

  // Train/validation split along time (the records are time series).
  linalg::Matrix x_train(n_train, x.cols());
  std::vector<double> y_train(n_train);
  for (std::size_t r = 0; r < n_train; ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x_train(r, c) = x(r, c);
    y_train[r] = y[r];
  }

  double best_err = std::numeric_limits<double>::infinity();
  double best_sigma = grid[0];
  for (double s : grid) {
    RbfFitOptions o = opt;
    o.sigma = s;
    const RbfModel m = fit_rbf_ols(x_train, y_train, o);
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
  opt.sigma = best_sigma;
  return fit_rbf_ols(x, y, opt);  // refit on everything with the winner
}

std::vector<double> simulate_narx(const RbfModel& model, NarxOrders ord,
                                  std::span<const double> v, std::span<const double> i_init) {
  const auto h = static_cast<std::size_t>(ord.history());
  if (i_init.size() < h) throw std::invalid_argument("simulate_narx: i_init too short");
  if (v.size() < h) throw std::invalid_argument("simulate_narx: input too short");

  std::vector<double> i(v.size());
  for (std::size_t k = 0; k < h; ++k) i[k] = i_init[k];

  std::vector<double> reg(static_cast<std::size_t>(ord.regressor_size()));
  std::vector<double> v_hist(static_cast<std::size_t>(ord.nv) + 1);
  std::vector<double> i_hist(static_cast<std::size_t>(ord.ni));
  for (std::size_t k = h; k < v.size(); ++k) {
    for (int j = 0; j <= ord.nv; ++j) v_hist[static_cast<std::size_t>(j)] = v[k - static_cast<std::size_t>(j)];
    for (int j = 1; j <= ord.ni; ++j) i_hist[static_cast<std::size_t>(j - 1)] = i[k - static_cast<std::size_t>(j)];
    fill_narx_regressor(v_hist, i_hist, ord, reg);
    i[k] = model.eval(reg);
  }
  return i;
}

}  // namespace emc::ident

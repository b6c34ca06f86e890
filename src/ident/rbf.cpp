#include "ident/rbf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "linalg/decomp.hpp"
#include "signal/sources.hpp"
#include "sweep/thread_pool.hpp"

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

/// fn(i) for every i in [0, n): split over the pool's workers when there
/// is a pool, inline in index order otherwise. The callers' loop bodies
/// write disjoint slots, so both give the same bits.
void for_each_index(sweep::ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  if (pool)
    pool->parallel_for(n, [&](std::size_t i, std::size_t) { fn(i); });
  else
    for (std::size_t i = 0; i < n; ++i) fn(i);
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
                 const RbfFitOptions& opt, sweep::ThreadPool* pool)
    : scaler_(Scaler::fit(x)), sigma_(opt.sigma), ridge_(opt.ridge) {
  const std::size_t n = x.rows();
  if (n == 0 || y.size() != n) throw std::invalid_argument("OlsPath: bad dataset");
  if (opt.max_basis < 1) throw std::invalid_argument("OlsPath: max_basis must be >= 1");

  const linalg::Matrix z = scaler_.transform(x);
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

  std::vector<double> yres(y.begin(), y.end());
  // Deflate the mean (the bias regressor is always in the model).
  ymean_ = std::accumulate(yres.begin(), yres.end(), 0.0) / static_cast<double>(n);
  for (auto& v : yres) v -= ymean_;

  // Candidate design columns phi_c (n x nc), mean-deflated like the target.
  // OLS with incremental Gram-Schmidt: after a column is selected, all
  // remaining candidates and the target are deflated by it; the error
  // reduction ratio of a candidate is then (p.y)^2 / (p.p * y.y).
  //
  // pp[c] = p_c.p_c and py[c] = p_c.yres of every live candidate, kept
  // current by the fused deflation pass below. Each value is one
  // sequential accumulation in row order — exactly linalg::dot's — so the
  // selection equals the textbook loop (recompute both dots per step,
  // then deflate) bit for bit, in two passes over the candidates per pick.
  // The columns are allocated here, on the calling thread, so they come
  // from the caller's heap as in a serial run, not from per-worker
  // arenas; the workers only fill and deflate them.
  std::vector<std::vector<double>> p(nc, std::vector<double>(n));
  std::vector<double> pp(nc), py(nc);
  for_each_index(pool, nc, [&](std::size_t c) {
    auto& col = p[c];
    const auto center = z.row(cand[c]);
    for (std::size_t r = 0; r < n; ++r) col[r] = kernel(z.row(r), center, inv2s2);
    const double m = std::accumulate(col.begin(), col.end(), 0.0) / static_cast<double>(n);
    for (auto& v : col) v -= m;
    pp[c] = linalg::dot(col, col);
    py[c] = linalg::dot(col, yres);
  });

  const double y_energy = std::max(linalg::dot(yres, yres), 1e-30);
  std::vector<bool> used(nc, false);
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
    // column q (no longer modified: it is used), rescoring as we go. The
    // live candidates go out in blocks of four plus single tail columns;
    // a candidate's sums do not depend on its block, so neither the
    // blocking nor the split over workers changes a bit.
    const std::span<const double> q = p[best_c];
    const double qq = pp[best_c];
    const double qy = py[best_c] / qq;
    for (std::size_t r = 0; r < n; ++r) yres[r] -= qy * q[r];
    live.clear();
    for (std::size_t c = 0; c < nc; ++c)
      if (!used[c]) live.push_back(c);
    const std::size_t blocks = live.size() / 4;
    for_each_index(pool, blocks + live.size() % 4, [&](std::size_t b) {
      if (b < blocks)
        deflate_block<4>(&live[4 * b], p, q, qq, yres, pp, py);
      else
        deflate_block<1>(&live[3 * blocks + b], p, q, qq, yres, pp, py);
    });
  }
  // Only the picks are needed from here: free the n x nc selection matrix.
  p = {};
  yres = {};

  // Normal equations of A = [1, phi_1 .. phi_m], one pass over the rows.
  const std::size_t m = order_.size();
  const std::size_t d = z.cols();
  centers_ = linalg::Matrix(m, d);
  for (std::size_t j = 0; j < m; ++j) {
    const auto c = z.row(order_[j]);
    for (std::size_t k = 0; k < d; ++k) centers_(j, k) = c[k];
  }
  normal_ = linalg::NormalEquations(m + 1);
  std::vector<double> a(m + 1);
  a[0] = 1.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t j = 0; j < m; ++j)
      a[j + 1] = kernel(z.row(r), centers_.row(j), inv2s2);
    normal_.add_row(a, y[r]);
  }
}

RbfModel OlsPath::model(std::size_t n_basis) const {
  const std::size_t d = centers_.cols();
  const std::size_t m = std::min(n_basis, order_.size());
  if (m == 0) return RbfModel(scaler_, linalg::Matrix(0, d), {}, ymean_, sigma_);

  // Weights: ridge least squares on the bias + the first m selected columns.
  const auto w = normal_.solve_ridge(m + 1, ridge_);

  linalg::Matrix centers(m, d);
  std::copy_n(centers_.data(), m * d, centers.data());
  return RbfModel(scaler_, std::move(centers), std::vector<double>(w.begin() + 1, w.end()),
                  w[0], sigma_);
}

RbfModel fit_rbf_best(const linalg::Matrix& x, std::span<const double> y,
                      const RbfFitOptions& base, std::span<const double> sigma_grid,
                      std::span<const int> basis_grid,
                      const std::function<double(const RbfModel&)>& score,
                      sweep::ThreadPool* pool) {
  if (sigma_grid.empty() || basis_grid.empty())
    throw std::invalid_argument("fit_rbf_best: empty grids");

  RbfModel best;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<RbfModel> models(basis_grid.size());
  std::vector<double> scores(basis_grid.size());
  for (double s : sigma_grid) {
    RbfFitOptions opt = base;
    opt.sigma = s;
    opt.max_basis = *std::max_element(basis_grid.begin(), basis_grid.end());
    const OlsPath path(x, y, opt, pool);
    for_each_index(pool, basis_grid.size(), [&](std::size_t k) {
      models[k] = path.model(static_cast<std::size_t>(basis_grid[k]));
      scores[k] = score(models[k]);
    });
    for (std::size_t k = 0; k < basis_grid.size(); ++k) {
      if (std::isfinite(scores[k]) && scores[k] < best_score) {
        best_score = scores[k];
        best = std::move(models[k]);
      }
    }
  }
  if (!std::isfinite(best_score))
    throw std::runtime_error("fit_rbf_best: every candidate model scored non-finite");
  return best;
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

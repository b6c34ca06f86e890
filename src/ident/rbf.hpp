// Gaussian Radial Basis Function network with Orthogonal Least Squares
// center selection (Chen, Cowan, Grant 1991) — the estimator behind the
// paper's driver submodels i_H / i_L and the receiver clamp submodels.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ident/dataset.hpp"
#include "linalg/decomp.hpp"
#include "linalg/matrix.hpp"

namespace emc::sweep {
class ThreadPool;
}

namespace emc::ident {

/// y(x) = w0 + sum_j w_j * exp(-||z - c_j||^2 / (2 sigma^2)),
/// where z is the standardized input (see Scaler).
class RbfModel {
 public:
  /// Largest input dimension eval() accepts: it standardizes the input
  /// into a stack buffer of this size. Callers assembling a regressor on
  /// the stack may rely on the same bound.
  static constexpr std::size_t kMaxInputs = 64;
  /// Stack scratch for one input vector: every input eval() accepts fits.
  using InputBuf = std::array<double, kMaxInputs>;

  RbfModel() = default;
  RbfModel(Scaler scaler, linalg::Matrix centers, std::vector<double> weights, double bias,
           double sigma);

  /// Model output for a raw (unscaled) input vector.
  double eval(std::span<const double> x) const;

  /// Output and the partial derivative d y / d x[idx] (raw input space);
  /// needed by the circuit coupling, where Newton requires d i / d v(k).
  double eval_with_grad(std::span<const double> x, std::size_t idx, double* grad) const;

  std::size_t num_basis() const { return weights_.size(); }
  std::size_t input_dim() const { return scaler_.dim(); }
  bool empty() const { return weights_.empty() && bias_ == 0.0; }

  const Scaler& scaler() const { return scaler_; }
  const linalg::Matrix& centers() const { return centers_; }  ///< scaled space
  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }
  double sigma() const { return sigma_; }

 private:
  Scaler scaler_;
  linalg::Matrix centers_;       // rows are centers in scaled space
  std::vector<double> weights_;  // one per center
  double bias_ = 0.0;
  double sigma_ = 1.0;
};

struct RbfFitOptions {
  int max_basis = 12;        ///< basis functions to select (paper: 6..15)
  double sigma = 1.5;        ///< kernel width in standardized space
  int max_candidates = 400;  ///< candidate centers (subsampled training rows)
  double ridge = 1e-8;       ///< Tikhonov term of the final weight solve
  double min_err_reduction = 1e-7;  ///< OLS stop threshold (relative)
  std::uint64_t seed = 1;    ///< candidate subsampling seed
};

/// One OLS center selection at a fixed kernel width. The greedy selection
/// is nested: the first j selected centers of a larger fit are exactly the
/// j-basis fit, so one path re-solves models of several sizes cheaply.
/// model(opt.max_basis) is the plain fixed-width fit; fit_rbf_best runs
/// one path per kernel width to select (sigma, basis count) for both
/// macromodel estimators.
///
/// Once the selection ends, the candidate columns are dropped and one pass
/// over the rows accumulates the linalg::NormalEquations of the bias plus
/// every selected kernel column. model(n) ridge-solves their leading
/// (n+1) block, so its weights equal linalg::solve_ridge on the n-center
/// design matrix bit for bit, without building that matrix per call.
///
/// Pool contract: with a pool, the candidate kernel fill and each pick's
/// deflation of the live candidates are split over the pool's workers.
/// The argmax and the target deflation stay serial, and every candidate
/// keeps its own row-order accumulators, so the selection, and every
/// model(), is bit-identical to a null pool (which runs the same loop
/// bodies inline). The pool must not be running a parallel_for of its own
/// (ThreadPool is not reentrant).
class OlsPath {
 public:
  OlsPath(const linalg::Matrix& x, std::span<const double> y, const RbfFitOptions& opt,
          sweep::ThreadPool* pool = nullptr);

  /// Model using the first `n_basis` selected centers (clipped to the
  /// number actually selected). Thread-safe: concurrent calls only read.
  RbfModel model(std::size_t n_basis) const;

  std::size_t selected() const { return order_.size(); }
  /// Selected training-row indices, in pick order.
  const std::vector<std::size_t>& order() const { return order_; }
  double sigma() const { return sigma_; }

 private:
  Scaler scaler_;
  linalg::Matrix centers_;          // selected centers (scaled space), in pick order
  std::vector<std::size_t> order_;  // selected row indices, in pick order
  linalg::NormalEquations normal_;  // of A = [1, phi_1 .. phi_m], m = selected()
  double ymean_ = 0.0;              // the bias-only model
  double sigma_;
  double ridge_;
};

/// Grid search over (sigma, basis count), scoring each candidate model
/// with `score` (lower is better, e.g. free-run validation error); throws
/// std::runtime_error when every candidate scores non-finite. The
/// sigma paths are built one at a time (each holds the n x candidates
/// selection matrix while it runs). With a pool, each path's selection is
/// candidate-parallel (see OlsPath) and its basis-count models are built
/// and scored concurrently, so `score` must be safe to call from several
/// threads at once and must not use the pool itself. The scores are
/// reduced in grid order with a strict `<`, so the first candidate wins a
/// tie and the pick equals a null-pool run's.
RbfModel fit_rbf_best(const linalg::Matrix& x, std::span<const double> y,
                      const RbfFitOptions& base, std::span<const double> sigma_grid,
                      std::span<const int> basis_grid,
                      const std::function<double(const RbfModel&)>& score,
                      sweep::ThreadPool* pool = nullptr);

/// Free-run (simulation-mode) NARX response: feeds model predictions back
/// into the current taps. `v` is the full input sequence, `i_init` holds
/// ord.history() initial current samples (i[0..h-1]); the returned vector
/// has the same length as v with i_init copied in front.
std::vector<double> simulate_narx(const RbfModel& model, NarxOrders ord,
                                  std::span<const double> v, std::span<const double> i_init);

}  // namespace emc::ident

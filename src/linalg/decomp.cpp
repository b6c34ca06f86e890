#include "linalg/decomp.hpp"

#include <cmath>
#include <stdexcept>

namespace emc::linalg {

LuFactor::LuFactor(Matrix a) {
  factor(std::move(a));
}

void LuFactor::factor(const Matrix& a) {
  lu_ = a;  // vector assignment reuses capacity when sizes match
  factorize();
}

void LuFactor::factor(Matrix&& a) {
  lu_ = std::move(a);
  factorize();
}

void LuFactor::factorize() {
  valid_ = false;
  if (lu_.rows() != lu_.cols()) throw std::invalid_argument("LuFactor: matrix not square");
  const std::size_t n = lu_.rows();
  piv_.resize(n);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude entry in column k.
    std::size_t p = k;
    double pmax = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > pmax) {
        pmax = v;
        p = i;
      }
    }
    if (pmax < 1e-300) throw std::runtime_error("LuFactor: singular matrix");
    piv_[k] = static_cast<int>(p);
    if (p != k)
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(p, j));
    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = lu_(i, k) * inv_pivot;
      lu_(i, k) = m;
      if (m == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= m * lu_(k, j);
    }
  }
  valid_ = true;
}

std::vector<double> LuFactor::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

void LuFactor::solve_in_place(std::span<double> b) const {
  const std::size_t n = lu_.rows();
  if (!valid_) throw std::runtime_error("LuFactor::solve: no valid factorization");
  if (b.size() != n) throw std::invalid_argument("LuFactor::solve: size mismatch");
  // Apply the recorded row interchanges, then substitute fully in place:
  // the whole solve is allocation-free.
  for (std::size_t k = 0; k < n; ++k)
    if (piv_[k] != static_cast<int>(k)) std::swap(b[k], b[static_cast<std::size_t>(piv_[k])]);
  // Forward substitution (unit lower triangle).
  for (std::size_t i = 1; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * b[j];
    b[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * b[j];
    b[ii] = acc / lu_(ii, ii);
  }
}

Cholesky::Cholesky(const Matrix& a) : l_(a.rows(), a.cols()) {
  if (a.rows() != a.cols()) throw std::invalid_argument("Cholesky: matrix not square");
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l_(i, k) * l_(j, k);
      if (i == j) {
        if (acc <= 0.0) throw std::runtime_error("Cholesky: matrix not positive definite");
        l_(i, i) = std::sqrt(acc);
      } else {
        l_(i, j) = acc / l_(j, j);
      }
    }
  }
}

std::vector<double> Cholesky::forward(std::span<const double> b) const {
  const std::size_t n = l_.rows();
  if (b.size() != n) throw std::invalid_argument("Cholesky::forward: size mismatch");
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l_(i, j) * y[j];
    y[i] = acc / l_(i, i);
  }
  return y;
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  const std::size_t n = l_.rows();
  std::vector<double> y = forward(b);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l_(j, ii) * y[j];
    y[ii] = acc / l_(ii, ii);
  }
  return y;
}

void NormalEquations::add_row(std::span<const double> row, double b) {
  const std::size_t n = atb_.size();
  if (row.size() != n) throw std::invalid_argument("NormalEquations: row size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    const double ai = row[i];
    for (std::size_t j = 0; j <= i; ++j) ata_(i, j) += ai * row[j];
    atb_[i] += ai * b;
  }
}

std::vector<double> NormalEquations::solve_ridge(std::size_t k, double lambda) const {
  if (k > atb_.size()) throw std::invalid_argument("NormalEquations: k > columns");
  Matrix g(k, k);  // Cholesky reads the lower triangle only
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j <= i; ++j) g(i, j) = ata_(i, j);
    g(i, i) += lambda;
  }
  return Cholesky(g).solve(std::span<const double>(atb_).first(k));
}

std::vector<double> solve_ridge(const Matrix& a, std::span<const double> b, double lambda) {
  if (b.size() != a.rows()) throw std::invalid_argument("solve_ridge: size mismatch");
  NormalEquations ne(a.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) ne.add_row(a.row(k), b[k]);
  return ne.solve_ridge(a.cols(), lambda);
}

std::vector<double> solve_dense(const Matrix& a, std::span<const double> b) {
  // Reuse one factorization's storage per thread: repeated calls on
  // same-sized systems (line post_dc seeding per corner) neither copy the
  // input by value nor reallocate.
  static thread_local LuFactor lu;
  lu.factor(a);
  return lu.solve(b);
}

}  // namespace emc::linalg

// Matrix factorizations: LU with partial pivoting (the MNA workhorse),
// Cholesky (SPD systems, modal decomposition of line capacitance), and
// the ridge-regularized normal equations that solve the least-squares
// problems of the ARX / RBF estimators.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace emc::linalg {

/// LU factorization with partial pivoting, reusable for multiple
/// right-hand sides. Throws std::runtime_error on (numerical) singularity.
///
/// The factorization storage is reusable: a default-constructed LuFactor
/// can be (re)loaded with factor(), which recycles the internal buffers so
/// repeated refactorization of same-sized systems performs no heap
/// allocation after the first call — this is what the MNA Newton hot path
/// relies on.
class LuFactor {
 public:
  /// Empty factor; call factor() before solving.
  LuFactor() = default;

  explicit LuFactor(Matrix a);

  /// (Re)factorize `a`, copying it into internal storage. Existing
  /// capacity is reused when the size matches. Throws std::runtime_error
  /// on singularity, in which case valid() becomes false.
  void factor(const Matrix& a);

  /// (Re)factorize taking ownership of `a` (no copy).
  void factor(Matrix&& a);

  /// True when a factorization is loaded and numerically usable.
  bool valid() const { return valid_; }

  /// Solve A x = b for one right-hand side.
  std::vector<double> solve(std::span<const double> b) const;

  /// In-place solve (b is overwritten by x). Performs no heap allocation.
  void solve_in_place(std::span<double> b) const;

  std::size_t size() const { return lu_.rows(); }

  /// The packed factors: the unit lower triangle's multipliers below the
  /// diagonal, U on and above it.
  const Matrix& packed() const { return lu_; }
  /// Row interchanges: row k was swapped with row pivots()[k] at step k.
  std::span<const int> pivots() const { return piv_; }

 private:
  /// In-place LU of lu_ with partial pivoting; records row swaps in piv_.
  void factorize();

  Matrix lu_;
  std::vector<int> piv_;  ///< row swapped with row k at elimination step k
  bool valid_ = false;
};

/// Cholesky factorization A = L L^T of a symmetric positive definite
/// matrix (only the lower triangle of `a` is read).
/// Throws std::runtime_error if the matrix is not positive definite.
class Cholesky {
 public:
  explicit Cholesky(const Matrix& a);

  std::vector<double> solve(std::span<const double> b) const;

  /// Lower-triangular factor L.
  const Matrix& factor() const { return l_; }

  /// Solve L y = b (forward substitution).
  std::vector<double> forward(std::span<const double> b) const;

 private:
  Matrix l_;
};

/// Normal equations A^T A and A^T b of a least-squares problem,
/// accumulated one row of A at a time. Every entry is its own sequential
/// sum in row order, so the leading k x k block is, bit for bit, the
/// normal equations of A's first k columns: one pass serves every prefix.
class NormalEquations {
 public:
  NormalEquations() = default;
  /// n columns, all sums zero.
  explicit NormalEquations(std::size_t n) : ata_(n, n), atb_(n, 0.0) {}

  /// Add one row of A (size n) and its right-hand side.
  void add_row(std::span<const double> row, double b);

  /// (A_k^T A_k + lambda I) x = A_k^T b over the first k columns (k <= n),
  /// by Cholesky. Throws std::runtime_error if not positive definite.
  std::vector<double> solve_ridge(std::size_t k, double lambda) const;

  std::size_t size() const { return atb_.size(); }

 private:
  Matrix ata_;  ///< lower triangle of A^T A
  std::vector<double> atb_;
};

/// Ridge-regularized least squares: (A^T A + lambda I) x = A^T b.
/// Robust for nearly collinear regressor sets.
std::vector<double> solve_ridge(const Matrix& a, std::span<const double> b, double lambda);

/// Convenience: dense solve of a square system (single use). Routes
/// through a thread-local reusable LuFactor, so back-to-back calls on
/// same-sized systems perform no copy of `a` and no extra allocation.
std::vector<double> solve_dense(const Matrix& a, std::span<const double> b);

}  // namespace emc::linalg

// Sparse MNA substrate: CSR pattern with a coordinate-stamping builder,
// values over it, and the LU every MNA system factors through. SparseLu
// owns two kernels: a static-pivot refactor whose symbolic phase
// (fill-reducing ordering + fill pattern) is computed once per structure
// and reused across numeric refactorizations — Newton changes the values
// every iteration, never the structure — and dense partial pivoting whose
// solves walk only the nonzeros of its factors.
//
// Determinism contract: the elimination order is a pure function of the
// pattern (structure only, never of the values), so a factorization's
// rounding is identical no matter which corner previously used a reused
// workspace. A static-pivot refactor failing its numeric health check
// (pivot magnitude / multiplier growth) is redone with partial pivoting
// for that call only — a pure function of the values, so purity holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/decomp.hpp"
#include "linalg/matrix.hpp"

namespace emc::linalg {

/// One stamped position (0-based row/col in unknown space).
struct SparseCoord {
  int r = 0;
  int c = 0;
};

/// Immutable CSR sparsity pattern of an n x n system. Built from the
/// coordinate list a stamping pass produces (duplicates welcome); the full
/// diagonal is always included (the engine adds gmin there), but build()
/// remembers which diagonals were *structurally* stamped by a device —
/// the ordering uses that to defer numerically weak pivots (e.g. VSource
/// branch rows whose diagonal is only the gmin leakage).
class SparsePattern {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  SparsePattern() = default;

  /// Dedup + sort `coords` into CSR; throws std::invalid_argument on
  /// out-of-range coordinates.
  static SparsePattern build(std::size_t n, std::span<const SparseCoord> coords);

  std::size_t n() const { return n_; }
  std::size_t nnz() const { return col_.size(); }
  bool empty() const { return n_ == 0; }

  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const int> col() const { return col_; }

  /// Slot of (r, r); every row has one.
  std::size_t diag_slot(std::size_t r) const { return diag_slot_[r]; }

  /// True when some device stamped (r, r) — i.e. the diagonal exists
  /// beyond the engine's gmin augmentation.
  bool structural_diag(std::size_t r) const { return structural_diag_[r] != 0; }

  /// Slot of (r, c), or npos when the position is not in the pattern.
  std::size_t find(int r, int c) const;

  /// FNV-1a over the full structure (n, rows, columns, structural-diagonal
  /// flags): equal hashes => identical patterns for all practical purposes,
  /// which is what lets one symbolic analysis be shared across corners.
  std::uint64_t hash() const { return hash_; }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<int> col_;              ///< sorted within each row
  std::vector<std::size_t> diag_slot_;
  std::vector<char> structural_diag_;
  std::uint64_t hash_ = 0;
};

/// Values over a SparsePattern, one per pattern slot. The pattern is
/// referenced, not owned: it must outlive the matrix (both live side by
/// side in a ckt::ModeSystem).
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Bind to `p`; values are zeroed.
  void set_pattern(const SparsePattern* p);

  const SparsePattern* pattern() const { return p_; }
  std::size_t n() const { return p_ ? p_->n() : 0; }

  void clear_values();

  /// values(r, c) += v; returns false (and does nothing) when the position
  /// is outside the pattern — callers collect misses and rebuild.
  bool add(int r, int c, double v);

  /// Add `v` to every diagonal entry (the gmin augmentation).
  void add_diag(double v);

  std::span<const double> values() const { return values_; }

  /// The matrix as a dense n x n matrix.
  Matrix to_dense() const;
  /// Same into `m`, which must already be n x n (no allocation).
  void to_dense(Matrix& m) const;

 private:
  const SparsePattern* p_ = nullptr;
  std::vector<double> values_;  ///< one per pattern slot
};

/// Counters of the static-pivot kernel's work: how often the symbolic
/// analysis was reused, how often the numeric health check fell back to
/// partial pivoting, and how many factor entries the factor/solve kernels
/// walked (a solve after a fallback walks the pivoted factors' nonzeros).
/// Factorizations requested with pivot = true count nowhere.
struct SparseLuStats {
  long analyses = 0;         ///< symbolic phases computed
  long symbolic_reuses = 0;  ///< numeric refactors that reused the symbolic
  long refactors = 0;        ///< numeric factorizations performed
  long pivot_fallbacks = 0;  ///< refactors that failed health and pivoted
  long solves = 0;           ///< triangular-solve calls
  unsigned long long walk_entries = 0;
};

/// LU of a SparseMatrix through one of two kernels.
///
/// factor(a) is the static-pivot kernel. It runs the symbolic analysis
/// only when the pattern hash differs from the one analyzed last
/// (fill-reducing minimum-degree ordering on the symmetrized pattern, with
/// structurally weak diagonals deferred until an eliminated neighbor
/// strengthens them; then the exact fill pattern of L and U). Every later
/// factor() of the same structure is a cheap numeric refactorization:
/// scatter, eliminate along the precomputed pattern, gather — no
/// searching, no allocation. When the numeric health check fails (pivot
/// < 1e-300 or multiplier > 1e6 in magnitude) the matrix is refactored
/// with partial pivoting for this call.
///
/// factor(a, true) is the pivoting kernel: partial-pivot LuFactor of the
/// matrix's dense image in a reused scratch matrix — no symbolic analysis,
/// nothing added to stats() or the linalg.sparselu.* counters. Its nonzeros
/// are then kept by row (columns ascending, diagonal apart), and a solve
/// applies the row interchanges and substitutes through those entries
/// only, in LuFactor's order and dividing by the diagonal as it does: the
/// same result as LuFactor::solve_in_place for every finite right-hand
/// side (up to the sign of an exact zero), at O(nnz) instead of O(n^2).
class SparseLu {
 public:
  SparseLu() = default;

  /// (Re)factorize; throws std::runtime_error when the system is singular
  /// beyond even partial pivoting.
  void factor(const SparseMatrix& a, bool pivot = false);

  bool valid() const { return valid_; }

  /// Solve A x = b in place.
  void solve_in_place(std::span<double> b) const;

  /// Factor entries one solve walks through the current factors.
  unsigned long long solve_walk() const { return pivoted_ ? pivot_walk_ : solve_walk_; }

  /// Drop numeric *and* symbolic state (topology changed for good).
  void invalidate();

  const SparseLuStats& stats() const { return stats_; }

 private:
  void analyze(const SparsePattern& p);
  /// Partial-pivot LU of `a` into pivot_lu_.
  void factor_pivoting(const SparseMatrix& a);

  std::size_t n_ = 0;
  bool analyzed_ = false;
  bool valid_ = false;
  bool pivoted_ = false;  ///< the current factors live in pivot_lu_
  bool counted_ = false;  ///< solves count as static-pivot work
  std::uint64_t hash_ = 0;

  // Symbolic: elimination order and the static fill pattern (permuted
  // indices; L strictly lower with columns ascending, U strictly upper).
  std::vector<int> perm_;  ///< perm_[k] = original index eliminated at step k
  std::vector<int> pinv_;  ///< pinv_[original] = elimination step
  std::vector<std::size_t> l_ptr_;
  std::vector<int> l_col_;
  std::vector<std::size_t> u_ptr_;
  std::vector<int> u_col_;
  // Scatter map: for permuted row i, A slots a_slot_[k] land at permuted
  // column a_pcol_[k], k in [a_ptr_[i], a_ptr_[i+1]).
  std::vector<std::size_t> a_ptr_;
  std::vector<std::size_t> a_slot_;
  std::vector<int> a_pcol_;
  unsigned long long factor_walk_ = 0;
  unsigned long long solve_walk_ = 0;

  // Numeric factors of the static-pivot kernel.
  std::vector<double> l_val_;
  std::vector<double> u_val_;
  std::vector<double> inv_diag_;
  std::vector<double> w_;           ///< scatter workspace, n
  mutable std::vector<double> pb_;  ///< permuted rhs scratch for solves

  // Pivoting kernel: the dense image of the matrix, its factors, and their
  // nonzeros by row — L at [pr_ptr_[i], pr_mid_[i]), U at
  // [pr_mid_[i], pr_ptr_[i+1]), columns ascending; the diagonal apart.
  Matrix dense_;
  LuFactor pivot_lu_;
  std::vector<std::size_t> pr_ptr_;
  std::vector<std::size_t> pr_mid_;
  std::vector<int> pr_col_;
  std::vector<double> pr_val_;
  std::vector<double> pr_diag_;
  unsigned long long pivot_walk_ = 0;

  mutable SparseLuStats stats_;
};

}  // namespace emc::linalg

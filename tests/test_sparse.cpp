// Sparse MNA substrate: CSR pattern building, value storage, and SparseLu
// — symbolic reuse across static-pivot refactors, the weak-diagonal
// deferral that keeps VSource-style rows factorable without
// value-dependent pivoting, the partial-pivot fallback when the numeric
// health check fails, and the pivoting kernel requested for small systems.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "linalg/decomp.hpp"
#include "linalg/sparse.hpp"

namespace linalg = emc::linalg;

namespace {

/// Deterministic values in [-1, 1): tests must not depend on libc rand.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : s_(seed) {}
  double next() {
    s_ = s_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(s_ >> 11) / 4503599627370496.0 - 1.0;
  }

 private:
  std::uint64_t s_;
};

/// Random banded pattern + diagonally dominant values: well conditioned,
/// so the static-pivot factorization should never need the dense fallback.
void fill_banded(std::size_t n, std::uint64_t seed,
                 std::vector<linalg::SparseCoord>& coords, linalg::Matrix& dense) {
  Lcg rng(seed);
  dense = linalg::Matrix(n, n);
  coords.clear();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto d = i > j ? i - j : j - i;
      if (d > 3 && !(i % 7 == 0 && j + 1 == n)) continue;  // band + a few spikes
      const double v = i == j ? 8.0 + rng.next() : rng.next();
      coords.push_back({static_cast<int>(i), static_cast<int>(j)});
      dense(i, j) = v;
    }
  }
}

/// Block-diagonal pattern of dense 4 x 4 blocks chained by one coupling
/// entry each way between neighbouring blocks. The first block's diagonal
/// is tiny (1e-9 against O(1) off-diagonals), so whichever of its nodes the
/// static order eliminates first yields a multiplier near 1e9 and fails
/// the health check; partial pivoting keeps the factors block-sparse.
void fill_block_sparse(std::size_t blocks, std::uint64_t seed,
                       std::vector<linalg::SparseCoord>& coords, linalg::Matrix& dense) {
  Lcg rng(seed);
  const std::size_t n = 4 * blocks;
  dense = linalg::Matrix(n, n);
  coords.clear();
  const auto set = [&](std::size_t i, std::size_t j, double v) {
    coords.push_back({static_cast<int>(i), static_cast<int>(j)});
    dense(i, j) = v;
  };
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t i = 4 * b; i < 4 * b + 4; ++i)
      for (std::size_t j = 4 * b; j < 4 * b + 4; ++j)
        set(i, j, i != j ? 1.0 + 0.5 * rng.next() : b == 0 ? 1e-9 : 6.0 + rng.next());
    if (b + 1 < blocks) {
      set(4 * b + 3, 4 * b + 4, 0.5 * rng.next());
      set(4 * b + 4, 4 * b + 3, 0.5 * rng.next());
    }
  }
}

/// Off-diagonal nonzeros of LuFactor's packed factors plus the diagonal:
/// the entries a solve through them has to walk.
unsigned long long packed_walk(const linalg::LuFactor& lu) {
  const linalg::Matrix& m = lu.packed();
  unsigned long long w = m.rows();
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (i != j && m(i, j) != 0.0) ++w;
  return w;
}

void load_matrix(linalg::SparseMatrix& a, const linalg::Matrix& dense) {
  a.clear_values();
  const std::size_t n = dense.rows();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (dense(i, j) != 0.0) {
        ASSERT_TRUE(a.add(static_cast<int>(i), static_cast<int>(j), dense(i, j)));
      }
}

}  // namespace

TEST(SparsePattern, BuildDedupsSortsAndCompletesDiagonal) {
  const linalg::SparseCoord coords[] = {{0, 1}, {1, 0}, {0, 1}, {0, 0}, {2, 1}};
  const auto p = linalg::SparsePattern::build(3, coords);

  EXPECT_EQ(p.n(), 3u);
  // Dedup of the double (0,1) stamp, plus the implicit (1,1) and (2,2).
  EXPECT_EQ(p.nnz(), 6u);
  EXPECT_NE(p.find(0, 0), linalg::SparsePattern::npos);
  EXPECT_NE(p.find(1, 1), linalg::SparsePattern::npos);
  EXPECT_NE(p.find(2, 2), linalg::SparsePattern::npos);
  EXPECT_EQ(p.find(2, 0), linalg::SparsePattern::npos);
  EXPECT_EQ(p.diag_slot(1), p.find(1, 1));

  // Only (0,0) was stamped by a "device"; (1,1) and (2,2) are engine-added.
  EXPECT_TRUE(p.structural_diag(0));
  EXPECT_FALSE(p.structural_diag(1));
  EXPECT_FALSE(p.structural_diag(2));

  // Columns sorted within each row.
  for (std::size_t r = 0; r < p.n(); ++r)
    for (std::size_t s = p.row_ptr()[r] + 1; s < p.row_ptr()[r + 1]; ++s)
      EXPECT_LT(p.col()[s - 1], p.col()[s]);
}

TEST(SparsePattern, HashDistinguishesStructure) {
  const linalg::SparseCoord a[] = {{0, 1}, {1, 0}};
  const linalg::SparseCoord a_dup[] = {{1, 0}, {0, 1}, {0, 1}};
  const linalg::SparseCoord b[] = {{0, 1}, {1, 0}, {0, 2}};
  const linalg::SparseCoord c[] = {{0, 1}, {1, 0}, {0, 0}};  // diag now structural

  EXPECT_EQ(linalg::SparsePattern::build(3, a).hash(),
            linalg::SparsePattern::build(3, a_dup).hash());
  EXPECT_NE(linalg::SparsePattern::build(3, a).hash(),
            linalg::SparsePattern::build(3, b).hash());
  EXPECT_NE(linalg::SparsePattern::build(3, a).hash(),
            linalg::SparsePattern::build(3, c).hash());
  EXPECT_NE(linalg::SparsePattern::build(3, a).hash(),
            linalg::SparsePattern::build(4, a).hash());
}

TEST(SparsePattern, OutOfRangeCoordinateThrows) {
  const linalg::SparseCoord bad[] = {{0, 3}};
  EXPECT_THROW(linalg::SparsePattern::build(3, bad), std::invalid_argument);
  const linalg::SparseCoord neg[] = {{-1, 0}};
  EXPECT_THROW(linalg::SparsePattern::build(3, neg), std::invalid_argument);
}

TEST(SparseMatrix, AddMissesOutsidePattern) {
  const linalg::SparseCoord coords[] = {{0, 1}, {1, 0}};
  const auto p = linalg::SparsePattern::build(2, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);

  EXPECT_TRUE(a.add(0, 1, 2.0));
  EXPECT_TRUE(a.add(0, 1, 0.5));   // accumulates
  EXPECT_TRUE(a.add(0, 0, 3.0));   // diagonal always present
  EXPECT_TRUE(a.add(1, 1, 1.0));   // diagonal of row 1 too
  EXPECT_FALSE(a.add(0, 5, 1.0));  // out of range -> miss, not crash

  const auto d = a.to_dense();
  EXPECT_EQ(d(0, 1), 2.5);
  EXPECT_EQ(d(0, 0), 3.0);
  EXPECT_EQ(d(1, 0), 0.0);
}

TEST(SparseLu, MatchesDenseOnRandomBandedSystem) {
  const std::size_t n = 30;
  std::vector<linalg::SparseCoord> coords;
  linalg::Matrix dense;
  fill_banded(n, 42, coords, dense);

  const auto p = linalg::SparsePattern::build(n, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);
  load_matrix(a, dense);

  linalg::SparseLu lu;
  lu.factor(a);
  EXPECT_EQ(lu.stats().pivot_fallbacks, 0);

  Lcg rng(7);
  std::vector<double> b(n);
  for (double& v : b) v = rng.next();
  auto x = b;
  lu.solve_in_place(x);

  linalg::LuFactor ref;
  ref.factor(dense);
  const auto xr = ref.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xr[i], 1e-10);
}

TEST(SparseLu, WeakDiagonalDeferralHandlesVSourceRows) {
  // The MNA shape that breaks naive static ordering: a branch-current row
  // whose diagonal is only the engine's gmin leakage. Eliminating it first
  // would pivot on ~1e-12; the ordering must defer it until the voltage
  // row's elimination has strengthened it.
  const linalg::SparseCoord coords[] = {{0, 0}, {0, 1}, {1, 0}};
  const auto p = linalg::SparsePattern::build(2, coords);
  ASSERT_FALSE(p.structural_diag(1));

  linalg::SparseMatrix a;
  a.set_pattern(&p);
  a.add(0, 0, 2.0);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add_diag(1e-12);  // gmin augmentation

  linalg::SparseLu lu;
  lu.factor(a);
  EXPECT_EQ(lu.stats().pivot_fallbacks, 0);

  std::vector<double> x = {3.0, 1.0};
  lu.solve_in_place(x);
  linalg::LuFactor ref;
  ref.factor(a.to_dense());
  const auto xr = ref.solve(std::vector<double>{3.0, 1.0});
  EXPECT_NEAR(x[0], xr[0], 1e-9);
  EXPECT_NEAR(x[1], xr[1], 1e-9);
}

TEST(SparseLu, SymbolicReusedAcrossRefactors) {
  const std::size_t n = 20;
  std::vector<linalg::SparseCoord> coords;
  linalg::Matrix dense;
  fill_banded(n, 3, coords, dense);
  const auto p = linalg::SparsePattern::build(n, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);

  linalg::SparseLu lu;
  for (int round = 0; round < 3; ++round) {
    linalg::Matrix d2;
    std::vector<linalg::SparseCoord> unused;
    fill_banded(n, 100 + static_cast<std::uint64_t>(round), unused, d2);
    load_matrix(a, d2);
    lu.factor(a);

    std::vector<double> b(n, 1.0);
    auto x = b;
    lu.solve_in_place(x);
    linalg::LuFactor ref;
    ref.factor(d2);
    const auto xr = ref.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xr[i], 1e-9);
  }
  EXPECT_EQ(lu.stats().analyses, 1);
  EXPECT_EQ(lu.stats().refactors, 3);
  EXPECT_EQ(lu.stats().symbolic_reuses, 2);

  lu.invalidate();
  load_matrix(a, dense);
  lu.factor(a);
  EXPECT_EQ(lu.stats().analyses, 2);
}

TEST(SparseLu, DenseFallbackOnHealthFailureStaysCorrect) {
  // Static order eliminates index 0 first; the 1e-30 pivot then produces a
  // 1e30 multiplier, failing the health check. The factor must redo itself
  // with partial pivoting, transparently, and still solve correctly.
  const linalg::SparseCoord coords[] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const auto p = linalg::SparsePattern::build(2, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);
  a.add(0, 0, 1e-30);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 1.0);

  linalg::SparseLu lu;
  lu.factor(a);
  EXPECT_GT(lu.stats().pivot_fallbacks, 0);

  // Exact solution of [[1e-30, 1], [1, 1]] x = [1, 2] is x ~ [1, 1].
  std::vector<double> x = {1.0, 2.0};
  lu.solve_in_place(x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SparseLu, SingularBeyondFallbackThrows) {
  const linalg::SparseCoord coords[] = {{0, 1}, {1, 0}};
  const auto p = linalg::SparsePattern::build(2, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);  // all-zero values: singular however you pivot
  linalg::SparseLu lu;
  EXPECT_THROW(lu.factor(a), std::runtime_error);
  EXPECT_FALSE(lu.valid());
}

TEST(SparseLu, WalkCountersCountPatternEntriesOncePerCall) {
  const std::size_t n = 16;
  std::vector<linalg::SparseCoord> coords;
  linalg::Matrix dense;
  fill_banded(n, 5, coords, dense);
  const auto p = linalg::SparsePattern::build(n, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);
  load_matrix(a, dense);

  linalg::SparseLu lu;
  lu.factor(a);
  const auto factor_walk = lu.stats().walk_entries;
  EXPECT_GT(factor_walk, 0u);
  lu.factor(a);  // a refactor walks the same pattern again
  EXPECT_EQ(lu.stats().walk_entries, 2 * factor_walk);
  std::vector<double> b(n, 1.0);
  lu.solve_in_place(b);
  EXPECT_GT(lu.stats().walk_entries, 2 * factor_walk);
  EXPECT_EQ(lu.stats().walk_entries, 2 * factor_walk + lu.solve_walk());

  // After a health fallback the solve walks the pivoted factors' nonzeros,
  // and counts those, not the static pattern it no longer uses.
  std::vector<linalg::SparseCoord> fcoords;
  linalg::Matrix fdense;
  fill_block_sparse(4, 5, fcoords, fdense);
  // Two stamped positions holding exact zeros: the static fill pattern
  // walks them (and their fill), the pivoted factors hold none of them.
  fcoords.push_back({0, 15});
  fcoords.push_back({15, 0});
  const auto fp = linalg::SparsePattern::build(fdense.rows(), fcoords);
  linalg::SparseMatrix fa;
  fa.set_pattern(&fp);
  load_matrix(fa, fdense);
  linalg::SparseLu flu;
  flu.factor(fa);
  ASSERT_EQ(flu.stats().pivot_fallbacks, 1);
  const auto before = flu.stats().walk_entries;
  linalg::LuFactor ref;
  ref.factor(fa.to_dense());
  EXPECT_EQ(flu.solve_walk(), packed_walk(ref));
  std::vector<double> fb(fdense.rows(), 1.0);
  flu.solve_in_place(fb);
  flu.solve_in_place(fb);
  EXPECT_EQ(flu.stats().solves, 2);
  EXPECT_EQ(flu.stats().walk_entries, before + 2 * packed_walk(ref));
}

TEST(SparseLu, FallbackSolveWalksOnlyNonzerosAndEqualsLuFactor) {
  // A block-sparse system failing the static kernel's health check: its
  // solves must equal LuFactor on the dense image bit for bit, for
  // right-hand sides with and without exact zeros, while walking far fewer
  // than the n^2 entries of the dense factors.
  const std::size_t blocks = 20;
  std::vector<linalg::SparseCoord> coords;
  linalg::Matrix dense;
  fill_block_sparse(blocks, 17, coords, dense);
  const std::size_t n = dense.rows();
  ASSERT_GE(n, 64u);
  const auto p = linalg::SparsePattern::build(n, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);
  load_matrix(a, dense);

  linalg::SparseLu lu;
  lu.factor(a);
  ASSERT_EQ(lu.stats().pivot_fallbacks, 1);
  linalg::LuFactor ref;
  ref.factor(a.to_dense());
  EXPECT_EQ(lu.solve_walk(), packed_walk(ref));
  EXPECT_LT(lu.solve_walk(), n * n / 10);

  std::vector<std::vector<double>> rhs;
  rhs.emplace_back(n, 0.0);  // all zero
  rhs.emplace_back(n, 0.0);
  rhs.back()[n / 2] = 1.0;  // one port column
  rhs.emplace_back(n, 0.0);
  rhs.back()[0] = -2.5;  // the tiny-pivot block only
  Lcg rng(3);
  rhs.emplace_back(n);
  for (double& v : rhs.back()) v = rng.next();
  rhs.emplace_back(n);
  for (std::size_t i = 0; i < n; ++i) rhs.back()[i] = i % 3 == 0 ? rng.next() : 0.0;

  for (std::size_t r = 0; r < rhs.size(); ++r) {
    auto x = rhs[r];
    const auto walked = lu.stats().walk_entries;
    lu.solve_in_place(x);
    EXPECT_EQ(lu.stats().walk_entries - walked, lu.solve_walk());
    const auto xr = ref.solve(rhs[r]);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], xr[i]) << "rhs " << r << " row " << i;
  }
}

TEST(SparseLu, PivotRouteIsLuFactorOfTheDenseImage) {
  // factor(a, true) is LuFactor on a.to_dense(), bit for bit, and counts
  // no static-pivot work: no analysis, no refactor, no solve, no walk.
  const std::size_t n = 24;
  std::vector<linalg::SparseCoord> coords;
  linalg::Matrix dense;
  fill_banded(n, 11, coords, dense);
  const auto p = linalg::SparsePattern::build(n, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);

  linalg::SparseLu lu;
  for (std::uint64_t round = 0; round < 2; ++round) {  // round 1 reuses the scratch
    linalg::Matrix values;
    std::vector<linalg::SparseCoord> unused;
    fill_banded(n, 500 + round, unused, values);
    load_matrix(a, values);
    lu.factor(a, /*pivot=*/true);
    ASSERT_TRUE(lu.valid());

    Lcg rng(99 + round);
    std::vector<double> b(n);
    for (double& v : b) v = rng.next();
    auto x = b;
    lu.solve_in_place(x);

    linalg::LuFactor ref;
    ref.factor(a.to_dense());
    const auto xr = ref.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], xr[i]) << "row " << i;
  }
  EXPECT_EQ(lu.stats().analyses, 0);
  EXPECT_EQ(lu.stats().refactors, 0);
  EXPECT_EQ(lu.stats().solves, 0);
  EXPECT_EQ(lu.stats().walk_entries, 0u);

  // The static kernel still analyzes on first use after pivoted factors.
  lu.factor(a);
  EXPECT_EQ(lu.stats().analyses, 1);
  EXPECT_EQ(lu.stats().refactors, 1);
}

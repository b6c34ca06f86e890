#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "linalg/decomp.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"

namespace la = emc::linalg;

namespace {

/// Deterministic pseudo-random doubles for property tests.
double prand(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<double>(s >> 11) * (1.0 / 9007199254740992.0) * 2.0 - 1.0;
}

la::Matrix random_matrix(std::size_t n, std::uint64_t seed, double diag_boost = 0.0) {
  la::Matrix a(n, n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = prand(s);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += diag_boost;
  return a;
}

}  // namespace

TEST(Matrix, InitializerListAndAccess) {
  la::Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((la::Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Transpose) {
  la::Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const la::Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(Matrix, ProductAgainstHandComputed) {
  la::Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  la::Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const la::Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  la::Matrix a(2, 3);
  la::Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
  std::vector<double> v(2, 1.0);
  EXPECT_THROW(a.apply(v), std::invalid_argument);
}

TEST(Matrix, IdentityApply) {
  const la::Matrix i3 = la::Matrix::identity(3);
  std::vector<double> v{1.0, -2.0, 3.0};
  const auto y = i3.apply(v);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_DOUBLE_EQ(y[k], v[k]);
}

TEST(VectorOps, NormsAndDot) {
  std::vector<double> a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(la::norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(la::norm_inf(a), 4.0);
  std::vector<double> b{1.0, 2.0};
  EXPECT_DOUBLE_EQ(la::dot(a, b), 11.0);
}

TEST(Lu, SolvesKnownSystem) {
  la::Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  std::vector<double> b{5.0, 10.0};
  const auto x = la::LuFactor(a).solve(b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  la::Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(la::LuFactor{a}, std::runtime_error);
}

TEST(Lu, DefaultConstructedIsInvalid) {
  la::LuFactor lu;
  EXPECT_FALSE(lu.valid());
  std::vector<double> b;
  EXPECT_THROW(lu.solve_in_place(b), std::runtime_error);
}

TEST(Lu, RefactorReusesStorageAcrossSystems) {
  la::LuFactor lu;
  lu.factor(la::Matrix{{2.0, 1.0}, {1.0, 3.0}});
  EXPECT_TRUE(lu.valid());
  std::vector<double> b{5.0, 10.0};
  lu.solve_in_place(b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);

  // Refactor the same object with a different same-size system.
  const la::Matrix a2{{4.0, 0.0}, {0.0, 2.0}};
  lu.factor(a2);
  std::vector<double> b2{8.0, 6.0};
  lu.solve_in_place(b2);
  EXPECT_NEAR(b2[0], 2.0, 1e-12);
  EXPECT_NEAR(b2[1], 3.0, 1e-12);

  // And with a different size.
  lu.factor(la::Matrix{{1.0}});
  EXPECT_EQ(lu.size(), 1u);
  std::vector<double> b3{7.0};
  lu.solve_in_place(b3);
  EXPECT_NEAR(b3[0], 7.0, 1e-12);
}

TEST(Lu, FailedRefactorInvalidates) {
  la::LuFactor lu;
  lu.factor(la::Matrix{{2.0, 1.0}, {1.0, 3.0}});
  ASSERT_TRUE(lu.valid());
  EXPECT_THROW(lu.factor(la::Matrix{{1.0, 2.0}, {2.0, 4.0}}), std::runtime_error);
  EXPECT_FALSE(lu.valid());
  std::vector<double> b{1.0, 1.0};
  EXPECT_THROW(lu.solve_in_place(b), std::runtime_error);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  la::Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  std::vector<double> b{2.0, 3.0};
  const auto x = la::LuFactor(a).solve(b);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

class LuRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LuRoundTrip, RandomSystemResidualSmall) {
  const int n = GetParam();
  const la::Matrix a = random_matrix(static_cast<std::size_t>(n), 1234 + n, 2.0 * n);
  std::uint64_t s = 99 + static_cast<std::uint64_t>(n);
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = prand(s);
  const auto b = a.apply(x_true);
  const auto x = la::LuFactor(a).solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRoundTrip, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40));

TEST(Cholesky, SolvesSpdSystem) {
  la::Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  std::vector<double> b{8.0, 7.0};
  const auto x = la::Cholesky(a).solve(b);
  EXPECT_NEAR(4.0 * x[0] + 2.0 * x[1], 8.0, 1e-12);
  EXPECT_NEAR(2.0 * x[0] + 3.0 * x[1], 7.0, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  la::Matrix a{{1.0, 2.0}, {2.0, 1.0}};
  EXPECT_THROW(la::Cholesky{a}, std::runtime_error);
}

TEST(Cholesky, FactorReproducesMatrix) {
  la::Matrix a{{4.0, 2.0, 0.5}, {2.0, 5.0, 1.0}, {0.5, 1.0, 3.0}};
  const la::Cholesky ch(a);
  const la::Matrix l = ch.factor();
  const la::Matrix llt = l * l.transposed();
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(llt(i, j), a(i, j), 1e-12);
}

TEST(LeastSquares, ExactFitWhenSquare) {
  la::Matrix a{{1.0, 1.0}, {1.0, 2.0}};
  std::vector<double> b{3.0, 5.0};
  const auto x = la::solve_ridge(a, b, 0.0);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(LeastSquares, OverdeterminedLineFit) {
  // Fit y = 2 + 3t through noiseless samples: must recover exactly.
  const std::size_t m = 20;
  la::Matrix a(m, 2);
  std::vector<double> b(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double t = static_cast<double>(k) * 0.1;
    a(k, 0) = 1.0;
    a(k, 1) = t;
    b[k] = 2.0 + 3.0 * t;
  }
  const auto x = la::solve_ridge(a, b, 0.0);
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(Ridge, ShrinksSolution) {
  la::Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  std::vector<double> b{1.0, 1.0};
  const auto x0 = la::solve_ridge(a, b, 0.0);
  const auto x1 = la::solve_ridge(a, b, 1.0);
  EXPECT_NEAR(x0[0], 1.0, 1e-12);
  EXPECT_NEAR(x1[0], 0.5, 1e-12);
}

TEST(Ridge, RowPassEqualsColumnStridedNormalEquationsBitwise) {
  // Oracle: the column-strided normal equations (one sequential row-order
  // sum per (i, j) pair) that solve_ridge accumulated before it made a
  // single pass over the rows. Every entry is the same sum in the same
  // order, so the solutions must agree bit for bit.
  std::uint64_t s = 23;
  const std::size_t m = 257, n = 9;
  la::Matrix a(m, n);
  std::vector<double> b(m);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < n; ++j) a(k, j) = prand(s);
    b[k] = prand(s);
  }
  const double lambda = 1e-3;
  la::Matrix ata(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < m; ++k) acc += a(k, i) * a(k, j);
      ata(i, j) = acc;
      ata(j, i) = acc;
    }
    ata(i, i) += lambda;
  }
  std::vector<double> atb(n, 0.0);
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t i = 0; i < n; ++i) atb[i] += a(k, i) * b[k];
  const auto oracle = la::Cholesky(ata).solve(atb);

  const auto x = la::solve_ridge(a, b, lambda);
  ASSERT_EQ(x.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]), std::bit_cast<std::uint64_t>(oracle[i]))
        << "x[" << i << "] " << x[i] << " vs " << oracle[i];
}

TEST(NormalEquations, LeadingBlockEqualsPrefixColumnsBitwise) {
  // One accumulation over all n columns serves every prefix: solving its
  // leading k block equals solve_ridge on the first k columns, bit for bit.
  std::uint64_t s = 41;
  const std::size_t m = 120, n = 7;
  la::Matrix a(m, n);
  std::vector<double> b(m);
  la::NormalEquations ne(n);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < n; ++j) a(k, j) = prand(s);
    b[k] = prand(s);
    ne.add_row(a.row(k), b[k]);
  }
  for (std::size_t cols = 1; cols <= n; ++cols) {
    la::Matrix prefix(m, cols);
    for (std::size_t k = 0; k < m; ++k)
      for (std::size_t j = 0; j < cols; ++j) prefix(k, j) = a(k, j);
    const auto want = la::solve_ridge(prefix, b, 1e-6);
    const auto got = ne.solve_ridge(cols, 1e-6);
    ASSERT_EQ(got.size(), cols);
    for (std::size_t j = 0; j < cols; ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j]), std::bit_cast<std::uint64_t>(want[j]))
          << cols << " columns, x[" << j << "]";
  }
  EXPECT_THROW(ne.solve_ridge(n + 1, 0.0), std::invalid_argument);
  EXPECT_THROW(ne.add_row(std::vector<double>(n - 1), 0.0), std::invalid_argument);
}

TEST(Eigen, DiagonalMatrix) {
  la::Matrix a{{3.0, 0.0}, {0.0, 1.0}};
  const auto e = la::eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  la::Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  const auto e = la::eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 1.0, 1e-10);
  EXPECT_NEAR(e.values[1], 3.0, 1e-10);
}

class EigenProperty : public ::testing::TestWithParam<int> {};

TEST_P(EigenProperty, ReconstructsAVEqualsVLambda) {
  const auto n = static_cast<std::size_t>(GetParam());
  la::Matrix a = random_matrix(n, 42 + n, 0.0);
  // Symmetrize.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) a(j, i) = a(i, j);
  const auto e = la::eigen_symmetric(a);

  // Check A v_k = lambda_k v_k for each eigenpair.
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = e.vectors(i, k);
    const auto av = a.apply(v);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(av[i], e.values[k] * v[i], 1e-8);
  }
  // Eigenvalues ascending.
  for (std::size_t k = 1; k < n; ++k) EXPECT_LE(e.values[k - 1], e.values[k] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenProperty, ::testing::Values(2, 3, 4, 6, 9, 12));

TEST(Eigen, OrthonormalEigenvectors) {
  la::Matrix a{{4.0, 1.0, 0.2}, {1.0, 3.0, 0.5}, {0.2, 0.5, 2.0}};
  const auto e = la::eigen_symmetric(a);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      double d = 0.0;
      for (std::size_t k = 0; k < 3; ++k) d += e.vectors(k, i) * e.vectors(k, j);
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

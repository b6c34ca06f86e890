// Concrete stamping targets behind the abstract ckt::Stamper interface.
//
// * PatternStamper: value-free discovery pass recording every stamped
//   (row, col) position; SparsePattern::build() turns the list into CSR.
// * SparseStamper: assembly into a SparseMatrix. Out-of-pattern stamps
//   are collected instead of applied, so the engine can grow the pattern
//   and retry the assembly.
// * RhsStamper: right-hand side only (the port-reduced engine refreshes
//   the linear interconnect's rhs every step against a frozen matrix).
// * PortStamper: nonlinear stamps into the dense p x p port block of the
//   port-reduced engine; stamps touching a non-port unknown are collected
//   so the engine can grow the port set.
#pragma once

#include <span>
#include <vector>

#include "circuit/device.hpp"
#include "linalg/sparse.hpp"

namespace emc::ckt {

/// Structure-discovery pass: records stamped matrix positions (0-based,
/// ground dropped), ignores all values and the right-hand side.
class PatternStamper final : public Stamper {
 public:
  void g(int row_id, int col_id, double val) override {
    (void)val;
    if (row_id == 0 || col_id == 0) return;
    coords_.push_back({row_id - 1, col_id - 1});
  }

  void rhs(int row_id, double val) override {
    (void)row_id;
    (void)val;
  }

  std::vector<linalg::SparseCoord> take_coords() && { return std::move(coords_); }

 private:
  std::vector<linalg::SparseCoord> coords_;
};

/// Sparse assembly into `a`. Stamps landing outside the pattern are
/// recorded in missed() — the caller appends them to its coordinate list,
/// rebuilds the pattern and re-runs the assembly.
class SparseStamper final : public Stamper {
 public:
  SparseStamper(linalg::SparseMatrix& a, std::span<double> rhs) : a_(a), rhs_(rhs) {}

  void g(int row_id, int col_id, double val) override {
    if (row_id == 0 || col_id == 0) return;
    if (!a_.add(row_id - 1, col_id - 1, val)) missed_.push_back({row_id - 1, col_id - 1});
  }

  void rhs(int row_id, double val) override {
    if (row_id == 0) return;
    rhs_[static_cast<std::size_t>(row_id) - 1] += val;
  }

  const std::vector<linalg::SparseCoord>& missed() const { return missed_; }

 private:
  linalg::SparseMatrix& a_;
  std::span<double> rhs_;
  std::vector<linalg::SparseCoord> missed_;
};

/// Right-hand-side-only assembly: matrix entries are dropped.
class RhsStamper final : public Stamper {
 public:
  explicit RhsStamper(std::span<double> rhs) : rhs_(rhs) {}

  void g(int, int, double) override {}

  void rhs(int row_id, double val) override {
    if (row_id == 0) return;
    rhs_[static_cast<std::size_t>(row_id) - 1] += val;
  }

 private:
  std::span<double> rhs_;
};

/// Port-block assembly: port_of[i] is the port index of unknown i (or -1),
/// and matrix / rhs stamps land in the p x p block `g` and the p-vector
/// `rhs` at those indices. A stamp touching a non-port unknown is dropped
/// and its unknowns recorded in missed() (0-based, possibly repeated) —
/// with an all -1 map this is the port-discovery pass.
class PortStamper final : public Stamper {
 public:
  PortStamper(std::span<const int> port_of, linalg::Matrix& g, std::span<double> rhs)
      : port_of_(port_of), g_(g), rhs_(rhs) {}

  void g(int row_id, int col_id, double val) override {
    if (row_id == 0 || col_id == 0) return;
    const int r = port_of_[static_cast<std::size_t>(row_id) - 1];
    const int c = port_of_[static_cast<std::size_t>(col_id) - 1];
    if (r < 0) missed_.push_back(row_id - 1);
    if (c < 0) missed_.push_back(col_id - 1);
    if (r >= 0 && c >= 0) g_(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += val;
  }

  void rhs(int row_id, double val) override {
    if (row_id == 0) return;
    const int r = port_of_[static_cast<std::size_t>(row_id) - 1];
    if (r < 0)
      missed_.push_back(row_id - 1);
    else
      rhs_[static_cast<std::size_t>(r)] += val;
  }

  const std::vector<int>& missed() const { return missed_; }

 private:
  std::span<const int> port_of_;
  linalg::Matrix& g_;
  std::span<double> rhs_;
  std::vector<int> missed_;
};

}  // namespace emc::ckt

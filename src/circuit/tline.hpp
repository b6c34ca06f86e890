// Transmission lines.
//
// * IdealLine: single lossless line via the method of characteristics
//   (Branin). Exact for any load, requires delay >= one time step.
// * ModalLineSegment: N-conductor lossless coupled segment. The RLGC
//   system is diagonalized once (Cholesky of C + Jacobi eigensolver of
//   S L S^T), giving N independent modal lines, each handled with the
//   method of characteristics.
// * add_coupled_lossy_line(): W-element-style lossy multiconductor line,
//   realized as a cascade of lossless modal segments with the series
//   resistance (dc + optional skin-effect R-L ladder) and the shunt
//   dielectric conductance lumped at the section boundaries.
#pragma once

#include <vector>

#include "circuit/device.hpp"
#include "circuit/netlist.hpp"
#include "linalg/matrix.hpp"

namespace emc::ckt {

/// Lossless single line between port (ap, am) and port (bp, bm).
/// At DC it behaves as a (near-ideal) short between the corresponding
/// terminals so the operating point is well defined.
class IdealLine : public Device {
 public:
  /// Throws std::invalid_argument if z0 or td is non-positive.
  IdealLine(int ap, int am, int bp, int bm, double z0, double td);

  void start_step(const SimState& st) override;
  void stamp(Stamper& s, const SimState& st) const override;
  void commit(const SimState& st) override;
  void post_dc(const SimState& st) override;
  void reset() override;

  double z0() const { return z0_; }
  double td() const { return td_; }

 private:
  double wave_at(const std::vector<double>& hist, double t) const;

  int ap_, am_, bp_, bm_;
  double z0_, td_;
  double g_;  // 1/z0

  // Committed history of the backward/forward waves w = v + z0*i at each
  // end, sampled at the fixed engine step.
  double hist_t0_ = 0.0;
  double hist_dt_ = 0.0;
  std::vector<double> wave_a_, wave_b_;
  double ea_ = 0.0, eb_ = 0.0;  // incident terms for the step being solved
};

/// Per-conductor loss description of a coupled line (per meter).
struct LineLoss {
  double rdc = 0.0;       ///< series dc resistance [ohm/m]
  double rskin = 0.0;     ///< skin coefficient: R(f) ~ rdc + rskin*sqrt(f) [ohm/(m*sqrt(Hz))]
  double tan_delta = 0.0; ///< dielectric loss factor
  double f_ref = 1e9;     ///< frequency where the shunt G is evaluated [Hz]
};

/// Parameters of a uniform multiconductor line (Maxwellian matrices:
/// C off-diagonals are negative, L off-diagonals positive).
struct CoupledLineParams {
  linalg::Matrix l;  ///< inductance matrix [H/m], symmetric positive definite
  linalg::Matrix c;  ///< capacitance matrix [F/m], symmetric positive definite
  double length = 0.0;  ///< [m]
  LineLoss loss;
};

/// Lossless N-conductor coupled segment (reference conductor = ground).
class ModalLineSegment : public Device {
 public:
  /// nodes_a / nodes_b: the N terminal nodes at each end.
  /// Throws std::invalid_argument on inconsistent sizes or non-SPD L/C.
  ModalLineSegment(std::vector<int> nodes_a, std::vector<int> nodes_b,
                   const linalg::Matrix& l_per_m, const linalg::Matrix& c_per_m,
                   double length);

  void start_step(const SimState& st) override;
  void stamp(Stamper& s, const SimState& st) const override;
  void commit(const SimState& st) override;
  void post_dc(const SimState& st) override;
  void reset() override;

  std::size_t modes() const { return z0m_.size(); }
  /// Modal impedance in the *scaled* modal coordinates (units absorb the
  /// voltage/current transforms); use char_admittance() for physical ohms.
  double modal_z0(std::size_t m) const { return z0m_[m]; }
  double modal_td(std::size_t m) const { return tdm_[m]; }
  /// Physical characteristic admittance matrix Y_c [S].
  const linalg::Matrix& char_admittance() const { return y_; }

 private:
  double wave_at(const std::vector<double>& hist, double t) const;
  /// Modal voltage m of the terminal set `nodes`: (tv_inv * v)[m].
  double modal_voltage(const SimState& st, const std::vector<int>& nodes, std::size_t m) const;

  std::vector<int> na_, nb_;
  std::size_t n_;
  linalg::Matrix tv_inv_;  // modal voltage transform: vm = tv_inv * v
  linalg::Matrix ti_;      // physical currents: i = ti * im
  linalg::Matrix y_;       // port admittance ti * diag(1/z0m) * tv_inv
  std::vector<double> z0m_, tdm_;

  double hist_t0_ = 0.0;
  double hist_dt_ = 0.0;
  std::vector<std::vector<double>> wave_a_, wave_b_;  // per mode
  std::vector<double> ja_, jb_;                       // companion current sources
  std::vector<double> ea_, eb_;                       // modal incident terms
};

/// Handle to a lossy coupled line built into a circuit.
struct CoupledLineHandle {
  std::vector<int> nodes_a;  ///< near-end terminals (as passed in)
  std::vector<int> nodes_b;  ///< far-end terminals
  int sections = 0;
  std::vector<ModalLineSegment*> segments;
};

/// Build a lossy coupled multiconductor line between nodes_a and nodes_b as
/// a cascade of `sections` lossless modal segments with lumped losses.
/// `dt_hint` is the transient step the line will run at; the constructor
/// checks every modal section delay is >= dt_hint (throws otherwise).
/// Pass sections = 0 to auto-select the largest valid count (capped at 16).
CoupledLineHandle add_coupled_lossy_line(Circuit& ckt, const std::vector<int>& nodes_a,
                                         const std::vector<int>& nodes_b,
                                         const CoupledLineParams& params, double dt_hint,
                                         int sections = 0);

/// Fitted skin-effect ladder values (exposed for unit testing): series
/// branches (r_k, l_k) such that R0 + sum of engaged branches approximates
/// rdc*len + rskin*len*sqrt(f) between f_lo and f_hi.
struct SkinLadder {
  std::vector<double> r;  // [ohm]
  std::vector<double> l;  // [H]
};
SkinLadder fit_skin_ladder(double rskin_times_len, double f_lo, double f_hi, int branches);

}  // namespace emc::ckt

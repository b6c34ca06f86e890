#include "circuit/tline.hpp"

#include <cmath>
#include <stdexcept>

#include "circuit/devices_linear.hpp"
#include "linalg/decomp.hpp"
#include "linalg/eigen.hpp"

namespace emc::ckt {

namespace {
constexpr double kDcShortConductance = 1e3;  // DC companion of a lossless line
}

IdealLine::IdealLine(int ap, int am, int bp, int bm, double z0, double td)
    : ap_(ap), am_(am), bp_(bp), bm_(bm), z0_(z0), td_(td), g_(1.0 / z0) {
  if (z0 <= 0.0) throw std::invalid_argument("IdealLine: z0 must be positive");
  if (td <= 0.0) throw std::invalid_argument("IdealLine: td must be positive");
}

double IdealLine::wave_at(const std::vector<double>& hist, double t) const {
  if (hist.empty()) return 0.0;
  const double u = (t - hist_t0_) / hist_dt_;
  if (u <= 0.0) return hist.front();
  const auto last = static_cast<double>(hist.size() - 1);
  if (u >= last) return hist.back();
  const auto k = static_cast<std::size_t>(u);
  const double frac = u - static_cast<double>(k);
  return hist[k] * (1.0 - frac) + hist[k + 1] * frac;
}

void IdealLine::start_step(const SimState& st) {
  if (st.dt > 0.0 && td_ < st.dt)
    throw std::runtime_error("IdealLine: delay shorter than the time step");
  hist_dt_ = st.dt;
  // Incident wave at each end = wave launched from the far end td ago.
  ea_ = wave_at(wave_b_, st.t - td_);
  eb_ = wave_at(wave_a_, st.t - td_);
}

void IdealLine::stamp(Stamper& s, const SimState& st) const {
  if (st.dc) {
    s.conductance(ap_, bp_, kDcShortConductance);
    if (am_ != bm_) s.conductance(am_, bm_, kDcShortConductance);
    return;
  }
  // i_a = (v_a - E_a)/z0 into the line at each end.
  s.conductance(ap_, am_, g_);
  s.current_source(am_, ap_, g_ * ea_);
  s.conductance(bp_, bm_, g_);
  s.current_source(bm_, bp_, g_ * eb_);
}

void IdealLine::commit(const SimState& st) {
  if (st.dc) return;
  const double va = st.v(ap_) - st.v(am_);
  const double vb = st.v(bp_) - st.v(bm_);
  const double ia = g_ * (va - ea_);
  const double ib = g_ * (vb - eb_);
  if (wave_a_.empty()) hist_t0_ = st.t;
  wave_a_.push_back(va + z0_ * ia);
  wave_b_.push_back(vb + z0_ * ib);
}

void IdealLine::post_dc(const SimState& st) {
  // Seed a steady pre-history consistent with the operating point: at DC
  // i_a = -i_b = i through the line, both waves constant.
  const double va = st.v(ap_) - st.v(am_);
  const double vb = st.v(bp_) - st.v(bm_);
  const double ia = kDcShortConductance * (va - vb);
  wave_a_.assign(1, va + z0_ * ia);
  wave_b_.assign(1, vb - z0_ * ia);
  hist_t0_ = st.t;
  hist_dt_ = 1.0;  // single constant sample; interpolation clamps anyway
}

void IdealLine::reset() {
  wave_a_.clear();
  wave_b_.clear();
  ea_ = eb_ = 0.0;
}

ModalLineSegment::ModalLineSegment(std::vector<int> nodes_a, std::vector<int> nodes_b,
                                   const linalg::Matrix& l_per_m,
                                   const linalg::Matrix& c_per_m, double length)
    : na_(std::move(nodes_a)), nb_(std::move(nodes_b)), n_(na_.size()) {
  if (n_ == 0 || nb_.size() != n_)
    throw std::invalid_argument("ModalLineSegment: inconsistent terminal lists");
  if (l_per_m.rows() != n_ || l_per_m.cols() != n_ || c_per_m.rows() != n_ ||
      c_per_m.cols() != n_)
    throw std::invalid_argument("ModalLineSegment: matrix size mismatch");
  if (length <= 0.0) throw std::invalid_argument("ModalLineSegment: length must be positive");

  // Diagonalize LC: with C = Lc Lc^T (Cholesky), S = Lc^T, the matrix
  // S L S^T is symmetric; its eigenvalues are the squared modal slownesses
  // and, because the modal capacitance is exactly the identity in this
  // basis, the modal impedances are sqrt(lambda).
  const linalg::Cholesky chol(c_per_m);
  const linalg::Matrix lc = chol.factor();  // lower triangular
  const linalg::Matrix s_up = lc.transposed();

  linalg::Matrix m_sym = s_up * l_per_m * lc;
  const auto eig = linalg::eigen_symmetric(m_sym);

  z0m_.resize(n_);
  tdm_.resize(n_);
  for (std::size_t m = 0; m < n_; ++m) {
    if (eig.values[m] <= 0.0)
      throw std::invalid_argument("ModalLineSegment: LC product not positive definite");
    z0m_[m] = std::sqrt(eig.values[m]);
    tdm_[m] = length * std::sqrt(eig.values[m]);
  }

  // tv_inv = Q^T S;  ti = S^T Q = Lc Q.
  tv_inv_ = eig.vectors.transposed() * s_up;
  ti_ = lc * eig.vectors;

  // Port admittance Y = ti * diag(1/z0m) * tv_inv.
  linalg::Matrix mid(n_, n_);
  for (std::size_t m = 0; m < n_; ++m) mid(m, m) = 1.0 / z0m_[m];
  y_ = ti_ * mid * tv_inv_;

  wave_a_.resize(n_);
  wave_b_.resize(n_);
  ea_.resize(n_);
  eb_.resize(n_);
  ja_.resize(n_);
  jb_.resize(n_);
}

double ModalLineSegment::wave_at(const std::vector<double>& hist, double t) const {
  if (hist.empty()) return 0.0;
  const double u = (t - hist_t0_) / hist_dt_;
  if (u <= 0.0) return hist.front();
  const auto last = static_cast<double>(hist.size() - 1);
  if (u >= last) return hist.back();
  const auto k = static_cast<std::size_t>(u);
  const double frac = u - static_cast<double>(k);
  return hist[k] * (1.0 - frac) + hist[k + 1] * frac;
}

double ModalLineSegment::modal_voltage(const SimState& st, const std::vector<int>& nodes,
                                       std::size_t m) const {
  // Row m of tv_inv * v, summed like Matrix::apply (k ascending).
  double acc = 0.0;
  for (std::size_t k = 0; k < n_; ++k) acc += tv_inv_(m, k) * st.v(nodes[k]);
  return acc;
}

void ModalLineSegment::start_step(const SimState& st) {
  hist_dt_ = st.dt;
  for (std::size_t m = 0; m < n_; ++m) {
    if (st.dt > 0.0 && tdm_[m] < st.dt)
      throw std::runtime_error("ModalLineSegment: modal delay shorter than the time step");
    ea_[m] = wave_at(wave_b_[m], st.t - tdm_[m]);
    eb_[m] = wave_at(wave_a_[m], st.t - tdm_[m]);
  }
  // Physical companion current sources J = ti * diag(1/z0m) * E, in place
  // (summed like Matrix::apply: m ascending).
  for (std::size_t r = 0; r < n_; ++r) {
    double acc_a = 0.0, acc_b = 0.0;
    for (std::size_t m = 0; m < n_; ++m) {
      acc_a += ti_(r, m) * (ea_[m] / z0m_[m]);
      acc_b += ti_(r, m) * (eb_[m] / z0m_[m]);
    }
    ja_[r] = acc_a;
    jb_[r] = acc_b;
  }
}

void ModalLineSegment::stamp(Stamper& s, const SimState& st) const {
  if (st.dc) {
    for (std::size_t k = 0; k < n_; ++k)
      s.conductance(na_[k], nb_[k], kDcShortConductance);
    return;
  }
  // i_a = Y v_a - J_a (into the line), same at end b.
  for (std::size_t k = 0; k < n_; ++k) {
    for (std::size_t l = 0; l < n_; ++l) {
      s.g(na_[k], na_[l], y_(k, l));
      s.g(nb_[k], nb_[l], y_(k, l));
    }
    s.current_source(0, na_[k], ja_[k]);
    s.current_source(0, nb_[k], jb_[k]);
  }
}

void ModalLineSegment::commit(const SimState& st) {
  if (st.dc) return;
  const bool first = wave_a_[0].empty();
  if (first) hist_t0_ = st.t;
  for (std::size_t m = 0; m < n_; ++m) {
    const double vma = modal_voltage(st, na_, m);
    const double vmb = modal_voltage(st, nb_, m);
    const double ima = (vma - ea_[m]) / z0m_[m];
    const double imb = (vmb - eb_[m]) / z0m_[m];
    wave_a_[m].push_back(vma + z0m_[m] * ima);
    wave_b_[m].push_back(vmb + z0m_[m] * imb);
  }
}

void ModalLineSegment::post_dc(const SimState& st) {
  // Physical DC currents through the companion shorts.
  std::vector<double> idc(n_);
  for (std::size_t k = 0; k < n_; ++k)
    idc[k] = kDcShortConductance * (st.v(na_[k]) - st.v(nb_[k]));
  // Modal currents: im = ti^{-1} i. ti = Lc Q is cheap to invert via the
  // admittance relation; here we solve the small dense system directly.
  const auto im = linalg::solve_dense(ti_, idc);
  hist_t0_ = st.t;
  hist_dt_ = 1.0;
  for (std::size_t m = 0; m < n_; ++m) {
    wave_a_[m].assign(1, modal_voltage(st, na_, m) + z0m_[m] * im[m]);
    wave_b_[m].assign(1, modal_voltage(st, nb_, m) - z0m_[m] * im[m]);
  }
}

void ModalLineSegment::reset() {
  for (auto& h : wave_a_) h.clear();
  for (auto& h : wave_b_) h.clear();
}

SkinLadder fit_skin_ladder(double rskin_times_len, double f_lo, double f_hi, int branches) {
  if (branches < 1) throw std::invalid_argument("fit_skin_ladder: need >= 1 branch");
  if (f_lo <= 0.0 || f_hi <= f_lo) throw std::invalid_argument("fit_skin_ladder: bad band");
  SkinLadder lad;
  double prev_cum = 0.0;
  for (int k = 0; k < branches; ++k) {
    // Corner frequencies log-spaced across the band; the cumulative
    // engaged resistance at f_k matches rskin*sqrt(f_k).
    const double frac = (branches == 1) ? 0.5
                                        : static_cast<double>(k) /
                                              static_cast<double>(branches - 1);
    const double fk = f_lo * std::pow(f_hi / f_lo, frac);
    const double cum = rskin_times_len * std::sqrt(fk);
    const double rk = cum - prev_cum;
    prev_cum = cum;
    lad.r.push_back(rk);
    lad.l.push_back(rk / (2.0 * M_PI * fk));
  }
  return lad;
}

CoupledLineHandle add_coupled_lossy_line(Circuit& ckt, const std::vector<int>& nodes_a,
                                         const std::vector<int>& nodes_b,
                                         const CoupledLineParams& params, double dt_hint,
                                         int sections) {
  const std::size_t n = nodes_a.size();
  if (n == 0 || nodes_b.size() != n)
    throw std::invalid_argument("add_coupled_lossy_line: inconsistent terminal lists");
  if (params.length <= 0.0)
    throw std::invalid_argument("add_coupled_lossy_line: length must be positive");

  // Fastest mode bounds the usable section count: every modal section
  // delay must be at least one time step. Build a scratch segment across
  // the full L/C to read the true modal delays.
  std::vector<int> dummy(n, 0);
  ModalLineSegment full(dummy, dummy, params.l, params.c, params.length);
  double td_min = full.modal_td(0);
  for (std::size_t m = 1; m < full.modes(); ++m) td_min = std::min(td_min, full.modal_td(m));

  int max_sections = (dt_hint > 0.0) ? static_cast<int>(std::floor(td_min / dt_hint)) : 16;
  max_sections = std::max(1, std::min(max_sections, 16));
  int m_sections = (sections > 0) ? sections : max_sections;
  if (dt_hint > 0.0 && td_min / m_sections < dt_hint)
    throw std::invalid_argument(
        "add_coupled_lossy_line: section modal delay below the time step; "
        "reduce `sections` or the time step");

  const double sec_len = params.length / m_sections;
  const bool has_skin = params.loss.rskin > 0.0;

  CoupledLineHandle handle;
  handle.nodes_a = nodes_a;
  handle.nodes_b = nodes_b;
  handle.sections = m_sections;

  // Shunt dielectric conductance per section, split between the two
  // boundary node sets: G = omega_ref * tan_delta * C * sec_len.
  linalg::Matrix gshunt(n, n);
  if (params.loss.tan_delta > 0.0) {
    const double w0 = 2.0 * M_PI * params.loss.f_ref;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        gshunt(i, j) = w0 * params.loss.tan_delta * params.c(i, j) * sec_len;
  }

  auto add_shunt_half = [&](const std::vector<int>& nodes, double factor) {
    if (params.loss.tan_delta <= 0.0) return;
    for (std::size_t i = 0; i < n; ++i) {
      // Maxwellian form: diagonal entries to ground include the (negative)
      // mutual terms; realize as node-to-node + node-to-ground resistors.
      double g_to_ground = 0.0;
      for (std::size_t j = 0; j < n; ++j) g_to_ground += gshunt(i, j);
      if (g_to_ground * factor > 1e-18)
        ckt.add<Resistor>(nodes[i], ckt.ground(), 1.0 / (g_to_ground * factor));
      for (std::size_t j = i + 1; j < n; ++j) {
        const double gmut = -gshunt(i, j);  // off-diagonals are negative
        if (gmut * factor > 1e-18)
          ckt.add<Resistor>(nodes[i], nodes[j], 1.0 / (gmut * factor));
      }
    }
  };

  std::vector<int> left = nodes_a;
  for (int s = 0; s < m_sections; ++s) {
    add_shunt_half(left, s == 0 ? 0.5 : 1.0);

    // Series loss elements on each conductor, then the lossless segment.
    std::vector<int> after_loss(n);
    for (std::size_t k = 0; k < n; ++k) {
      int cur = left[k];
      const double rsec = params.loss.rdc * sec_len;
      if (rsec > 0.0) {
        const int nxt = ckt.node();
        ckt.add<Resistor>(cur, nxt, rsec);
        cur = nxt;
      }
      if (has_skin) {
        const SkinLadder lad = fit_skin_ladder(params.loss.rskin * sec_len, 1e7, 1e10, 3);
        for (std::size_t b = 0; b < lad.r.size(); ++b) {
          const int nxt = ckt.node();
          ckt.add<Resistor>(cur, nxt, lad.r[b]);
          ckt.add<Inductor>(cur, nxt, lad.l[b]);
          cur = nxt;
        }
      }
      after_loss[k] = cur;
    }

    std::vector<int> right(n);
    const bool last = (s == m_sections - 1);
    for (std::size_t k = 0; k < n; ++k) right[k] = last ? nodes_b[k] : ckt.node();

    auto& seg = ckt.add<ModalLineSegment>(after_loss, right, params.l, params.c, sec_len);
    handle.segments.push_back(&seg);
    left = right;
  }
  add_shunt_half(left, 0.5);

  return handle;
}

}  // namespace emc::ckt

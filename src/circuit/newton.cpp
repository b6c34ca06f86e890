#include "circuit/newton.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "circuit/stampers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace emc::ckt::detail {

robust::FaultCtx fault_ctx(const TransientOptions& opt) {
  robust::FaultCtx ctx;
  ctx.key = opt.context;
  ctx.pivot = opt.partial_pivot;
  ctx.gmin = opt.gmin;
  ctx.dx_limit = opt.dx_limit;
  return ctx;
}

robust::SolveErrorInfo solve_error_info(robust::FailureKind kind, const char* site,
                                        const TransientOptions& opt, double t,
                                        const NewtonWorkspace& ws) {
  robust::SolveErrorInfo info;
  info.kind = kind;
  info.site = site;
  info.context = opt.context;
  info.t = t;
  info.dt = opt.dt;
  info.residual_history = ws.residual_history;
  return info;
}

void bind_devices(const Circuit& ckt, NewtonWorkspace& ws) {
  ws.linear_devs.clear();
  ws.nonlinear_devs.clear();
  ws.rhs_devs.clear();
  for (const auto& dev : ckt.devices()) {
    (dev->nonlinear() ? ws.nonlinear_devs : ws.linear_devs).push_back(dev.get());
    if (!dev->nonlinear() && dev->has_rhs()) ws.rhs_devs.push_back(dev.get());
  }
}

namespace {

/// Build the mode's pattern on its first solve of the run: a discovery
/// pass stamps every device at `state` through a PatternStamper.
void ensure_pattern(Circuit& ckt, ModeSystem& s, const SimState& state, std::size_t n) {
  if (!s.pattern_ready) {
    PatternStamper ps;
    for (const auto& dev : ckt.devices()) dev->stamp(ps, state);
    s.coords = std::move(ps).take_coords();
    s.pattern = linalg::SparsePattern::build(n, s.coords);
    s.pattern_ready = true;
  }
  // Also rebinds when the workspace object moved since the build.
  if (s.a.pattern() != &s.pattern) s.a.set_pattern(&s.pattern);
}

/// Every factorization of an MNA matrix (an A0 on the port-reduced path,
/// the whole Jacobian on the full-system path); the per-iteration p x p
/// port factors are not counted.
void count_factorization() {
  static const obs::Counter c_factors("ckt.newton.factorizations");
  c_factors.add();
}

void count_restamp(SolveStats* stats) {
  static const obs::Counter c_restamps("ckt.newton.restamps");
  if (stats) ++stats->restamps;
  c_restamps.add();
}

/// Stamp `devs` into the mode's matrix sys.a and ws.rhs, then add gmin to
/// the diagonal. A device stamping outside the discovered pattern
/// (state-dependent structure) grows the pattern and the assembly reruns.
template <class Devs>
void assemble(ModeSystem& sys, NewtonWorkspace& ws, const Devs& devs, const SimState& state,
              const TransientOptions& opt, SolveStats* stats) {
  for (int attempt = 0;; ++attempt) {
    sys.a.clear_values();
    std::fill(ws.rhs.begin(), ws.rhs.end(), 0.0);
    SparseStamper st(sys.a, ws.rhs);
    for (const auto& dev : devs) dev->stamp(st, state);
    if (st.missed().empty()) {
      sys.a.add_diag(opt.gmin);
      return;
    }
    if (attempt >= 3)
      throw robust::SolveError(solve_error_info(robust::FailureKind::kPatternUnstable,
                                                "newton_solve", opt, state.t, ws));
    count_restamp(stats);
    sys.coords.insert(sys.coords.end(), st.missed().begin(), st.missed().end());
    sys.pattern = linalg::SparsePattern::build(ws.rhs.size(), sys.coords);
    sys.a.set_pattern(&sys.pattern);
  }
}

/// Injected singular pivots throw (a recordable failure the retry ladder
/// can escalate past); genuinely singular factorizations keep the
/// historical return-false semantics (weak-step tolerance).
void probe_factor_fault(const robust::FaultCtx& fctx, const TransientOptions& opt, double t,
                        const NewtonWorkspace& ws) {
  if (!robust::fault(robust::FaultSite::kFactor, fctx)) return;
  auto info = solve_error_info(robust::FailureKind::kSingularSystem, "newton_solve", opt, t,
                               ws);
  info.detail = "injected singular pivot";
  throw robust::SolveError(std::move(info));
}

void check_deadline(const TransientOptions& opt, double t, const NewtonWorkspace& ws) {
  if (opt.deadline == nullptr || !opt.deadline->expired()) return;
  char detail[64];
  std::snprintf(detail, sizeof detail, "wall budget %.3g s exhausted",
                opt.deadline->budget_s());
  auto info = solve_error_info(robust::FailureKind::kDeadlineExceeded, "newton_solve", opt,
                               t, ws);
  info.detail = detail;
  throw robust::SolveError(std::move(info));
}

/// Newton bookkeeping on the full vector: record |dx|_inf of the candidate
/// ws.x_new, accept it within tolerance (returns true), otherwise take a
/// damped step towards it.
bool accept_or_damp(NewtonWorkspace& ws, std::vector<double>& x, const TransientOptions& opt) {
  const std::size_t n = x.size();
  double dx_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) dx_max = std::max(dx_max, std::abs(ws.x_new[i] - x[i]));
  if (ws.residual_history.size() >= NewtonWorkspace::kResidualHistoryCap)
    ws.residual_history.erase(ws.residual_history.begin());
  ws.residual_history.push_back(dx_max);

  if (dx_max <= opt.tol) {
    std::copy(ws.x_new.begin(), ws.x_new.end(), x.begin());
    return true;
  }
  // Damping: clamp the update so nonlinear devices cannot be thrown far
  // outside their linearization region.
  const double scale = (dx_max > opt.dx_limit) ? opt.dx_limit / dx_max : 1.0;
  for (std::size_t i = 0; i < n; ++i) x[i] += scale * (ws.x_new[i] - x[i]);
  return false;
}

// ------------------------------------------------------------ port reduction

/// Set the port set to the union of the current ports and `ids`.
void add_ports(ModeSystem& sys, std::span<const int> ids) {
  sys.ports.insert(sys.ports.end(), ids.begin(), ids.end());
  std::sort(sys.ports.begin(), sys.ports.end());
  sys.ports.erase(std::unique(sys.ports.begin(), sys.ports.end()), sys.ports.end());
  std::fill(sys.port_of.begin(), sys.port_of.end(), -1);
  for (std::size_t k = 0; k < sys.ports.size(); ++k)
    sys.port_of[static_cast<std::size_t>(sys.ports[k])] = static_cast<int>(k);
}

/// Discover the mode's port set at `state` (a port-stamping pass with no
/// ports records every unknown the nonlinear devices touch) and decide the
/// engagement rule once per run.
void resolve_ports(ModeSystem& sys, NewtonWorkspace& ws, const SimState& state,
                   std::size_t n) {
  if (sys.use_ports >= 0) return;
  sys.ports.clear();
  sys.port_of.assign(n, -1);
  PortStamper st(sys.port_of, ws.gp, ws.rp);
  for (const Device* dev : ws.nonlinear_devs) dev->stamp(st, state);
  add_ports(sys, st.missed());
  sys.use_ports = 8 * sys.ports.size() <= n ? 1 : 0;
  sys.a0_ready = false;
}

/// Factor the mode's assembled matrix sys.a, with the pivoting kernel
/// below kPivotBelowUnknowns or on request; throws std::runtime_error when
/// it is singular.
void factor_mode(ModeSystem& sys, const TransientOptions& opt) {
  count_factorization();
  obs::Span sp_factor("factor");
  sys.lu.factor(sys.a, sys.a.n() < kPivotBelowUnknowns || opt.partial_pivot);
}

/// Z = A0^-1 E_P (one back-substitution per port, each into the n-long
/// scratch `col`), kept by its nonzeros, and Zpp = Z[P, :].
void compute_z(ModeSystem& sys, std::vector<double>& col) {
  const std::size_t p = sys.ports.size();
  sys.z_ptr.assign(p + 1, 0);
  sys.z_row.clear();
  sys.z_val.clear();
  sys.zpp = linalg::Matrix(p, p);
  for (std::size_t j = 0; j < p; ++j) {
    std::fill(col.begin(), col.end(), 0.0);
    col[static_cast<std::size_t>(sys.ports[j])] = 1.0;
    sys.lu.solve_in_place(col);
    for (std::size_t a = 0; a < p; ++a)
      sys.zpp(a, j) = col[static_cast<std::size_t>(sys.ports[a])];
    for (std::size_t i = 0; i < col.size(); ++i)
      if (col[i] != 0.0) {
        sys.z_row.push_back(static_cast<int>(i));
        sys.z_val.push_back(col[i]);
      }
    sys.z_ptr[j + 1] = sys.z_row.size();
  }
}

/// Stamp and factor the mode's linear block A0 (+ gmin) and compute Z,
/// unless both are cached for (dt, gmin). A singular A0 disengages the
/// reduction for the rest of the run (returns false).
bool prepare_a0(ModeSystem& sys, NewtonWorkspace& ws, const SimState& state,
                const TransientOptions& opt, SolveStats* stats) {
  if (sys.a0_ready && sys.key_dt == state.dt && sys.key_gmin == opt.gmin) return true;
  sys.a0_ready = false;
  assemble(sys, ws, ws.linear_devs, state, opt, stats);
  try {
    factor_mode(sys, opt);
  } catch (const std::runtime_error&) {
    sys.use_ports = 0;
    return false;
  }
  compute_z(sys, ws.x_new);
  sys.a0_ready = true;
  sys.key_dt = state.dt;
  sys.key_gmin = opt.gmin;
  return true;
}

/// Damped Newton on the port border (see NewtonWorkspace for the algebra).
bool port_newton(ModeSystem& sys, NewtonWorkspace& ws, std::vector<double>& x,
                 const SimState& state, const TransientOptions& opt, SolveStats* stats) {
  const robust::FaultCtx fctx = fault_ctx(opt);

  // x0 = A0^-1 b0: the interconnect's response to its own sources and
  // history with every port current zero. Matrix-only devices
  // (has_rhs() == false) add nothing to b0 and are skipped.
  std::fill(ws.x0.begin(), ws.x0.end(), 0.0);
  {
    RhsStamper st(ws.x0);
    for (const Device* dev : ws.rhs_devs) dev->stamp(st, state);
  }
  sys.lu.solve_in_place(ws.x0);

  if (ws.nonlinear_devs.empty()) {
    // Linear circuit: x0 is the exact solution, no damping loop needed.
    if (stats) ++stats->total_newton_iters;
    probe_factor_fault(fctx, opt, state.t, ws);
    std::copy(ws.x0.begin(), ws.x0.end(), x.begin());
    return true;
  }

  for (int it = 0; it < opt.max_newton; ++it) {
    check_deadline(opt, state.t, ws);
    if (stats) ++stats->total_newton_iters;
    for (int attempt = 0;; ++attempt) {
      const std::size_t p = sys.ports.size();
      if (ws.gp.rows() != p) {
        ws.gp = linalg::Matrix(p, p);
        ws.port_m = linalg::Matrix(p, p);
      }
      ws.gp.fill(0.0);
      ws.rp.assign(p, 0.0);
      PortStamper st(sys.port_of, ws.gp, ws.rp);
      for (const Device* dev : ws.nonlinear_devs) dev->stamp(st, state);
      if (st.missed().empty()) break;
      // A nonlinear stamp left the port set (state-dependent structure):
      // grow it and extend Z against the cached A0 factors.
      if (attempt >= 3)
        throw robust::SolveError(solve_error_info(robust::FailureKind::kPatternUnstable,
                                                  "newton_solve", opt, state.t, ws));
      count_restamp(stats);
      add_ports(sys, st.missed());
      compute_z(sys, ws.x_new);
    }
    probe_factor_fault(fctx, opt, state.t, ws);

    // (I + Gp Zpp) y = rp - Gp x0[P]
    const std::size_t p = sys.ports.size();
    ws.y.resize(p);
    for (std::size_t a = 0; a < p; ++a) {
      double r = ws.rp[a];
      for (std::size_t b = 0; b < p; ++b) ws.port_m(a, b) = a == b ? 1.0 : 0.0;
      for (std::size_t c = 0; c < p; ++c) {
        const double g = ws.gp(a, c);
        if (g == 0.0) continue;
        r -= g * ws.x0[static_cast<std::size_t>(sys.ports[c])];
        for (std::size_t b = 0; b < p; ++b) ws.port_m(a, b) += g * sys.zpp(c, b);
      }
      ws.y[a] = r;
    }
    try {
      ws.port_lu.factor(ws.port_m);
    } catch (const std::runtime_error&) {
      return false;  // singular port system at this iterate
    }
    ws.port_lu.solve_in_place(ws.y);

    // x_new = x0 + Z y over Z's nonzeros, columns ascending (a zero entry
    // would add y_j * 0, which leaves a finite sum unchanged).
    std::copy(ws.x0.begin(), ws.x0.end(), ws.x_new.begin());
    for (std::size_t j = 0; j < p; ++j) {
      const double yj = ws.y[j];
      for (std::size_t k = sys.z_ptr[j]; k < sys.z_ptr[j + 1]; ++k)
        ws.x_new[static_cast<std::size_t>(sys.z_row[k])] += yj * sys.z_val[k];
    }
    if (accept_or_damp(ws, x, opt)) return true;
  }
  return false;
}

/// Full-system damped Newton: restamp every device and refactor the whole
/// matrix each iteration (the reference path).
bool full_newton(Circuit& ckt, ModeSystem& sys, NewtonWorkspace& ws, std::vector<double>& x,
                 const SimState& state, const TransientOptions& opt, SolveStats* stats) {
  const robust::FaultCtx fctx = fault_ctx(opt);
  for (int it = 0; it < opt.max_newton; ++it) {
    check_deadline(opt, state.t, ws);
    if (stats) ++stats->total_newton_iters;
    assemble(sys, ws, ckt.devices(), state, opt, stats);
    probe_factor_fault(fctx, opt, state.t, ws);
    sys.a0_ready = false;  // the mode's factors no longer hold A0
    try {
      factor_mode(sys, opt);
    } catch (const std::runtime_error&) {
      return false;  // singular system at this iterate
    }
    std::copy(ws.rhs.begin(), ws.rhs.end(), ws.x_new.begin());
    sys.lu.solve_in_place(ws.x_new);
    if (accept_or_damp(ws, x, opt)) return true;
  }
  return false;
}

}  // namespace

bool newton_solve(Circuit& ckt, NewtonWorkspace& ws, std::vector<double>& x,
                  const std::vector<double>& x_prev, double t, double dt, bool dc,
                  double src_scale, const TransientOptions& opt, SolveStats* stats) {
  const std::size_t n = x.size();
  ModeSystem& sys = dc ? ws.sp_dc : ws.sp_tr;
  const SimState state{x, x_prev, t, dt, dc, src_scale};
  ensure_pattern(ckt, sys, state, n);
  ws.residual_history.clear();

  if (opt.cache_lu) {
    resolve_ports(sys, ws, state, n);
    if (sys.use_ports == 1 && prepare_a0(sys, ws, state, opt, stats))
      return port_newton(sys, ws, x, state, opt, stats);
  }
  return full_newton(ckt, sys, ws, x, state, opt, stats);
}

void dc_operating_point_impl(Circuit& ckt, NewtonWorkspace& ws, std::vector<double>& x,
                             const TransientOptions& opt, SolveStats* stats) {
  static const obs::Counter c_runs("ckt.dc.runs");
  static const obs::Counter c_iters("ckt.dc.newton_iters");
  static const obs::Counter c_gmin("ckt.dc.gmin_stages");
  static const obs::Counter c_src("ckt.dc.source_steps");
  obs::Span span("dc");
  c_runs.add();

  if (robust::fault(robust::FaultSite::kDcSolve, fault_ctx(opt))) {
    auto info = solve_error_info(robust::FailureKind::kDcDivergence,
                                 "dc_operating_point", opt, opt.t_start, ws);
    info.detail = "injected dc divergence";
    throw robust::SolveError(std::move(info));
  }

  // Local tally, folded into `stats` and the counters on every exit path —
  // the continuation history matters most when the solve throws.
  SolveStats local;
  struct Fold {
    SolveStats& l;
    SolveStats* out;
    ~Fold() {
      c_iters.add(static_cast<std::uint64_t>(l.total_newton_iters));
      c_gmin.add(static_cast<std::uint64_t>(l.dc_gmin_stages));
      c_src.add(static_cast<std::uint64_t>(l.dc_source_steps));
      if (out) {
        out->dc_newton_iters += l.total_newton_iters;
        out->restamps += l.restamps;
        out->dc_gmin_stages += l.dc_gmin_stages;
        out->dc_source_steps += l.dc_source_steps;
      }
    }
  } fold{local, stats};

  const std::vector<double> zeros(x.size(), 0.0);

  // Divergence here is diagnosed from sweep logs where the circuit is long
  // gone — the exception must carry the whole continuation history.
  std::string attempted = "gmin schedule:";
  char buf[40];
  const auto note = [&](double v) {
    std::snprintf(buf, sizeof buf, " %g", v);
    attempted += buf;
  };

  // Strategy 1: gmin continuation from a heavily damped system.
  for (double gmin : {1e-2, 1e-4, 1e-6, 1e-9, opt.gmin}) {
    TransientOptions o = opt;
    o.gmin = std::max(gmin, opt.gmin);
    o.max_newton = 200;
    note(o.gmin);
    ++local.dc_gmin_stages;
    if (!newton_solve(ckt, ws, x, zeros, opt.t_start, 0.0, /*dc=*/true, 1.0, o,
                      &local)) {
      // Restart the continuation with source stepping below.
      attempted += " (diverged)";
      break;
    }
    if (o.gmin == opt.gmin) return;
  }

  // Strategy 2: source stepping on top of gmin continuation. The failed
  // ladder solve left devices linearized around a diverged iterate — start
  // over from a clean slate: zero the solution AND reset device history.
  std::fill(x.begin(), x.end(), 0.0);
  for (const auto& dev : ckt.devices()) dev->reset();
  attempted += "; source-scale schedule (gmin 1e-9):";
  for (double scale : {0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    TransientOptions o = opt;
    o.max_newton = 300;
    o.gmin = 1e-9;
    note(scale);
    ++local.dc_source_steps;
    if (!newton_solve(ckt, ws, x, zeros, opt.t_start, 0.0, true, scale, o,
                      &local)) {
      auto info = solve_error_info(robust::FailureKind::kDcDivergence,
                                   "dc_operating_point", opt, opt.t_start, ws);
      info.detail =
          "no convergence at source scale " + std::to_string(scale) + " [attempted " +
          attempted + "]";
      throw robust::SolveError(std::move(info));
    }
  }
  TransientOptions o = opt;
  o.max_newton = 300;
  if (!newton_solve(ckt, ws, x, zeros, opt.t_start, 0.0, true, 1.0, o, &local)) {
    auto info = solve_error_info(robust::FailureKind::kDcDivergence,
                                 "dc_operating_point", opt, opt.t_start, ws);
    info.detail = "final polish failed [attempted " + attempted + "]";
    throw robust::SolveError(std::move(info));
  }
}

}  // namespace emc::ckt::detail

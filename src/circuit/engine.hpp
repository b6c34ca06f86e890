// Transient / DC analysis engine.
//
// Fixed-step trapezoidal integration with a damped Newton-Raphson solve at
// every step. The step is fixed on purpose: the behavioral macromodels of
// the paper are discrete-time systems with sampling time Ts, and locking
// the circuit step to Ts is how they are coupled to the analog solver
// (DESIGN.md, "Numerical design choices").
// One linear-system path: devices stamp into the mode's sparse MNA matrix
// and linalg::SparseLu factors it (kernel choice: kPivotBelowUnknowns).
#pragma once

#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "linalg/decomp.hpp"
#include "linalg/sparse.hpp"
#include "robust/error.hpp"
#include "signal/sample_sink.hpp"
#include "signal/waveform.hpp"

namespace emc::ckt {

/// Systems with fewer unknowns factor with SparseLu's pivoting kernel (a
/// fill-pattern walk costs more than a dense elimination there); larger
/// ones with its static-pivot kernel unless TransientOptions::partial_pivot
/// is set. Like the port rule 8p <= n, the choice depends on structure and
/// options only, never on values, so sweeps stay deterministic.
inline constexpr std::size_t kPivotBelowUnknowns = 64;

/// Retired backend selector: holds no value, changes nothing. It keeps
/// code copying `solver` between option structs (perfbench) compiling.
struct RetiredSolverOption {};

struct TransientOptions {
  double dt = 25e-12;      ///< fixed step; defaults to the paper's Ts = 25 ps
  double t_stop = 0.0;     ///< end time (required)
  double t_start = 0.0;
  int max_newton = 100;
  double tol = 1e-6;       ///< infinity-norm convergence tolerance on dx
  double dx_limit = 0.5;   ///< Newton damping: max |dx| per iteration
  double gmin = 1e-12;     ///< diagonal leakage keeping the system regular
  bool dc_start = true;    ///< compute the operating point before stepping
  /// Port-reduced solve (see NewtonWorkspace): factor the linear part of
  /// the circuit once per (mode, dt, gmin) and run Newton only on the
  /// p x p border of unknowns the nonlinear devices touch, engaging when
  /// 8p <= n. A purely linear circuit is the p = 0 case — one exact
  /// back-substitution per step. The iterates equal the full-system
  /// Newton's up to round-off. Disable to force the full-system Newton
  /// loop, which restamps and refactors the whole matrix every iteration
  /// (the reference behavior for regression benches).
  bool cache_lu = true;

  /// Factor every MNA system with partial pivoting, not only those below
  /// kPivotBelowUnknowns (the retry ladder's "pivot" rung; reference runs).
  /// Same iterates as the static-pivot kernel up to round-off.
  bool partial_pivot = false;
  RetiredSolverOption solver;  ///< no effect

  /// Run identity for failure reports and the fault-injection harness
  /// (the sweep layer sets it to the corner's transient key). Carried
  /// into every robust::SolveError thrown by this run; empty is fine.
  std::string context;

  /// Cooperative wall-clock deadline: checked once per time step and once
  /// per Newton iteration; expiry throws robust::SolveError
  /// (kDeadlineExceeded). Null = no deadline. The pointee must outlive
  /// the run; the retry ladder arms a fresh one per attempt.
  const robust::Deadline* deadline = nullptr;
};

/// Per-mode solve state inside a NewtonWorkspace (the DC and transient
/// stamps of reactive devices and lines differ structurally, so each mode
/// keeps its own). The sparse pattern is rebuilt per run (it is cheap) but
/// the SparseLu's symbolic analysis survives as long as the pattern hash
/// keeps matching — which is how corners sharing a topology share one
/// symbolic analysis. `lu` holds A0's factors on the port-reduced path
/// and the Jacobian's on the full-system path.
struct ModeSystem {
  std::vector<linalg::SparseCoord> coords;  ///< raw stamped positions
  linalg::SparsePattern pattern;
  bool pattern_ready = false;
  linalg::SparseMatrix a;
  linalg::SparseLu lu;

  /// Port reduction: -1 undecided, 1 engaged, 0 full-system Newton.
  int use_ports = -1;
  std::vector<int> ports;    ///< the port set P: 0-based unknowns, ascending
  std::vector<int> port_of;  ///< n entries: index into `ports`, or -1
  /// Z = A0^-1 E_P (n x p) by its nonzeros, column j at
  /// [z_ptr[j], z_ptr[j+1]) with rows ascending.
  std::vector<std::size_t> z_ptr;
  std::vector<int> z_row;
  std::vector<double> z_val;
  linalg::Matrix zpp;        ///< Z[P, :], p x p

  /// A0 and Z are valid for (key_dt, key_gmin) of this mode.
  bool a0_ready = false;
  double key_dt = 0.0;
  double key_gmin = 0.0;
};

/// Reusable scratch for the Newton/MNA solve. One workspace serves one
/// circuit at a time; the two-argument run_transient owns one internally,
/// and batch drivers (the emc::sweep corner runner) pass a long-lived
/// workspace to the three-argument overload so back-to-back analyses of
/// same-sized circuits reuse the storage and the sparse symbolic analyses.
///
/// Allocation contract. Per-run set-up allocates: the operating point,
/// each mode's pattern, port set, A0 factors and Z, post_dc seeding, and
/// a first run that sizes the workspace. After that, a time step on the
/// port-reduced or the full-system path makes no heap allocation in the
/// engine, nor in the library's devices (R, L, C, sources, controlled
/// sources, lines, table currents, the PW-RBF driver and the parametric
/// receiver). Two exceptions: transmission lines append each step's
/// waves to their histories (amortised vector growth), and a stamp that
/// leaves the discovered pattern or port set grows it. On the emission
/// corner (1,800 steps) this adds up to well under one allocation per
/// step (tests/test_alloc_free.cpp).
///
/// Port reduction. The unknowns any nonlinear() device stamps into (rows,
/// columns or right-hand side) form the port set P, p = |P|. Every other
/// stamp is linear and, by the Device::nonlinear() contract, its matrix
/// depends only on (dt, dc): that block A0 (plus gmin on the diagonal) is
/// stamped and factored once per (mode, dt, gmin), together with
/// Z = A0^-1 E_P (p back-substitutions, E_P the port columns of I) and
/// Zpp = Z[P, :]. Each solve then stamps only the linear right-hand side
/// b0 and takes x0 = A0^-1 b0; each Newton iteration stamps only the
/// nonlinear devices into the p x p (Gp, rp), solves
/// (I + Gp Zpp) y = rp - Gp x0[P] and sets x_new = x0 + Z y — exactly the
/// full system's Newton update, so the convergence test, damping, residual
/// history, fault probes and deadline checks run unchanged on the full
/// vector. Singular and diverging solves surface from the port system.
/// Z is kept as its nonzeros (a port's column is mostly zero), so the
/// update costs O(n + nnz Z), not O(n p).
///
/// Engagement is a pure function of the structure: P is discovered on the
/// first solve of each mode and the reduction engages when 8p <= n (a
/// stamp that later leaves P grows it, without re-deciding). A singular
/// A0 falls back to the full-system loop for the rest of the run, and so
/// does TransientOptions::cache_lu = false.
class NewtonWorkspace {
 public:
  NewtonWorkspace() = default;
  explicit NewtonWorkspace(std::size_t n) { resize(n); }

  /// Size the scratch for an n-unknown system and drop every cached
  /// factorization, including the sparse symbolic analyses (the topology
  /// changed size).
  void resize(std::size_t n);

  /// Forget the per-run state: A0 factors, port sets and sparse patterns
  /// (topology or configuration may have changed). The sparse symbolic
  /// analyses are kept — they revalidate against the rebuilt pattern hash.
  void invalidate();

  std::vector<double> rhs;    ///< right-hand side scratch
  std::vector<double> x_new;  ///< Newton candidate scratch

  /// Port-loop scratch: x0 = A0^-1 b0 (n), the p x p port block and its
  /// factors, and the port right-hand side / solution y (p).
  std::vector<double> x0;
  linalg::Matrix gp;
  linalg::Matrix port_m;
  linalg::LuFactor port_lu;
  std::vector<double> rp;
  std::vector<double> y;

  /// Devices of the circuit being solved, split by Device::nonlinear()
  /// (circuit order within each group); set once per run. rhs_devs is the
  /// subset of linear_devs with Device::has_rhs(): the per-step b0 pass
  /// walks only these, while A0 assembly stamps every linear device.
  std::vector<const Device*> linear_devs;
  std::vector<const Device*> nonlinear_devs;
  std::vector<const Device*> rhs_devs;

  /// Chunk staging for run_transient_streamed (frame-major, chunk_frames x
  /// channels). Lives in the workspace so batch drivers streaming many
  /// records (sweep corners) reuse one buffer instead of allocating per
  /// run. Untouched by the solve paths; resize() leaves it alone.
  std::vector<double> stream_buf;

  /// Per-mode solve state (transient / DC).
  ModeSystem sp_tr;
  ModeSystem sp_dc;

  /// |dx|_inf per iteration of the most recent damped Newton solve,
  /// oldest-first and capped at kResidualHistoryCap (older entries are
  /// dropped). Failure reports copy it into SolveErrorInfo so a diverging
  /// solve's trajectory survives the throw. A linear (p = 0) solve leaves
  /// it empty.
  static constexpr std::size_t kResidualHistoryCap = 12;
  std::vector<double> residual_history;
};

struct SolveStats {
  long total_newton_iters = 0;
  long steps = 0;
  long weak_steps = 0;  ///< steps accepted at loose tolerance (diagnostic)

  // Observability extensions (filled by the engine; zero-cost to carry).
  long restamps = 0;         ///< sparse pattern-growth retries (state-dependent structure)
  long dc_newton_iters = 0;  ///< Newton iterations spent on the operating point
  long dc_gmin_stages = 0;   ///< gmin continuation stages attempted
  long dc_source_steps = 0;  ///< source-stepping stages attempted (0 = not needed)

  /// Fold another run's statistics into this one.
  void merge(const SolveStats& o) {
    total_newton_iters += o.total_newton_iters;
    steps += o.steps;
    weak_steps += o.weak_steps;
    restamps += o.restamps;
    dc_newton_iters += o.dc_newton_iters;
    dc_gmin_stages += o.dc_gmin_stages;
    dc_source_steps += o.dc_source_steps;
  }
};

/// Full solution record of a transient run. Storage is one contiguous
/// step-major buffer (step k, unknown id at data()[k * n + id - 1]) — a
/// single allocation for the whole record instead of one vector per step.
class TransientResult {
 public:
  TransientResult(double t0, double dt, std::size_t n_unknowns);

  /// Waveform of node/extra unknown `id` (ground returns all-zero).
  sig::Waveform waveform(int id) const;

  /// Raw access for derived quantities.
  double value(std::size_t step, int id) const;
  /// Number of stored records: the initial state plus one per time step.
  std::size_t steps() const { return frames_; }
  double t0() const { return t0_; }
  double dt() const { return dt_; }

  /// The flat step-major sample buffer, steps() x n_unknowns.
  const std::vector<double>& data() const { return data_; }

  SolveStats stats;

 private:
  friend TransientResult run_transient(Circuit& ckt, const TransientOptions& opt,
                                       NewtonWorkspace& ws);
  double t0_, dt_;
  std::size_t n_;
  std::size_t frames_ = 0;
  std::vector<double> data_;  ///< frames_ * n_ samples, step-major
};

/// Solve the DC operating point (writes the solution into x, whose size
/// must be the circuit's unknown count). Uses damped Newton with gmin and
/// source stepping as fallbacks. Throws robust::SolveError (IS-A
/// std::runtime_error; info() carries the failure kind, the schedule
/// attempted and the Newton residual history) if everything fails.
void dc_operating_point(Circuit& ckt, std::vector<double>& x, const TransientOptions& opt);

/// Run a transient analysis; the result holds every unknown at every step
/// (the first record is the state at t_start). Implemented as a
/// sig::RecordingSink over run_transient_streamed probing every unknown,
/// so the two entry points can never drift: the record is bit-identical
/// to a streamed run's frames.
TransientResult run_transient(Circuit& ckt, const TransientOptions& opt);

/// Same analysis with caller-owned Newton scratch. The workspace is
/// resized to the circuit's unknown count only when it does not already
/// match (so a batch of equally sized circuits never reallocates) and any
/// cached linear-circuit factorization is dropped (the circuit behind it
/// may have changed). Results are identical to the two-argument overload.
TransientResult run_transient(Circuit& ckt, const TransientOptions& opt,
                              NewtonWorkspace& ws);

/// Streaming transient analysis: instead of materializing the record, emit
/// chunks of `chunk_frames` frames holding only the probed unknowns
/// (flat, frame-major, in `probes` order) through `sink`. Peak memory is
/// O(chunk_frames * probes.size()) on top of the solver scratch plus what
/// the sink keeps. The corner sweep probes the measured land into a
/// sig::RecordingSink windowed on the steady-state periods and scans that
/// record in one piece; sig::NullSink keeps nothing.
///
/// `probes` are unknown ids (0 = ground streams constant 0.0); frame 0 is
/// the state at t_start, followed by one frame per step. The sink sees
/// begin() with the stream geometry (total_frames = step count + 1),
/// gap-free consume() calls, then finish(); if the sink or the solver
/// throws, the exception propagates and finish() is never called. Returns
/// the solver statistics a TransientResult would have carried.
SolveStats run_transient_streamed(Circuit& ckt, const TransientOptions& opt,
                                  NewtonWorkspace& ws, std::span<const int> probes,
                                  sig::SampleSink& sink,
                                  std::size_t chunk_frames = 1024);

}  // namespace emc::ckt

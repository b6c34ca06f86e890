// Sparse-solver bench + gate: SparseLu's static-pivot kernel vs
// TransientOptions::partial_pivot on an N-conductor coupled-bus harness
// (crossover over problem size, waveform agreement, speedup at >= 200
// unknowns), and the port-reduced Newton solve vs the full-system loop
// (cache_lu = false). A second section runs the transistor-level
// reference driver on a lossy coupled line, whose transient A0 fails the
// static kernel's health check: it reports the pivot fallbacks, the
// entries one x0 solve walks through the pivoted factors (against n^2),
// Z's stored nonzeros (against n p) and the transient's wall time. Results
// land in BENCH_sparse.json.
//
//   bench_sparse [--smoke]
//
// Gates (nonzero exit on failure):
//   * pivot/static max waveform delta <= 1e-9 and equal Newton iteration
//     totals at every size
//   * port-reduced/full-system max waveform delta <= 1e-9 and equal
//     Newton iteration totals at every size (static-pivot kernel)
//   * full mode only: static pivot >= 3x faster than partial pivoting at
//     >= 200 unknowns (wall clock is recorded in smoke mode but not gated)
// The reference-driver counters are gated by the smoke baseline.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baseline.hpp"
#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tline.hpp"
#include "devices/reference_driver.hpp"
#include "experiments.hpp"
#include "json_out.hpp"
#include "signal/sample_sink.hpp"
#include "signal/sources.hpp"

namespace {

using namespace emc;
using bench::seconds_since;

/// N-conductor coupled bus: pulsed R-source drivers at the near end, a
/// lossy coupled line (nearest-neighbor L/C coupling), diode clamps and
/// load capacitors at the far end. The clamps make the circuit nonlinear:
/// the full-system loop refactors every Newton iteration, the port-reduced
/// solve iterates on the clamp nodes only.
struct BusSpec {
  int conductors = 2;
  int sections = 4;
  double length = 0.2;       ///< [m]
  double dt = 50e-12;
  double t_stop = 4e-9;
  double r_drive = 25.0;
  double load_c = 2e-12;
};

std::vector<int> build_bus(ckt::Circuit& c, const BusSpec& spec) {
  const int n = spec.conductors;
  linalg::Matrix l(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  linalg::Matrix cap(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    l(i, i) = 300e-9;
    cap(i, i) = 100e-12;
    if (i + 1 < n) {
      l(i, i + 1) = l(i + 1, i) = 60e-9;
      cap(i, i + 1) = cap(i + 1, i) = -20e-12;
    }
  }
  ckt::CoupledLineParams p;
  p.l = std::move(l);
  p.c = std::move(cap);
  p.length = spec.length;
  p.loss.rdc = 5.0;
  p.loss.rskin = 1e-3;
  p.loss.tan_delta = 0.02;

  std::vector<int> near(static_cast<std::size_t>(n)), far(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    near[static_cast<std::size_t>(k)] = c.node();
    far[static_cast<std::size_t>(k)] = c.node();
  }
  for (int k = 0; k < n; ++k) {
    const int src = c.node();
    const double t_edge = 0.5e-9 + 0.1e-9 * static_cast<double>(k);
    c.add<ckt::VSource>(src, c.ground(),
                        [t_edge](double t) { return t < t_edge ? 0.0 : 1.5; });
    c.add<ckt::Resistor>(src, near[static_cast<std::size_t>(k)], spec.r_drive);
  }
  add_coupled_lossy_line(c, near, far, p, spec.dt, spec.sections);
  for (int k = 0; k < n; ++k) {
    c.add<ckt::Diode>(c.ground(), far[static_cast<std::size_t>(k)]);
    c.add<ckt::Capacitor>(far[static_cast<std::size_t>(k)], c.ground(), spec.load_c);
  }
  return far;
}

ckt::TransientOptions bus_options(const BusSpec& spec, bool pivot, bool port_reduced) {
  ckt::TransientOptions opt;
  opt.dt = spec.dt;
  opt.t_stop = spec.t_stop;
  opt.partial_pivot = pivot;
  opt.cache_lu = port_reduced;
  return opt;
}

struct BusRun {
  std::vector<double> record;  ///< frame-major far-end voltages
  double wall_s = 0.0;
  long newton_iters = 0;
  int n_unknowns = 0;
};

BusRun run_bus(const BusSpec& spec, bool pivot, bool port_reduced = true) {
  ckt::Circuit c;
  const auto far = build_bus(c, spec);
  BusRun out;
  out.n_unknowns = c.finalize();

  ckt::NewtonWorkspace ws;
  sig::RecordingSink rec;
  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = ckt::run_transient_streamed(c, bus_options(spec, pivot, port_reduced), ws, far, rec);
  out.wall_s = seconds_since(t0);
  out.newton_iters = stats.total_newton_iters;
  out.record = std::move(rec).take_data();
  return out;
}

/// The paper-claim corner's transient: two MD3-class reference drivers on
/// the MCM coupled line (aggressor toggling `periods` repetitions of a
/// 15-bit pattern, victim quiet), 1 pF far-end loads, Ts steps.
struct RefRun {
  int n_unknowns = 0;
  std::size_t ports = 0;
  long newton_iters = 0;
  long tr_pivot_fallbacks = 0;
  long dc_pivot_fallbacks = 0;
  unsigned long long x0_walk_entries = 0;
  std::size_t z_nnz = 0;
  double wall_s = 0.0;
};

RefRun run_reference_driver(int periods) {
  const dev::DriverTech tech = dev::DriverTech::md3_ibm25();
  std::string active;
  for (int k = 0; k < periods; ++k) active += "011010011101001";
  ckt::Circuit c;
  const int a1 = c.node();
  const int a2 = c.node();
  const int b1 = c.node();
  const int b2 = c.node();
  ckt::add_coupled_lossy_line(c, {a1, a2}, {b1, b2}, exp::mcm_fig3_params(), 25e-12, 0);
  c.add<ckt::Capacitor>(b1, c.ground(), 1e-12);
  c.add<ckt::Capacitor>(b2, c.ground(), 1e-12);
  for (const auto& [pad, bits] : {std::pair{a1, active},
                                  std::pair{a2, std::string(active.size(), '0')}}) {
    auto pattern = sig::bit_stream(bits, 1e-9, 0.1e-9, 0.0, tech.vdd);
    const auto inst =
        dev::build_reference_driver(c, tech, [pattern](double t) { return pattern(t); });
    c.add<ckt::Resistor>(inst.pad, pad, 1e-3);
  }
  RefRun out;
  out.n_unknowns = c.finalize();

  ckt::TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 1e-9 * static_cast<double>(active.size());
  ckt::NewtonWorkspace ws;
  sig::RecordingSink rec;
  const int probes[] = {b1};
  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = ckt::run_transient_streamed(c, opt, ws, probes, rec);
  out.wall_s = seconds_since(t0);
  out.newton_iters = stats.total_newton_iters;
  out.ports = ws.sp_tr.ports.size();
  out.tr_pivot_fallbacks = ws.sp_tr.lu.stats().pivot_fallbacks;
  out.dc_pivot_fallbacks = ws.sp_dc.lu.stats().pivot_fallbacks;
  out.x0_walk_entries = ws.sp_tr.lu.solve_walk();
  out.z_nnz = ws.sp_tr.z_val.size();
  return out;
}

double max_delta(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto bargs = bench::extract_baseline_args(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_sparse [--smoke]\n");
      return 2;
    }
  }

  std::printf("=== bench_sparse: sparse MNA + port-reduced Newton ===%s\n",
              smoke ? "  [smoke mode]" : "");
  auto doc = bench::make_bench_doc("bench_sparse");
  doc.set("smoke", bench::Json::boolean(smoke));
  bool ok = true;

  // ---------------------------------------------------------------- A ----
  // Kernel crossover over problem size (gates: see the file header).
  std::vector<BusSpec> sizes;
  {
    BusSpec s;
    s.conductors = 2, s.sections = 4;
    sizes.push_back(s);
    s.conductors = 4, s.sections = 6;
    sizes.push_back(s);
    s.conductors = 6, s.sections = 10;
    sizes.push_back(s);
    s.conductors = 8, s.sections = 16, s.length = 0.3;
    if (smoke) s.t_stop = 2e-9;
    sizes.push_back(s);
  }

  auto crossover = bench::Json::array();
  double big_speedup = 0.0;
  int big_n = 0;
  std::printf("%-10s %-10s %-12s %-12s %-9s %-10s %-12s %s\n", "unknowns", "iters",
              "pivot [s]", "static [s]", "speedup", "max |dv|", "full [s]",
              "reduced-full |dv|");
  for (const auto& spec : sizes) {
    const auto pivot = run_bus(spec, /*pivot=*/true);
    const auto stat = run_bus(spec, /*pivot=*/false);
    const auto full = run_bus(spec, /*pivot=*/false, /*port_reduced=*/false);
    const double dv = max_delta(pivot.record, stat.record);
    const double dv_full = max_delta(stat.record, full.record);
    const double speedup = stat.wall_s > 0.0 ? pivot.wall_s / stat.wall_s : 0.0;
    std::printf("%-10d %-10ld %-12.4f %-12.4f %-9.2f %-10.3g %-12.4f %.3g\n",
                pivot.n_unknowns, pivot.newton_iters, pivot.wall_s, stat.wall_s, speedup,
                dv, full.wall_s, dv_full);
    if (pivot.newton_iters != stat.newton_iters || dv > 1e-9) {
      std::printf("GATE FAILED: pivot/static disagreement at n = %d "
                  "(max delta %.3g, iters %ld vs %ld)\n",
                  pivot.n_unknowns, dv, pivot.newton_iters, stat.newton_iters);
      ok = false;
    }
    if (full.newton_iters != stat.newton_iters || dv_full > 1e-9) {
      std::printf("GATE FAILED: port-reduced/full-system disagreement at n = %d "
                  "(max delta %.3g, iters %ld vs %ld)\n",
                  pivot.n_unknowns, dv_full, stat.newton_iters, full.newton_iters);
      ok = false;
    }
    if (pivot.n_unknowns > big_n) {
      big_n = pivot.n_unknowns;
      big_speedup = speedup;
    }
    auto row = bench::Json::object();
    row.set("n_unknowns", bench::Json::integer(pivot.n_unknowns));
    row.set("newton_iters", bench::Json::integer(pivot.newton_iters));
    row.set("pivot_wall_s", bench::Json::number(pivot.wall_s));
    row.set("static_wall_s", bench::Json::number(stat.wall_s));
    row.set("speedup", bench::Json::number(speedup));
    row.set("max_waveform_delta", bench::Json::number(dv));
    row.set("full_system_wall_s", bench::Json::number(full.wall_s));
    row.set("full_system_max_delta", bench::Json::number(dv_full));
    crossover.push(std::move(row));
    doc.at("scenarios")
        .push(bench::scenario_row("bus_n" + std::to_string(pivot.n_unknowns) + "_sparse",
                                  stat.wall_s, stat.newton_iters));
  }
  doc.set("crossover", std::move(crossover));
  doc.set("largest_n_unknowns", bench::Json::integer(big_n));
  doc.set("largest_speedup", bench::Json::number(big_speedup));
  if (big_n < 200) {
    std::printf("GATE FAILED: largest harness has %d unknowns (< 200)\n", big_n);
    ok = false;
  }
  if (!smoke && big_speedup < 3.0) {
    std::printf("GATE FAILED: static-pivot speedup %.2fx < 3x at n = %d\n", big_speedup,
                big_n);
    ok = false;
  }

  // ---------------------------------------------------------------- B ----
  // Reference driver on a lossy line: the pivot-fallback solve path.
  {
    const RefRun r = run_reference_driver(smoke ? 1 : 3);
    const auto n = static_cast<unsigned long long>(r.n_unknowns);
    std::printf("\nreference driver on lossy line: n = %d, p = %zu, %ld Newton iters, "
                "%.4f s\n  pivot fallbacks: transient %ld, dc %ld\n"
                "  entries per x0 solve: %llu (dense %llu)\n  Z nonzeros: %zu of %llu\n",
                r.n_unknowns, r.ports, r.newton_iters, r.wall_s, r.tr_pivot_fallbacks,
                r.dc_pivot_fallbacks, r.x0_walk_entries, n * n, r.z_nnz, n * r.ports);
    auto ref = bench::Json::object();
    ref.set("n_unknowns", bench::Json::integer(r.n_unknowns));
    ref.set("ports", bench::Json::integer(static_cast<long>(r.ports)));
    ref.set("newton_iters", bench::Json::integer(r.newton_iters));
    ref.set("tr_pivot_fallbacks", bench::Json::integer(r.tr_pivot_fallbacks));
    ref.set("dc_pivot_fallbacks", bench::Json::integer(r.dc_pivot_fallbacks));
    ref.set("x0_walk_entries", bench::Json::integer(static_cast<long>(r.x0_walk_entries)));
    ref.set("dense_entries", bench::Json::integer(static_cast<long>(n * n)));
    ref.set("z_nnz", bench::Json::integer(static_cast<long>(r.z_nnz)));
    ref.set("z_dense_entries", bench::Json::integer(static_cast<long>(n * r.ports)));
    ref.set("transient_wall_s", bench::Json::number(r.wall_s));
    doc.set("reference_driver", std::move(ref));
    doc.at("scenarios").push(bench::scenario_row("ref_driver_line", r.wall_s, r.newton_iters));
  }

  doc.set("gates_passed", bench::Json::boolean(ok));
  if (doc.write_file("BENCH_sparse.json")) std::printf("wrote BENCH_sparse.json\n");
  ok = bench::check_baseline_gate(doc, bargs) && ok;
  std::printf(ok ? "all gates passed\n" : "GATES FAILED\n");
  return ok ? 0 : 1;
}

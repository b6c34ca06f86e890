// Corner-sweep walkthrough: estimate a PW-RBF driver macromodel once,
// enumerate a small corner grid (supply x stimulus pattern x line length),
// run the transient -> swept-receiver -> compliance pipeline for every
// corner on a thread pool, and print the per-corner verdicts plus the
// aggregated worst-margin statistics.
//
// The whole sweep runs under the emc::obs instrumentation layer: a Tracer
// records sweep/corner/transient/newton_step spans into
// corner_sweep.trace.json (open it in Perfetto or chrome://tracing), and a
// structured RunReport with the solver statistics, worker utilization,
// metric counters and the span profile lands in corner_sweep.report.json
// (`emc_report flame corner_sweep.report.json` folds its profile into
// flamegraph stacks).
//
//   example_corner_sweep [--jobs N] [--out-dir DIR]
//   (jobs default: hardware concurrency; out-dir default: cwd)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/circuit_dut.hpp"
#include "core/driver_estimator.hpp"
#include "devices/reference_driver.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sweep/sweep_runner.hpp"

using namespace emc;

int main(int argc, char** argv) {
  std::size_t jobs = sweep::ThreadPool::default_workers();
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
      if (!out_dir.empty() && out_dir.back() != '/') out_dir += '/';
    } else {
      std::fprintf(stderr, "usage: example_corner_sweep [--jobs N] [--out-dir DIR]\n");
      return 2;
    }
  }
  const std::string trace_path = out_dir + "corner_sweep.trace.json";
  const std::string report_path = out_dir + "corner_sweep.report.json";

  // Fail up front when the output directory is unwritable: a sweep whose
  // artifacts silently vanish looks identical to one that worked.
  {
    const std::string probe_path = out_dir + ".corner_sweep.probe";
    std::FILE* probe = std::fopen(probe_path.c_str(), "w");
    if (!probe) {
      std::fprintf(stderr,
                   "error: output directory '%s' is not writable (cannot create %s)\n",
                   out_dir.empty() ? "." : out_dir.c_str(), probe_path.c_str());
      return 1;
    }
    std::fclose(probe);
    std::remove(probe_path.c_str());
  }

  std::printf("== corner sweep: one macromodel, many scenarios, %zu workers ==\n", jobs);

  // One estimated macromodel, shared immutably by every sweep worker.
  std::printf("estimating MD3 PW-RBF driver macromodel (one-time cost)...\n");
  core::CircuitDriverDut dut(dev::DriverTech::md3_ibm25());
  auto model = core::estimate_driver_model(dut, core::DriverEstimationOptions{});
  model.name = "MD3";

  // 2 supplies x 2 patterns x 2 lengths = 8 corners.
  sweep::CornerAxes axes;
  axes.vdd_scale = {0.95, 1.05};
  axes.pattern_seed = {1, 2};
  axes.line_length = {0.05, 0.1};
  axes.pattern_bits = 15;
  const sweep::CornerGrid grid(axes);

  sweep::EmissionSweepConfig cfg;
  cfg.model = &model;
  // The paper's Fig. 3 on-MCM coupled land pair (per-meter data).
  cfg.line.l = linalg::Matrix{{466e-9, 66e-9}, {66e-9, 466e-9}};
  cfg.line.c = linalg::Matrix{{66e-12, -6.6e-12}, {-6.6e-12, 66e-12}};
  cfg.line.loss = {66.0, 1.6e-3, 0.001, 1e9};
  cfg.periods = 3;
  cfg.rx.name = "wideband scan";
  cfg.rx.f_start = 50e6;
  cfg.rx.f_stop = 5e9;
  cfg.rx.n_points = 30;
  cfg.rx.tau_charge = 1e-9;
  cfg.rx.tau_discharge = 30e-9;
  cfg.mask = {"board-level mask", {{50e6, 140.0}, {5e9, 90.0}}};

  // Scope the metrics to the sweep and trace every span site it passes.
  obs::registry().reset();
  obs::Tracer tracer;
  tracer.install();

  sweep::SweepRunner runner(jobs);
  const auto out = runner.run(grid, sweep::make_emission_corner_fn(cfg),
                              {.chunk = sweep::emission_chunk_hint(grid),
                               .progress = [](std::size_t done, std::size_t total) {
                                 std::printf("  corner %zu/%zu done\n", done, total);
                               }});

  tracer.uninstall();

  std::printf("\n%-60s %10s %s\n", "corner", "margin", "verdict");
  for (const auto& r : out.results)
    std::printf("%-60s %+9.1f dB %s\n", r.scenario.label().c_str(),
                r.report.worst_margin_db, r.report.pass ? "PASS" : "FAIL");

  const auto& s = out.summary;
  std::printf("\n%zu corners: %zu pass / %zu fail; worst margin %+.1f dB at %s\n",
              s.corners, s.passed, s.failed, s.worst_margin_db, s.worst_label.c_str());
  for (std::size_t a = 0; a < sweep::kNumAxes; ++a) {
    const auto axis = static_cast<sweep::AxisId>(a);
    if (grid.axis_size(axis) < 2) continue;
    std::printf("  worst by %-13s", sweep::axis_name(axis));
    for (std::size_t k = 0; k < grid.axis_size(axis); ++k)
      std::printf("  %s -> %+.1f dB", grid.axis_value_label(axis, k).c_str(),
                  s.axis_worst[a][k]);
    std::printf("\n");
  }

  // Solver work actually spent, memo hits excluded (reused corners repeat
  // the producing corner's stats).
  ckt::SolveStats solve;
  bool first = true;
  std::size_t reused = 0;
  for (const auto& r : out.results) {
    if (r.transient_reused) {
      ++reused;
      continue;
    }
    if (first) {
      solve = r.solve;
      first = false;
    } else {
      solve.merge(r.solve);
    }
  }
  std::printf("\ntransients: %zu run, %zu reused from the record memo\n",
              out.results.size() - reused, reused);
  std::printf("newton: %ld iterations over %ld steps (+%ld for DC), %ld restamps\n",
              solve.total_newton_iters, solve.steps, solve.dc_newton_iters,
              solve.restamps);
  for (std::size_t w = 0; w < out.workers.size(); ++w) {
    const auto& ws = out.workers[w];
    const double total = static_cast<double>(ws.busy_ns + ws.idle_ns);
    std::printf("worker %zu: %llu corners, %.0f%% busy\n", w,
                static_cast<unsigned long long>(ws.items),
                total > 0 ? 100.0 * static_cast<double>(ws.busy_ns) / total : 0.0);
  }

  const bool trace_written = tracer.write_chrome_trace(trace_path);
  if (trace_written)
    std::printf("wrote %s (%zu spans from %zu threads)\n", trace_path.c_str(),
                tracer.events().size(), tracer.threads());
  else
    std::fprintf(stderr, "error: could not write %s\n", trace_path.c_str());

  obs::RunReport report("corner_sweep");
  report.set("config", "jobs", static_cast<long>(jobs));
  report.set("config", "corners", static_cast<long>(grid.size()));
  report.set("solver", "newton_iters", solve.total_newton_iters);
  report.set("solver", "dc_newton_iters", solve.dc_newton_iters);
  report.set("solver", "steps", solve.steps);
  report.set("solver", "restamps", solve.restamps);
  report.set("sweep", "summary", sweep::summary_json(grid, out.summary));
  report.set("sweep", "transients_reused", static_cast<long>(reused));
  report.set("workers", "pool", sweep::worker_stats_json(out.workers));
  report.add_metrics(obs::registry().snapshot());
  report.add_trace_summary(tracer, trace_written ? trace_path : "");
  report.add_profile(obs::Profile::build(tracer));
  const bool report_written = report.write(report_path);
  if (report_written)
    std::printf("wrote %s\n", report_path.c_str());
  else
    std::fprintf(stderr, "error: could not write %s\n", report_path.c_str());
  return (trace_written && report_written) ? 0 : 1;
}

// Figures 3+4 reproduction: two MD3 drivers on the 0.1 m lossy coupled
// on-MCM interconnect (Fig. 3 structure). The active land sends
// "011011101010000" (1 ns bits), the quiet land stays Low. Far-end
// voltages v21 (active) and v22 (quiet, far-end crosstalk) are compared
// between the transistor-level reference and the PW-RBF macromodels.
//
//   bench_fig4 [--check-baseline PATH]   (writes BENCH_fig4.json and
//   bench_out/fig4.csv)
#include <chrono>
#include <cstdio>

#include "baseline.hpp"
#include "core/validation.hpp"
#include "experiments.hpp"
#include "json_out.hpp"
#include "signal/csv.hpp"

int main(int argc, char** argv) {
  using namespace emc;
  const auto bargs = bench::extract_baseline_args(argc, argv);
  std::printf("=== Figure 4: far-end voltages on the Fig. 3 coupled structure ===\n");
  std::printf("estimating MD3 PW-RBF model and running both simulations...\n");
  const auto t0 = std::chrono::steady_clock::now();
  const auto curves = exp::run_fig4_both();
  const double wall = bench::seconds_since(t0);

  sig::write_csv("bench_out/fig4.csv",
                 {"v21_reference", "v21_pwrbf", "v22_reference", "v22_pwrbf"},
                 {curves.v21_reference, curves.v21_pwrbf, curves.v22_reference,
                  curves.v22_pwrbf});

  const auto rep_active = core::validate_waveform(
      "v21 (active land)", curves.v21_reference, curves.v21_pwrbf, 1.25, 0.2e-9);
  // The quiet-land crosstalk never crosses mid-supply; validate on RMS and
  // peak tracking instead of threshold timing.
  const auto rep_quiet = core::validate_waveform(
      "v22 (quiet land) ", curves.v22_reference, curves.v22_pwrbf, 1e9);

  std::printf("\n%-18s %10s %10s %12s\n", "signal", "rms [V]", "max [V]", "timing [ps]");
  std::printf("%-18s %10.4f %10.4f %12.2f\n", rep_active.label.c_str(),
              rep_active.rms_error, rep_active.max_error,
              rep_active.timing_error ? *rep_active.timing_error * 1e12 : -1.0);
  std::printf("%-18s %10.4f %10.4f %12s\n", rep_quiet.label.c_str(), rep_quiet.rms_error,
              rep_quiet.max_error, "n/a");

  std::printf("\ncrosstalk peaks: reference %.1f mV / %.1f mV, pwrbf %.1f mV / %.1f mV\n",
              curves.v22_reference.max_value() * 1e3, curves.v22_reference.min_value() * 1e3,
              curves.v22_pwrbf.max_value() * 1e3, curves.v22_pwrbf.min_value() * 1e3);

  std::printf("\nactive-land samples every 2 ns (t[ns]  ref  pwrbf):\n");
  for (double t = 0.0; t <= 30e-9; t += 2e-9)
    std::printf("  %5.1f  %7.4f  %7.4f\n", t * 1e9, curves.v21_reference.value_at(t),
                curves.v21_pwrbf.value_at(t));
  std::printf("series written to bench_out/fig4.csv\n");

  auto doc = bench::make_bench_doc("bench_fig4");
  doc.at("scenarios").push(bench::scenario_row("run_fig4_both", wall));
  auto signals = bench::Json::array();
  signals.push(bench::accuracy_row("v21", rep_active));
  signals.push(bench::accuracy_row("v22", rep_quiet));
  doc.set("signals", std::move(signals));
  auto peaks = bench::Json::object();
  peaks.set("reference_max", bench::Json::number(curves.v22_reference.max_value() * 1e3));
  peaks.set("reference_min", bench::Json::number(curves.v22_reference.min_value() * 1e3));
  peaks.set("pwrbf_max", bench::Json::number(curves.v22_pwrbf.max_value() * 1e3));
  peaks.set("pwrbf_min", bench::Json::number(curves.v22_pwrbf.min_value() * 1e3));
  doc.set("crosstalk_peaks_mv", std::move(peaks));
  if (doc.write_file("BENCH_fig4.json")) std::printf("wrote BENCH_fig4.json\n");
  return bench::check_baseline_gate(doc, bargs) ? 0 : 1;
}

// Figure 5 reproduction: MD4 receiver driven directly by an equivalent
// source (10 ohm series, 1 V / 100 ps trapezoid); input current computed
// with the reference model, the parametric model (eq. 2) and the C-R
// baseline. Paper result: the parametric model overlays the reference,
// the C-R model only roughly approximates it.
//
//   bench_fig5 [--check-baseline PATH]   (writes BENCH_fig5.json and
//   bench_out/fig5.csv)
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
  std::printf("=== Figure 5: MD4 input current, direct drive ===\n");
  std::printf("estimating MD4 parametric and C-R models...\n");
  const auto t0 = std::chrono::steady_clock::now();
  const auto curves = exp::run_fig5();
  const double wall = bench::seconds_since(t0);

  sig::write_csv("bench_out/fig5.csv", {"reference", "parametric", "cr"},
                 {curves.i_reference, curves.i_parametric, curves.i_cr});

  // Timing threshold at 20 mA (the current pulse peaks near 45 mA).
  const auto rep_par = core::validate_waveform("parametric", curves.i_reference,
                                               curves.i_parametric, 0.02, 0.2e-9);
  const auto rep_cr =
      core::validate_waveform("C-R model ", curves.i_reference, curves.i_cr, 0.02, 0.2e-9);

  std::printf("\n%-10s %12s %12s %12s\n", "model", "rms [mA]", "max [mA]", "timing [ps]");
  for (const auto& r : {rep_par, rep_cr})
    std::printf("%-10s %12.4f %12.4f %12.2f\n", r.label.c_str(), r.rms_error * 1e3,
                r.max_error * 1e3, r.timing_error ? *r.timing_error * 1e12 : -1.0);

  std::printf("\ncurrent peaks [mA]: ref %.2f / %.2f, parametric %.2f / %.2f, "
              "C-R %.2f / %.2f\n",
              curves.i_reference.max_value() * 1e3, curves.i_reference.min_value() * 1e3,
              curves.i_parametric.max_value() * 1e3, curves.i_parametric.min_value() * 1e3,
              curves.i_cr.max_value() * 1e3, curves.i_cr.min_value() * 1e3);

  std::printf("\npaper shape check: parametric rms << C-R rms  -> ratio %.1fx\n",
              rep_cr.rms_error / rep_par.rms_error);
  std::printf("series written to bench_out/fig5.csv\n");

  auto doc = bench::make_bench_doc("bench_fig5");
  doc.at("scenarios").push(bench::scenario_row("run_fig5", wall));
  auto models = bench::Json::array();
  models.push(bench::accuracy_row("parametric", rep_par));
  models.push(bench::accuracy_row("cr", rep_cr));
  doc.set("models", std::move(models));
  doc.set("cr_over_parametric_rms", bench::Json::number(rep_cr.rms_error / rep_par.rms_error));
  if (doc.write_file("BENCH_fig5.json")) std::printf("wrote BENCH_fig5.json\n");
  return bench::check_baseline_gate(doc, bargs) ? 0 : 1;
}

// Figure 1 reproduction: near-end voltage of MD1 driving an ideal
// transmission line (50 ohm, 0.5 ns) terminated by 10 pF, Low->High
// transition. Reference vs PW-RBF macromodel vs slow/typ/fast IBIS.
//
// Paper result: the PW-RBF model overlays the reference; the IBIS corner
// band misses the detailed waveform even though it brackets the drive
// strength.
//
//   bench_fig1 [--check-baseline PATH]   (writes BENCH_fig1.json and
//   bench_out/fig1.csv)
#include <algorithm>
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
  std::printf("=== Figure 1: MD1 near-end voltage on 50 ohm / 0.5 ns line + 10 pF ===\n");
  std::printf("estimating models (PW-RBF + IBIS corners)...\n");
  const auto t0 = std::chrono::steady_clock::now();
  const auto curves = exp::run_fig1();
  const double wall = bench::seconds_since(t0);

  sig::write_csv("bench_out/fig1.csv",
                 {"reference", "pwrbf", "ibis_slow", "ibis_typical", "ibis_fast"},
                 {curves.reference, curves.pwrbf, curves.ibis_slow, curves.ibis_typical,
                  curves.ibis_fast});

  const double vdd = 3.3;
  const auto rep_model =
      core::validate_waveform("PW-RBF   ", curves.reference, curves.pwrbf, vdd / 2, 0.2e-9);
  const auto rep_slow = core::validate_waveform("IBIS slow", curves.reference,
                                                curves.ibis_slow, vdd / 2, 0.2e-9);
  const auto rep_typ = core::validate_waveform("IBIS typ ", curves.reference,
                                               curves.ibis_typical, vdd / 2, 0.2e-9);
  const auto rep_fast = core::validate_waveform("IBIS fast", curves.reference,
                                                curves.ibis_fast, vdd / 2, 0.2e-9);

  std::printf("\n%-10s %10s %10s %12s\n", "model", "rms [V]", "max [V]", "timing [ps]");
  for (const auto& r : {rep_model, rep_slow, rep_typ, rep_fast})
    std::printf("%-10s %10.4f %10.4f %12.2f\n", r.label.c_str(), r.rms_error, r.max_error,
                r.timing_error ? *r.timing_error * 1e12 : -1.0);

  std::printf("\nwaveform samples every 1 ns (t[ns]  ref  pwrbf  ibis_typ):\n");
  for (double t = 0.0; t <= 12e-9; t += 1e-9)
    std::printf("  %5.1f  %7.4f  %7.4f  %7.4f\n", t * 1e9, curves.reference.value_at(t),
                curves.pwrbf.value_at(t), curves.ibis_typical.value_at(t));

  const double best_ibis_rms =
      std::min({rep_slow.rms_error, rep_typ.rms_error, rep_fast.rms_error});
  std::printf("\npaper shape check: PW-RBF rms should be far below every IBIS corner\n");
  std::printf("  pwrbf rms = %.4f V, best IBIS rms = %.4f V  -> ratio %.1fx\n",
              rep_model.rms_error, best_ibis_rms, best_ibis_rms / rep_model.rms_error);
  std::printf("series written to bench_out/fig1.csv\n");

  auto doc = bench::make_bench_doc("bench_fig1");
  doc.at("scenarios").push(bench::scenario_row("run_fig1", wall));
  auto models = bench::Json::array();
  models.push(bench::accuracy_row("pwrbf", rep_model));
  models.push(bench::accuracy_row("ibis_slow", rep_slow));
  models.push(bench::accuracy_row("ibis_typical", rep_typ));
  models.push(bench::accuracy_row("ibis_fast", rep_fast));
  doc.set("models", std::move(models));
  doc.set("best_ibis_over_pwrbf_rms", bench::Json::number(best_ibis_rms / rep_model.rms_error));
  if (doc.write_file("BENCH_fig1.json")) std::printf("wrote BENCH_fig1.json\n");
  return bench::check_baseline_gate(doc, bargs) ? 0 : 1;
}

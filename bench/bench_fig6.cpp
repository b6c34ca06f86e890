// Figure 6 reproduction: MD4 receiver at the end of a 10 cm lossy line
// driven through 50 ohm by a 3 ns pulse with 100 ps edges; amplitudes
// 1.9 / 3.3 / 3.6 V walk the port from the linear region into clamping.
// Pin voltage for reference / parametric / C-R models.
//
//   bench_fig6 [--check-baseline PATH]   (writes BENCH_fig6.json and
//   bench_out/fig6{a,b,c}.csv)
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
  std::printf("=== Figure 6: MD4 on a 10 cm lossy line, increasing amplitude ===\n");
  std::printf("estimating MD4 parametric and C-R models...\n");
  const auto t0 = std::chrono::steady_clock::now();
  const auto panels = exp::run_fig6();
  const double wall = bench::seconds_since(t0);
  auto rows = bench::Json::array();
  auto peaks = bench::Json::array();

  std::printf("\n%-22s %-10s %10s %10s %12s\n", "panel", "model", "rms [V]", "max [V]",
              "timing [ps]");
  int idx = 0;
  for (const auto& p : panels) {
    const char tag = static_cast<char>('a' + idx++);
    sig::write_csv("bench_out/fig6" + std::string(1, tag) + ".csv",
                   {"reference", "parametric", "cr"},
                   {p.v_reference, p.v_parametric, p.v_cr});
    const double threshold = p.amplitude / 2.0;
    const auto rep_par = core::validate_waveform("parametric", p.v_reference,
                                                 p.v_parametric, threshold, 0.2e-9);
    const auto rep_cr =
        core::validate_waveform("C-R", p.v_reference, p.v_cr, threshold, 0.2e-9);
    char label[32];
    std::snprintf(label, sizeof label, "(%c) amplitude %.1f V", tag, p.amplitude);
    for (const auto& r : {rep_par, rep_cr})
      std::printf("%-22s %-10s %10.4f %10.4f %12.2f\n", label, r.label.c_str(),
                  r.rms_error, r.max_error, r.timing_error ? *r.timing_error * 1e12 : -1.0);
    rows.push(bench::accuracy_row(std::string(1, tag) + "_parametric", rep_par));
    rows.push(bench::accuracy_row(std::string(1, tag) + "_cr", rep_cr));
    auto peak = bench::Json::object();
    peak.set("name", bench::Json::string(std::string(1, tag)));
    peak.set("amplitude", bench::Json::number(p.amplitude));
    peak.set("reference", bench::Json::number(p.v_reference.max_value()));
    peak.set("parametric", bench::Json::number(p.v_parametric.max_value()));
    peak.set("cr", bench::Json::number(p.v_cr.max_value()));
    peaks.push(std::move(peak));
  }

  std::printf("\npeak pin voltages (clamping visible above VDD = 1.8 V):\n");
  for (const auto& p : panels)
    std::printf("  amp %.1f V: ref %.3f V, parametric %.3f V, C-R %.3f V\n", p.amplitude,
                p.v_reference.max_value(), p.v_parametric.max_value(), p.v_cr.max_value());
  std::printf("series written to bench_out/fig6{a,b,c}.csv\n");

  auto doc = bench::make_bench_doc("bench_fig6");
  doc.at("scenarios").push(bench::scenario_row("run_fig6", wall));
  doc.set("models", std::move(rows));
  doc.set("peak_pin_v", std::move(peaks));
  if (doc.write_file("BENCH_fig6.json")) std::printf("wrote BENCH_fig6.json\n");
  return bench::check_baseline_gate(doc, bargs) ? 0 : 1;
}

// Figure 2 reproduction: far-end voltage of MD2 applying a 1 ns pulse
// ("010") to three ideal transmission lines with different characteristic
// impedance / delay, terminated by 1 pF. Reference vs PW-RBF.
//
//   bench_fig2 [--check-baseline PATH]   (writes BENCH_fig2.json and
//   bench_out/fig2{a,b,c}.csv)
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
  std::printf("=== Figure 2: MD2 far-end voltage, 1 ns pulse on three lines ===\n");
  std::printf("estimating MD2 PW-RBF model...\n");
  const auto t0 = std::chrono::steady_clock::now();
  const auto panels = exp::run_fig2();
  const double wall = bench::seconds_since(t0);
  auto rows = bench::Json::array();

  std::printf("\n%-26s %10s %10s %12s\n", "line", "rms [V]", "max [V]", "timing [ps]");
  int idx = 0;
  for (const auto& p : panels) {
    const char tag = static_cast<char>('a' + idx++);
    sig::write_csv("bench_out/fig2" + std::string(1, tag) + ".csv", {"reference", "pwrbf"},
                   {p.reference, p.pwrbf});
    char label[64];
    std::snprintf(label, sizeof label, "(%c) Z0=%.0f ohm Td=%.0f ps", tag, p.z0,
                  p.td * 1e12);
    const auto rep = core::validate_waveform(label, p.reference, p.pwrbf, 0.9, 0.2e-9);
    rows.push(bench::accuracy_row(std::string(1, tag), rep));
    std::printf("%-26s %10.4f %10.4f %12.2f\n", rep.label.c_str(), rep.rms_error,
                rep.max_error, rep.timing_error ? *rep.timing_error * 1e12 : -1.0);
  }

  std::printf("\npanel (a) samples every 0.5 ns (t[ns]  ref  pwrbf):\n");
  for (double t = 0.0; t <= 8e-9; t += 0.5e-9)
    std::printf("  %5.1f  %7.4f  %7.4f\n", t * 1e9, panels[0].reference.value_at(t),
                panels[0].pwrbf.value_at(t));
  std::printf("series written to bench_out/fig2{a,b,c}.csv\n");

  auto doc = bench::make_bench_doc("bench_fig2");
  doc.at("scenarios").push(bench::scenario_row("run_fig2", wall));
  doc.set("panels", std::move(rows));
  if (doc.write_file("BENCH_fig2.json")) std::printf("wrote BENCH_fig2.json\n");
  return bench::check_baseline_gate(doc, bargs) ? 0 : 1;
}

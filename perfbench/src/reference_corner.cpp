#include "reference_corner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "circuit/devices_linear.hpp"
#include "circuit/engine.hpp"
#include "circuit/tline.hpp"
#include "emc/adaptive.hpp"
#include "emc/limits.hpp"
#include "obs/trace.hpp"
#include "signal/sample_sink.hpp"
#include "signal/sources.hpp"

namespace perfbench {

using namespace emc;

namespace {

/// Reference driver on `pad` through 1 mOhm, as the paper-figure
/// experiments attach it (the buffer's own pad node stays internal).
void attach_reference_driver(ckt::Circuit& c, int pad, const dev::DriverTech& tech,
                             const std::string& bits, double bit_time) {
  auto pattern = sig::bit_stream(bits, bit_time, 0.1e-9, 0.0, tech.vdd);
  const auto inst =
      dev::build_reference_driver(c, tech, [pattern](double t) { return pattern(t); });
  c.add<ckt::Resistor>(inst.pad, pad, 1e-3);
}

spec::TraceSel detector_trace(sweep::Detector d) {
  switch (d) {
    case sweep::Detector::kPeak: return spec::TraceSel::kPeak;
    case sweep::Detector::kQuasiPeak: return spec::TraceSel::kQuasiPeak;
    default: return spec::TraceSel::kAverage;
  }
}

}  // namespace

sweep::CornerFn make_reference_corner_fn(const sweep::EmissionSweepConfig& cfg,
                                         const dev::DriverTech& tech) {
  if (cfg.periods < 2)
    throw std::invalid_argument("make_reference_corner_fn: need >= 2 periods");

  return [cfg, tech](const sweep::Scenario& sc, sweep::Workspace& ws) {
    std::string key = sweep::emission_transient_key(sc);
    ws.memo_hit = ws.memo_key == key;
    if (!ws.memo_hit) {
      ckt::Circuit c;
      const int a1 = c.node();
      const int a2 = c.node();
      const int b1 = c.node();
      const int b2 = c.node();
      ckt::CoupledLineParams line = cfg.line;
      line.length = sc.line_length;
      ckt::add_coupled_lossy_line(c, {a1, a2}, {b1, b2}, line, cfg.dt, cfg.sections);
      c.add<ckt::Capacitor>(b1, c.ground(), sc.load_c);
      c.add<ckt::Capacitor>(b2, c.ground(), sc.load_c);

      std::string active_bits;
      for (int p = 0; p < cfg.periods; ++p) active_bits += sc.bits;
      attach_reference_driver(c, a1, tech, active_bits, cfg.bit_time);
      attach_reference_driver(c, a2, tech, std::string(active_bits.size(), '0'),
                              cfg.bit_time);

      const double period = cfg.bit_time * static_cast<double>(sc.bits.size());
      ckt::TransientOptions opt;
      opt.dt = cfg.dt;
      opt.t_stop = period * static_cast<double>(cfg.periods);
      opt.solver = cfg.solver;
      opt.context = key;
      const auto per_period = static_cast<std::size_t>(std::lround(period / cfg.dt));
      const std::size_t chunk_frames =
          std::clamp<std::size_t>(cfg.stream_budget_bytes / sizeof(double), 64, 65536);

      const int probes[] = {b1};
      sig::RecordingSink rec(per_period,
                             per_period * static_cast<std::size_t>(cfg.periods - 1));
      {
        obs::Span span("bench.ref.transient");
        ws.memo_solve =
            ckt::run_transient_streamed(c, opt, ws.newton, probes, rec, chunk_frames);
      }
      ws.memo_record = sig::Waveform(opt.t_start + opt.dt * static_cast<double>(per_period),
                                     opt.dt, std::move(rec).take_data());
      ws.memo_streamed_bytes = (chunk_frames + ws.memo_record.size()) * sizeof(double);
      ws.memo_attempts = 1;
      ws.memo_recovered = false;
      ws.memo_key = std::move(key);
    }

    sig::Waveform record = ws.memo_record;
    record *= sc.vdd_scale;
    spec::ReceiverSettings rx = cfg.rx;
    rx.rbw = sc.rbw;
    const spec::TraceSel trace = detector_trace(sc.detector);
    if (cfg.scan_plan == spec::ScanPlan::kAdaptive) {
      obs::Span span("bench.ref.scan");
      const spec::CertifiedScan cs =
          spec::adaptive_scan(ws.scanner, record, rx, cfg.mask, trace, cfg.adaptive,
                              sc.label());
      ws.scan = sweep::ScanCounts{cs.refined_points, cs.detector_passes,
                                  cs.crossings.size()};
      return cs.report;
    }
    spec::EmiScan scan;
    {
      obs::Span span("bench.ref.scan");
      scan = ws.scanner.scan(record, rx);
    }
    ws.scan = sweep::ScanCounts{0, scan.size(), 0};
    obs::Span span("bench.ref.compliance");
    return spec::check_compliance(scan.freq, spec::scan_trace(scan, trace), cfg.mask,
                                  sc.label(), scan.skipped_points);
  };
}

}  // namespace perfbench

// Shared JSON emission for the bench binaries, so every BENCH_*.json file
// carries the same top-level schema:
//
//   {
//     "bench": "<name>",
//     "host": { ...obs::host_info_json()... },
//     "scenarios": [{"name": ..., "wall_s": ..., ...}, ...],
//     ...bench-specific extras...
//   }
//
// The value tree itself is emc::obs::Json (the observability layer's
// insertion-ordered JSON document — the same type RunReport and the trace
// exporter use, with nesting, parsing and file I/O); this header only adds
// the bench document conventions on top.
#pragma once

#include <chrono>
#include <string>

#include "core/validation.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace emc::bench {

using Json = emc::obs::Json;

/// Wall-clock seconds elapsed since `t0` (the wall_s convention every
/// scenario row uses).
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Standard top-level bench document: {"bench": name, "host": {...},
/// "scenarios": []}. Push scenario_row()s into "scenarios" and attach
/// bench-specific extras with set() afterwards.
inline Json make_bench_doc(const std::string& name) {
  Json doc = Json::object();
  doc.set("bench", Json::string(name));
  doc.set("host", emc::obs::host_info_json());
  doc.set("scenarios", Json::array());
  return doc;
}

/// Standard per-scenario row. newton_iters is the engine's solver-work
/// proxy; pass -1 when the scenario does not expose solver stats.
inline Json scenario_row(const std::string& name, double wall_s, long newton_iters = -1) {
  Json row = Json::object();
  row.set("name", Json::string(name));
  row.set("wall_s", Json::number(wall_s));
  row.set("newton_iters", Json::integer(newton_iters));
  return row;
}

/// Accuracy row of a model waveform against its reference (the paper
/// figures' table): core::validate_waveform's rms and max error in the
/// waveform's unit, and its threshold-timing error in ps (null when no
/// crossing was measured).
inline Json accuracy_row(const std::string& name, const core::ValidationReport& r) {
  Json row = Json::object();
  row.set("name", Json::string(name));
  row.set("rms", Json::number(r.rms_error));
  row.set("max", Json::number(r.max_error));
  row.set("timing_ps", r.timing_error ? Json::number(*r.timing_error * 1e12) : Json::null());
  return row;
}

}  // namespace emc::bench

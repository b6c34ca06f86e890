// Structured run report: one JSON document unifying what a run did —
// solver configuration and factorization statistics, Newton iteration
// counts, sweep worker telemetry, receiver scan decisions, record
// memory peaks — so a run leaves a machine-readable record instead of a
// scatter of stdout lines.
//
// A RunReport is a thin builder over obs::Json: named sections are
// created on first use and filled with set() calls, a metrics snapshot
// lands under "metrics", a tracer summary under "trace". Sections keep
// insertion order, so reports diff cleanly between runs.
//
// Schema of the emitted document (schema_version 2):
//   {
//     "report": <name>,
//     "schema_version": 2,
//     "host": { ... },               // host_info_json(), added by the ctor
//     "<section>": { ... },          // one per section() in creation order
//     "metrics": { ... },            // MetricsSnapshot::to_json(), sorted by name
//     "trace": {"threads": N, "events": N, "dropped_events": N, "file": "..."},
//     "profile": { ... },            // Profile::to_json()
//     "resources": { ... }           // ResourceSampler::to_json()
//   }
// v1 -> v2: reports carry a "host" section (so merged/diffed reports stay
// attributable to the machine and build that produced them) and gauges in
// "metrics" serialize as {"peak": v} objects — the shape that lets
// merge_run_reports tell a max-merging peak from a sum-merging counter.
#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace emc::obs {

class Profile;
class ResourceSampler;

/// Host/build metadata: cpus, os, compiler, build_type, sanitize,
/// pointer_bits. Every RunReport (and every BENCH_*.json document) embeds
/// it so reports merged or diffed across machines stay attributable.
Json host_info_json();

class RunReport {
 public:
  /// Creates the report with its "host" section already attached.
  explicit RunReport(std::string name);

  /// Section object by key, created (at the end) on first use.
  Json& section(const std::string& key);

  /// Convenience setters into a section: section(key).set(field, ...).
  void set(const std::string& sec, const std::string& field, Json v);
  void set(const std::string& sec, const std::string& field, double v);
  void set(const std::string& sec, const std::string& field, long v);
  void set(const std::string& sec, const std::string& field, const std::string& v);
  void set(const std::string& sec, const std::string& field, bool v);

  /// Attach a merged metrics snapshot as the "metrics" section
  /// (replaces a previous one — take the snapshot when the run is done).
  void add_metrics(const MetricsSnapshot& snap);

  /// Attach a tracer summary as the "trace" section: thread / event /
  /// drop counts plus the trace file path when one was written.
  void add_trace_summary(const Tracer& tracer, const std::string& trace_file = "");

  /// Attach an aggregated span profile as the "profile" section.
  void add_profile(const Profile& profile);

  /// Attach sampler output as the "resources" section.
  void add_resources(const ResourceSampler& sampler, std::size_t max_series = 64);

  /// The report document (schema above). Copy of the current state.
  Json to_json() const;
  /// Serialize to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  Json doc_;
};

}  // namespace emc::obs

// Measurement helpers of the corner-sweep benchmark that do not depend on
// a workload: metric-name rules, order statistics, the layer split of a
// span profile, and the one-line JSON result the benchmark prints last.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profile.hpp"

namespace perfbench {

/// A metric name: starts with a letter or digit, at most 64 characters
/// drawn from letters, digits, '_', '.' and '-'.
bool valid_metric_name(std::string_view name);

/// A unit: 1..16 characters drawn from letters, digits, '_', '/', '%',
/// '.' and '-' (as in "ms", "s", "1/s", "count").
bool valid_unit(std::string_view unit);

/// Linear-interpolation quantile (q in [0, 1]) of `v`; throws on an empty
/// sample or q outside [0, 1].
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Means of the interleaved series of `v`: element i of the result is the
/// mean of v[i], v[i + stride], v[i + 2 stride], ... Throws when stride is
/// 0 or the size of `v` is not a positive multiple of it.
std::vector<double> strided_means(const std::vector<double>& v, std::size_t stride);

/// The highest of the reportable percentiles {99.9, 99, 90} that leaves at
/// least ten samples strictly beyond it in a sample of `n`, or nullopt when
/// none does (then only the median may be read from the sample).
std::optional<double> highest_reportable_percentile(std::size_t n);

/// The layer a span name belongs to: "ident", "sweep", "circuit",
/// "linalg", "emc", or "other" for names the benchmark does not map.
std::string layer_of(std::string_view span_name);

/// Busy time [ns] of the outermost spans whose name is in `names`: a span
/// nested inside another span of the set is not counted twice.
long long outermost_ns(const emc::obs::ProfileNode& node,
                       const std::vector<std::string>& names);

/// Layer totals summed over the profiles of several traced rounds.
struct TraceTotals {
  std::size_t rounds = 0;
  std::map<std::string, long long> self_ns;  ///< per layer (see layer_of)
  long long transient_ns = 0;    ///< outermost `transient` spans
  long long dc_ns = 0;           ///< outermost `dc` spans
  long long factor_ns = 0;       ///< `factor` spans
  long long scan_ns = 0;         ///< outermost receiver spans (scan, adaptive, reference)
  long long corner_ns = 0;       ///< `corner` spans
  long long newton_self_ns = 0;  ///< self time of `newton_step`
  long long glue_self_ns = 0;    ///< self time of `corner` + `bench.corner_fn`
  std::uint64_t factors = 0;     ///< `factor` span count
  std::uint64_t spans = 0;       ///< retained events
  std::uint64_t dropped = 0;     ///< events lost to ring overflow

  void add(const emc::obs::Profile& p);

  /// Share of the time inside `corner` spans that a named layer span below
  /// the sweep layer accounts for: 1 - glue self time / corner time.
  double coverage() const;

  /// Share of the self time of every layer but ident held by `layer`.
  double self_frac(const std::string& layer) const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}}, values printed with all 17 significant digits.
/// Throws std::invalid_argument on a bad name or unit, a repeated name, a
/// non-finite value, or attempted == 0.
std::string result_line(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench

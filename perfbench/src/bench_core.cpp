#include "bench_core.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace {

bool name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile: empty sample");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile: q outside [0, 1]");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::vector<double> strided_means(const std::vector<double>& v, std::size_t stride) {
  if (stride == 0 || v.empty() || v.size() % stride != 0)
    throw std::invalid_argument("strided_means: size is not a positive multiple of stride");
  std::vector<double> means(stride, 0.0);
  for (std::size_t i = 0; i < v.size(); ++i) means[i % stride] += v[i];
  const double repeats = static_cast<double>(v.size() / stride);
  for (double& m : means) m /= repeats;
  return means;
}

std::optional<double> highest_reportable_percentile(std::size_t n) {
  // Samples strictly beyond the p-th percentile: n * (100 - p) / 100,
  // compared in integer thousandths so 99.9 does not round.
  for (const int p_milli : {99900, 99000, 90000}) {
    if (n * static_cast<std::size_t>(100000 - p_milli) >= 10u * 100000u)
      return p_milli / 1000.0;
  }
  return std::nullopt;
}

std::string layer_of(std::string_view s) {
  if (s == "bench.estimate") return "ident";
  if (s == "sweep" || s == "corner" || s == "bench.sweep_run" || s == "bench.corner_fn")
    return "sweep";
  if (s == "transient" || s == "newton_step" || s == "dc" || s == "bench.ref.transient")
    return "circuit";
  if (s == "factor") return "linalg";
  if (s == "scan" || s == "adaptive_scan" || s == "bench.ref.scan" ||
      s == "bench.ref.compliance")
    return "emc";
  return "other";
}

long long outermost_ns(const emc::obs::ProfileNode& node,
                       const std::vector<std::string>& names) {
  long long sum = 0;
  for (const auto& child : node.children) {
    if (std::find(names.begin(), names.end(), child.name) != names.end())
      sum += child.total_ns;
    else
      sum += outermost_ns(child, names);
  }
  return sum;
}

void TraceTotals::add(const emc::obs::Profile& p) {
  ++rounds;
  for (const auto& [name, stats] : p.spans()) self_ns[layer_of(name)] += stats.self_ns;
  const auto& root = p.root();
  transient_ns += outermost_ns(root, {"transient"});
  dc_ns += outermost_ns(root, {"dc"});
  factor_ns += outermost_ns(root, {"factor"});
  scan_ns += outermost_ns(
      root, {"adaptive_scan", "scan", "bench.ref.scan", "bench.ref.compliance"});
  corner_ns += outermost_ns(root, {"corner"});
  newton_self_ns += p.self_ns("newton_step");
  glue_self_ns += p.self_ns("corner") + p.self_ns("bench.corner_fn");
  const auto f = p.spans().find("factor");
  if (f != p.spans().end()) factors += f->second.count;
  spans += p.events();
  dropped += p.dropped_events();
}

double TraceTotals::coverage() const {
  if (corner_ns <= 0) return 0.0;
  return 1.0 - static_cast<double>(glue_self_ns) / static_cast<double>(corner_ns);
}

double TraceTotals::self_frac(const std::string& layer) const {
  long long total = 0;
  for (const auto& [name, ns] : self_ns)
    if (name != "ident") total += ns;
  const auto it = self_ns.find(layer);
  if (total <= 0 || it == self_ns.end() || layer == "ident") return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(total);
}

std::string result_line(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics) {
  if (attempted < 1) throw std::invalid_argument("result_line: attempted must be >= 1");
  if (failed < 0 || failed > attempted)
    throw std::invalid_argument("result_line: failed outside [0, attempted]");
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name))
      throw std::invalid_argument("result_line: bad metric name '" + m.name + "'");
    if (!valid_unit(m.unit))
      throw std::invalid_argument("result_line: bad unit '" + m.unit + "' of " + m.name);
    if (!seen.insert(m.name).second)
      throw std::invalid_argument("result_line: metric '" + m.name + "' repeated");
    if (!std::isfinite(m.value))
      throw std::invalid_argument("result_line: metric '" + m.name + "' is not finite");
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

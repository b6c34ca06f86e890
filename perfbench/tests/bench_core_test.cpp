// Tests of the benchmark's own measurement helpers: metric-name rules, the
// percentile rule, layer self time on a hand-built span tree, and the
// result-line schema.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "bench_core.hpp"
#include "obs/json.hpp"

namespace {

using perfbench::Metric;

TEST(MetricName, AcceptsLettersDigitsUnderscoreDotDash) {
  EXPECT_TRUE(perfbench::valid_metric_name("setup_s"));
  EXPECT_TRUE(perfbench::valid_metric_name("circuit.newton_iters_per_step"));
  EXPECT_TRUE(perfbench::valid_metric_name("9lives-2.0"));
  EXPECT_TRUE(perfbench::valid_metric_name(std::string(64, 'a')));
}

TEST(MetricName, RejectsBadFirstCharacterLengthAndSymbols) {
  EXPECT_FALSE(perfbench::valid_metric_name(""));
  EXPECT_FALSE(perfbench::valid_metric_name("_hidden"));
  EXPECT_FALSE(perfbench::valid_metric_name(".dot"));
  EXPECT_FALSE(perfbench::valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(perfbench::valid_metric_name("corner ms"));
  EXPECT_FALSE(perfbench::valid_metric_name("rate/s"));
  EXPECT_FALSE(perfbench::valid_metric_name("quote\""));
}

TEST(MetricUnit, AcceptsSlashAndPercent) {
  EXPECT_TRUE(perfbench::valid_unit("1/s"));
  EXPECT_TRUE(perfbench::valid_unit("%"));
  EXPECT_TRUE(perfbench::valid_unit("count"));
  EXPECT_FALSE(perfbench::valid_unit(""));
  EXPECT_FALSE(perfbench::valid_unit("seconds per run"));
  EXPECT_FALSE(perfbench::valid_unit(std::string(17, 's')));
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_FALSE(perfbench::highest_reportable_percentile(0).has_value());
  EXPECT_FALSE(perfbench::highest_reportable_percentile(99).has_value());
  EXPECT_EQ(perfbench::highest_reportable_percentile(100), 90.0);
  EXPECT_EQ(perfbench::highest_reportable_percentile(999), 90.0);
  EXPECT_EQ(perfbench::highest_reportable_percentile(1000), 99.0);
  EXPECT_EQ(perfbench::highest_reportable_percentile(9999), 99.0);
  EXPECT_EQ(perfbench::highest_reportable_percentile(10000), 99.9);
}

TEST(Percentile, LinearInterpolationQuantiles) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(perfbench::median(v), 3.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile(v, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(perfbench::median({1.0, 2.0}), 1.5);
  EXPECT_THROW(perfbench::quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(perfbench::quantile(v, 1.5), std::invalid_argument);
}

TEST(Percentile, StridedMeansAverageEachSeries) {
  // Two rounds of three corners, round-major: corner i's mean over rounds.
  const std::vector<double> v = {1, 10, 100, 3, 30, 300};
  EXPECT_EQ(perfbench::strided_means(v, 3), (std::vector<double>{2, 20, 200}));
  EXPECT_EQ(perfbench::strided_means(v, 6), v);
  EXPECT_THROW(perfbench::strided_means(v, 4), std::invalid_argument);
  EXPECT_THROW(perfbench::strided_means(v, 0), std::invalid_argument);
  EXPECT_THROW(perfbench::strided_means({}, 3), std::invalid_argument);
}

emc::obs::TraceEvent ev(const char* name, std::uint32_t tid, std::uint32_t depth,
                        std::int64_t ts, std::int64_t dur) {
  return {name, tid, depth, ts, dur};
}

// Two workers. Worker 0: corner [0,100) > bench.corner_fn [5,95) >
// transient [10,70) > {newton_step [10,40) > factor [15,35),
// newton_step [40,70) > factor [45,60)}, then scan [70,90). Worker 1:
// corner [0,50) > bench.corner_fn [0,50) > adaptive_scan [0,40) > scan
// [10,30). Sorted as Tracer::events() sorts: (tid, start, longest first).
emc::obs::Profile hand_built_profile() {
  const std::vector<emc::obs::TraceEvent> events = {
      ev("corner", 0, 0, 0, 100),        ev("bench.corner_fn", 0, 1, 5, 90),
      ev("transient", 0, 2, 10, 60),     ev("newton_step", 0, 3, 10, 30),
      ev("factor", 0, 4, 15, 20),        ev("newton_step", 0, 3, 40, 30),
      ev("factor", 0, 4, 45, 15),        ev("scan", 0, 2, 70, 20),
      ev("corner", 1, 0, 0, 50),         ev("bench.corner_fn", 1, 1, 0, 50),
      ev("adaptive_scan", 1, 2, 0, 40),  ev("scan", 1, 3, 10, 20),
  };
  return emc::obs::Profile::build(events, 0, 2);
}

TEST(SelfTime, LayerSplitOfHandBuiltTree) {
  perfbench::TraceTotals t;
  t.add(hand_built_profile());
  // sweep glue: corner self (10 + 0) + bench.corner_fn self (10 + 10).
  EXPECT_EQ(t.self_ns.at("sweep"), 30);
  // circuit: transient self 0 + newton_step self (10 + 15).
  EXPECT_EQ(t.self_ns.at("circuit"), 25);
  EXPECT_EQ(t.self_ns.at("linalg"), 35);
  // emc: scan 20 (worker 0) + adaptive_scan self 20 + nested scan 20.
  EXPECT_EQ(t.self_ns.at("emc"), 60);
  EXPECT_EQ(t.newton_self_ns, 25);
  EXPECT_EQ(t.glue_self_ns, 30);
  EXPECT_EQ(t.factors, 2u);
  EXPECT_EQ(t.spans, 12u);
  EXPECT_EQ(t.dropped, 0u);
  // The self times add up to the traced corner time.
  long long total = 0;
  for (const auto& [layer, ns] : t.self_ns) total += ns;
  EXPECT_EQ(total, t.corner_ns);
}

TEST(SelfTime, OutermostSpansAreNotCountedTwice) {
  perfbench::TraceTotals t;
  t.add(hand_built_profile());
  EXPECT_EQ(t.corner_ns, 150);
  EXPECT_EQ(t.transient_ns, 60);
  EXPECT_EQ(t.factor_ns, 35);
  // scan nested in adaptive_scan counts once: 20 + 40.
  EXPECT_EQ(t.scan_ns, 60);
  EXPECT_DOUBLE_EQ(t.coverage(), 1.0 - 30.0 / 150.0);
  EXPECT_DOUBLE_EQ(t.self_frac("emc"), 60.0 / 150.0);
  EXPECT_DOUBLE_EQ(t.self_frac("ident"), 0.0);
}

TEST(SelfTime, TotalsAccumulateOverRounds) {
  perfbench::TraceTotals t;
  t.add(hand_built_profile());
  t.add(hand_built_profile());
  EXPECT_EQ(t.rounds, 2u);
  EXPECT_EQ(t.corner_ns, 300);
  EXPECT_DOUBLE_EQ(t.coverage(), 1.0 - 60.0 / 300.0);
}

TEST(ResultLine, SchemaHasExactlyTheFourKeys) {
  const std::string line = perfbench::result_line(
      true, 24, 0, {{"corners_per_s", 7.25, "1/s"}, {"setup_s", 3.1234567890123, "s"}});
  const auto doc = emc::obs::Json::parse(line);
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.size(), 4u);
  EXPECT_TRUE(doc.at("correct").as_bool());
  EXPECT_EQ(doc.at("attempted").as_integer(), 24);
  EXPECT_EQ(doc.at("failed").as_integer(), 0);
  const auto& m = doc.at("metrics");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at("corners_per_s").size(), 2u);
  EXPECT_EQ(m.at("corners_per_s").at("unit").as_string(), "1/s");
  // Every digit survives: 17 significant digits round-trip a double.
  EXPECT_EQ(m.at("setup_s").at("value").as_double(), 3.1234567890123);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(ResultLine, RejectsWhatTheContractForbids) {
  EXPECT_THROW(perfbench::result_line(true, 0, 0, {}), std::invalid_argument);
  EXPECT_THROW(perfbench::result_line(true, 1, 2, {}), std::invalid_argument);
  EXPECT_THROW(perfbench::result_line(true, 1, 0, {{"bad name", 1.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(perfbench::result_line(true, 1, 0, {{"x", 1.0, "no spaces"}}),
               std::invalid_argument);
  EXPECT_THROW(perfbench::result_line(true, 1, 0, {{"x", 1.0, "s"}, {"x", 2.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(perfbench::result_line(
                   true, 1, 0, {{"x", std::numeric_limits<double>::quiet_NaN(), "s"}}),
               std::invalid_argument);
}

}  // namespace

// corner_bench: the corner-sweep benchmark. One EMC engineer's request is
// a grid of compliance verdicts: estimate the PW-RBF driver macromodel,
// sweep the corner grid (transient -> steady slice -> swept EMI receiver
// -> mask check) on 2 workers, and read the verdicts. Each workload runs
// that request through the public API, checks the verdicts, and prints
// one JSON result line last on stdout (progress goes to stderr).
//
//   corner_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--work-dir DIR] [--expected DIR] [--write-expected DIR]
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 prints
// the per-layer metrics from a traced run. See NOTES.md for why each
// workload exists and which metric each layer should move.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_core.hpp"
#include "core/circuit_dut.hpp"
#include "core/driver_estimator.hpp"
#include "devices/reference_driver.hpp"
#include "experiments.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "reference_corner.hpp"
#include "sweep/sweep_runner.hpp"

using namespace emc;
using perfbench::Metric;

namespace {

constexpr std::size_t kJobs = 2;           // one fixed worker count for every sweep
constexpr std::uint64_t kDefaultSeed = 1;  // the seed the committed verdicts belong to
constexpr double kMarginTolDb = 0.05;      // expected-verdict margin tolerance
constexpr int kSetupRepeats = 3;           // setup_s is the median of this many set-ups
constexpr std::size_t kTailSamples = 100;  // smallest sample with 10 beyond its p90
constexpr std::size_t kSetupRing = 1 << 18;  // set-up records about 76,000 spans
constexpr std::size_t kPatternBits = 15;       // stimulus bits per pattern period
constexpr std::size_t kPatternToggles = 8;     // switching bit boundaries per period

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string expected_dir;
  std::string write_expected_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
      if (!(a.seconds > 0.0 && a.seconds <= 600.0))
        throw std::invalid_argument("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--expected") {
      a.expected_dir = v;
    } else if (flag == "--write-expected") {
      a.write_expected_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

// ------------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  sweep::CornerAxes axes;
  /// Sub-grid re-run with the transistor-level reference driver to score
  /// the macromodel's verdicts (restrictions of `axes`).
  sweep::CornerAxes signoff;
  spec::ScanPlan plan = spec::ScanPlan::kFixed;
  bool journal = false;
  /// verdict_reference: every timed round sweeps the reference too.
  bool reference_in_round = false;
  /// Per-corner latency samples a timed run collects at least.
  std::size_t min_samples = 0;
};

/// Bit boundaries of one pattern period that switch, counting the wrap
/// from the last bit to the first (the pattern repeats).
std::size_t toggles(const std::string& bits) {
  std::size_t t = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) t += bits[i] != bits[(i + 1) % bits.size()];
  return t;
}

/// Pattern seeds of a run: the first n seeds of the run's own block of 64
/// whose 15-bit pattern toggles at exactly 8 of its 15 bit boundaries (the
/// nearest even count to a random pattern's 7.5). Seeds then change which
/// bits switch but not how much switching the solver and the receiver
/// see: at free activity one seed drew 30% fewer Newton iterations than
/// the others.
std::vector<std::uint64_t> pattern_seeds(std::uint64_t seed, std::size_t n) {
  constexpr std::uint64_t kBlock = 64;
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = (seed - 1) * kBlock + 1; out.size() < n && k <= seed * kBlock; ++k)
    if (toggles(sweep::prbs_bits(k, kPatternBits)) == kPatternToggles) out.push_back(k);
  if (out.size() < n) throw std::runtime_error("too few patterns with the set toggle count");
  return out;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (seed == 0 || seed > (1ull << 40))
    throw std::invalid_argument("--seed must be in [1, 2^40]");
  Workload w;
  w.name = name;
  w.axes.pattern_bits = kPatternBits;
  w.axes.detector = {sweep::Detector::kQuasiPeak};
  w.axes.rbw = {20e6};
  w.axes.vdd_scale = {1.0};
  if (name == "sweep_transient") {
    // Every corner its own transient: circuit + linalg do the work. Both
    // line lengths cost about the same per corner, so the grid adds no
    // second mode to the corner latencies.
    w.axes.pattern_seed = pattern_seeds(seed, 6);
    w.axes.line_length = {0.1, 0.15};
    w.axes.load_c = {1e-12, 2e-12};
    w.signoff = w.axes;
    w.signoff.line_length = {0.1};
    w.signoff.load_c = {1e-12};
    w.min_samples = kTailSamples;
  } else if (name == "sweep_scan") {
    // Eight transients fanned out over supply x detector x RBW (270 corners
    // each, enough that the receiver outweighs the transients): the
    // receiver, adaptive planner, scoring and journal do the work. Eight
    // patterns average out how much adaptive refinement a pattern's
    // spectrum draws, which varies widely from pattern to pattern.
    w.axes.pattern_seed = pattern_seeds(seed, 8);
    w.axes.line_length = {0.1};
    w.axes.load_c = {1e-12};
    w.axes.vdd_scale = {0.900, 0.925, 0.950, 0.975, 1.000, 1.025, 1.050, 1.075, 1.100};
    w.axes.detector = {sweep::Detector::kPeak, sweep::Detector::kQuasiPeak,
                       sweep::Detector::kAverage};
    w.axes.rbw = {8e6, 10e6, 12e6, 15e6, 20e6, 25e6, 30e6, 40e6, 50e6, 60e6};
    w.signoff = w.axes;
    w.plan = spec::ScanPlan::kAdaptive;
    w.journal = true;
    w.min_samples = kTailSamples;
  } else if (name == "verdict_reference") {
    // The paper's claim: transistor-level reference vs macromodel on one
    // small neutral grid (the sweep_transient corner shape and lengths).
    w.axes.pattern_seed = pattern_seeds(seed, 2);
    w.axes.line_length = {0.1, 0.15};
    w.axes.load_c = {1e-12, 2e-12};
    w.signoff = w.axes;
    w.reference_in_round = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (sweep_transient, sweep_scan, verdict_reference)");
  }
  return w;
}

/// Wrap a corner function in the benchmark's own span.
sweep::CornerFn traced_corner_fn(sweep::CornerFn fn) {
  return [fn = std::move(fn)](const sweep::Scenario& sc, sweep::Workspace& ws) {
    obs::Span span("bench.corner_fn");
    return fn(sc, ws);
  };
}

/// Everything set-up builds: the estimated macromodel, the sweep config
/// pointing at it, the grids and the corner functions.
struct Setup {
  explicit Setup(const Workload& w) : grid(w.axes), signoff_grid(w.signoff) {}
  Setup(const Setup&) = delete;  // cfg.model points into this object
  Setup& operator=(const Setup&) = delete;

  core::PwRbfDriverModel model;
  sweep::EmissionSweepConfig cfg;
  sweep::CornerGrid grid;
  sweep::CornerGrid signoff_grid;
  sweep::CornerFn macro_fn;
  sweep::CornerFn reference_fn;
  double estimate_s = 0.0;
};

std::unique_ptr<Setup> set_up(const Workload& w) {
  auto s = std::make_unique<Setup>(w);
  const dev::DriverTech tech = dev::DriverTech::md3_ibm25();
  {
    const auto t0 = Clock::now();
    obs::Span span("bench.estimate");
    const core::CircuitDriverDut dut(tech);
    s->model = core::estimate_driver_model(dut, core::DriverEstimationOptions{});
    s->model.name = "MD3";
    s->estimate_s = seconds_since(t0);
  }
  sweep::EmissionSweepConfig& cfg = s->cfg;
  cfg.model = &s->model;
  cfg.line = exp::mcm_fig3_params();
  cfg.bit_time = 1e-9;
  cfg.periods = 3;
  cfg.rx.name = "wideband scan";
  cfg.rx.f_start = 50e6;
  cfg.rx.f_stop = 5e9;
  cfg.rx.n_points = 40;
  cfg.rx.tau_charge = 1e-9;
  cfg.rx.tau_discharge = 30e-9;
  cfg.mask = {"board-level mask", {{50e6, 140.0}, {5e9, 90.0}}};
  cfg.scan_plan = w.plan;
  s->macro_fn = traced_corner_fn(sweep::make_emission_corner_fn(cfg));
  s->reference_fn = traced_corner_fn(perfbench::make_reference_corner_fn(cfg, tech));
  return s;
}

// ------------------------------------------------------------------- sweeping

std::uint64_t counter(const char* name) { return obs::registry().snapshot().value(name); }

struct SweepRun {
  sweep::SweepOutcome out;
  double wall_s = 0.0;
  std::uint64_t transients = 0;     // ckt.transient.runs during the sweep
  std::uintmax_t journal_bytes = 0;
};

/// One sweep on a fresh runner. The per-worker record memo outlives
/// run() and its key (pattern|length|load) leaves out the config, so a
/// reused runner can hand one config's record to another; a fresh runner
/// per sweep keeps every timed sweep honest.
SweepRun run_sweep(const sweep::CornerGrid& grid, const sweep::CornerFn& fn,
                   const std::string& journal_path) {
  sweep::SweepRunner runner(kJobs);
  sweep::RunOptions opt;
  opt.chunk = sweep::emission_chunk_hint(grid);
  if (!journal_path.empty()) {
    std::filesystem::remove(journal_path);  // a leftover journal would resume
    opt.journal_path = journal_path;
  }
  SweepRun r;
  const std::uint64_t before = counter("ckt.transient.runs");
  const auto t0 = Clock::now();
  {
    obs::Span span("bench.sweep_run");
    r.out = runner.run(grid, fn, opt);
  }
  r.wall_s = seconds_since(t0);
  r.transients = counter("ckt.transient.runs") - before;
  if (!journal_path.empty()) {
    r.journal_bytes = std::filesystem::file_size(journal_path);
    std::filesystem::remove(journal_path);
  }
  return r;
}

/// One timed unit of work: the macromodel sweep, preceded on
/// verdict_reference by the reference sweep of the same grid.
struct Round {
  SweepRun macro;
  std::optional<SweepRun> reference;

  double wall_s() const { return macro.wall_s + (reference ? reference->wall_s : 0.0); }
  std::vector<const SweepRun*> sweeps() const {
    std::vector<const SweepRun*> v{&macro};
    if (reference) v.push_back(&*reference);
    return v;
  }
};

Round run_round(const Workload& w, const Setup& s, const std::string& journal_path) {
  Round r;
  if (w.reference_in_round) r.reference = run_sweep(s.grid, s.reference_fn, "");
  r.macro = run_sweep(s.grid, s.macro_fn, w.journal ? journal_path : "");
  return r;
}

/// Per-corner verdict latency of a round: macromodel corner wall time,
/// plus the reference's for the same corner when the round swept it.
void corner_latencies_ms(const Round& r, std::vector<double>& out) {
  for (std::size_t i = 0; i < r.macro.out.results.size(); ++i) {
    double wall = r.macro.out.results[i].wall_s;
    if (r.reference) wall += r.reference->out.results[i].wall_s;
    out.push_back(1e3 * wall);
  }
}

// ---------------------------------------------------------------- correctness

struct Checks {
  bool ok = true;
  long attempted = 0;
  long failed = 0;

  void fail(const std::string& why) {
    ok = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
};

bool same_verdicts(const sweep::SweepOutcome& a, const sweep::SweepOutcome& b) {
  if (!(a.summary == b.summary) || a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    if (x.solver_failed != y.solver_failed || x.report.pass != y.report.pass ||
        x.report.points.size() != y.report.points.size() ||
        (!x.report.points.empty() &&
         (x.report.worst_margin_db != y.report.worst_margin_db ||
          x.report.worst_index != y.report.worst_index)))
      return false;
  }
  return true;
}

std::size_t distinct_transients(const sweep::CornerGrid& grid) {
  std::set<std::string> keys;
  for (std::size_t i = 0; i < grid.size(); ++i)
    keys.insert(sweep::emission_transient_key(grid.at(i)));
  return keys.size();
}

/// Counts a sweep's attempted and solver-failed corners and checks it ran
/// one transient per distinct transient key.
void tally(const SweepRun& sw, std::size_t transient_keys, Checks& c) {
  c.attempted += static_cast<long>(sw.out.results.size());
  c.failed += static_cast<long>(sw.out.summary.solver_failed);
  if (sw.transients != transient_keys)
    c.fail("sweep ran " + std::to_string(sw.transients) + " transients for " +
           std::to_string(transient_keys) + " distinct transient keys");
}

/// tally() for every sweep of a round, which must also repeat the first
/// round's sweep of the same kind exactly.
void check_round(const Round& r, const Round& first, std::size_t transient_keys,
                 Checks& c) {
  const auto now = r.sweeps();
  const auto ref = first.sweeps();
  for (std::size_t k = 0; k < now.size(); ++k) {
    tally(*now[k], transient_keys, c);
    if (!same_verdicts(now[k]->out, ref[k]->out))
      c.fail("a repeated sweep's summary or verdicts differ from the first sweep's");
  }
}

/// Per-corner [pass, worst margin dB] pairs in grid order, one corner per
/// line so the committed files stay short and diffable.
std::string verdicts_json(const sweep::SweepOutcome& out) {
  std::string text = "[\n";
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const auto& rep = out.results[i].report;
    char row[64];
    std::snprintf(row, sizeof row, "  [%s, %.6f]%s\n", rep.pass ? "true" : "false",
                  rep.worst_margin_db, i + 1 < out.results.size() ? "," : "");
    text += row;
  }
  return text + "]";
}

/// Per-corner verdicts must match the committed ones: margins within
/// kMarginTolDb, pass/fail equal unless the committed margin is itself
/// within the tolerance of the limit. Never bit-identity, so a
/// numerically equivalent solver still passes.
void check_expected(const obs::Json& expected, const sweep::SweepOutcome& out,
                    const char* what, Checks& c) {
  if (expected.size() != out.results.size()) {
    c.fail(std::string(what) + ": committed verdicts cover " +
           std::to_string(expected.size()) + " corners, the sweep " +
           std::to_string(out.results.size()));
    return;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& e = expected[i];
    const auto& r = out.results[i];
    const double m_exp = e[1].as_double();
    const double m = r.report.worst_margin_db;
    const bool pass_ok = r.report.pass == e[0].as_bool() || std::abs(m_exp) <= kMarginTolDb;
    if (r.solver_failed || !pass_ok || !(std::abs(m - m_exp) <= kMarginTolDb)) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s corner %zu (%s): margin %+.4f dB, committed %+.4f dB",
                    what, i, r.scenario.label().c_str(), m, m_exp);
      c.fail(buf);
    }
  }
}

// ------------------------------------------------------------ reference score

struct Agreement {
  std::size_t corners = 0;
  std::size_t verdicts_agree = 0;
  std::size_t freq_match = 0;  ///< worst frequencies within one RBW
  double max_margin_err_db = 0.0;

  double share(std::size_t k) const {
    return corners ? static_cast<double>(k) / static_cast<double>(corners) : 0.0;
  }
  double agree_frac() const { return share(verdicts_agree); }
  double freq_match_frac() const { return share(freq_match); }
};

double worst_freq(const spec::ComplianceReport& r) {
  return r.points.empty() ? 0.0 : r.points[r.worst_index].f;
}

/// Scores the macromodel's verdicts against the reference's, corner by
/// corner, and prints the first disagreements to stderr.
Agreement score(const sweep::SweepOutcome& macro, const sweep::SweepOutcome& reference) {
  constexpr std::size_t kShown = 8;
  Agreement a;
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < macro.results.size(); ++i) {
    const auto& m = macro.results[i];
    const auto& r = reference.results[i];
    if (m.solver_failed || r.solver_failed) continue;
    ++a.corners;
    if (m.report.pass == r.report.pass) ++a.verdicts_agree;
    const bool freq_ok =
        std::abs(worst_freq(m.report) - worst_freq(r.report)) <= m.scenario.rbw;
    if (freq_ok) ++a.freq_match;
    if ((!freq_ok || m.report.pass != r.report.pass) && ++disagreements <= kShown)
      std::fprintf(stderr,
                   "  disagrees: %s: macromodel %+.2f dB at %.1f MHz, reference %+.2f dB at "
                   "%.1f MHz\n",
                   m.scenario.label().c_str(), m.report.worst_margin_db,
                   worst_freq(m.report) * 1e-6, r.report.worst_margin_db,
                   worst_freq(r.report) * 1e-6);
    a.max_margin_err_db = std::max(
        a.max_margin_err_db, std::abs(m.report.worst_margin_db - r.report.worst_margin_db));
  }
  if (disagreements > kShown)
    std::fprintf(stderr, "  ... %zu more corners disagree\n", disagreements - kShown);
  return a;
}

// ------------------------------------------------------------------- tracing

/// Ring capacity for one traced round: every span of the round could
/// land on one thread, so size for the whole round with 2x headroom.
std::size_t ring_capacity(std::uint64_t events_per_round) {
  std::size_t cap = 1 << 16;
  while (cap < 2 * events_per_round) cap <<= 1;
  return cap;
}

// ------------------------------------------------------------------- metrics

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB on Linux
}

double per_round(double total, std::size_t rounds) {
  return rounds ? total / static_cast<double>(rounds) : 0.0;
}

/// Counter deltas of one phase of the run.
struct CounterWindow {
  std::vector<std::string> names;
  std::vector<std::uint64_t> start;

  explicit CounterWindow(std::vector<std::string> n) : names(std::move(n)) {
    const auto snap = obs::registry().snapshot();
    for (const auto& name : names) start.push_back(snap.value(name));
  }
  std::map<std::string, double> deltas() const {
    const auto snap = obs::registry().snapshot();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < names.size(); ++i)
      out[names[i]] = static_cast<double>(snap.value(names[i]) - start[i]);
    return out;
  }
};

const std::vector<std::string> kCounters = {
    "ckt.transient.runs",     "ckt.transient.steps",          "ckt.newton.iters",
    "ckt.dc.newton_iters",    "linalg.sparselu.solves",       "linalg.sparselu.walk_entries",
    "spec.scan.runs",         "spec.scan.skipped_points",     "spec.adaptive.runs",
    "robust.retry.attempts",  "robust.retry.recovered"};

/// Spans one round emits, estimated from its counters (one span per
/// step, Newton iteration / factorization, DC iteration, transient, scan
/// and corner-level wrapper).
std::uint64_t estimated_spans(const std::map<std::string, double>& d, std::size_t rounds,
                              std::size_t corners_per_round) {
  const double per =
      per_round(d.at("ckt.transient.steps") + 2 * d.at("ckt.newton.iters") +
                    2 * d.at("ckt.dc.newton_iters") + 4 * d.at("ckt.transient.runs") +
                    d.at("spec.scan.runs") + d.at("spec.adaptive.runs"),
                rounds);
  return static_cast<std::uint64_t>(per) + 6 * corners_per_round + 64;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  try {
    args = parse_args(argc, argv);
    w = make_workload(args.workload, args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "corner_bench: %s\n", e.what());
    return 2;
  }

  try {
    std::filesystem::create_directories(args.work_dir);
    const std::string journal_path =
        args.work_dir + "/journal-" + w.name + "-" + std::to_string(getpid()) + ".jsonl";
    Checks checks;

    // ---- set-up: estimation + grid/config build, repeated for a median
    std::vector<double> setup_s;
    std::unique_ptr<Setup> s;
    const int setups = args.trace ? 1 : kSetupRepeats;
    double traced_estimate_s = 0.0;  // the bench.estimate span of a traced set-up
    std::uint64_t setup_spans = 0, setup_dropped = 0;
    for (int k = 0; k < setups; ++k) {
      const auto t0 = Clock::now();
      if (args.trace) {
        // The traced set-up: one thread, so one ring holds all its spans.
        obs::Tracer tracer(kSetupRing);
        tracer.install();
        s = set_up(w);
        tracer.uninstall();
        const obs::Profile p = obs::Profile::build(tracer);
        const auto it = p.spans().find("bench.estimate");
        if (it != p.spans().end())
          traced_estimate_s = 1e-9 * static_cast<double>(it->second.total_ns);
        setup_spans = p.events();
        setup_dropped = p.dropped_events();
      } else {
        s = set_up(w);
      }
      setup_s.push_back(seconds_since(t0));
      std::fprintf(stderr, "set-up %d: %.3f s (estimation %.3f s)\n", k + 1, setup_s.back(),
                   s->estimate_s);
    }
    const std::size_t transient_keys = distinct_transients(s->grid);
    const std::size_t corners = s->grid.size();
    std::fprintf(stderr, "workload %s, seed %llu: %zu corners, %zu transients per sweep\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed), corners,
                 transient_keys);

    // ---- warm-up: one untimed macromodel sweep fills caches and the
    // allocator's pools before the first timed round
    run_sweep(s->grid, s->macro_fn, w.journal ? journal_path : "");

    // ---- timed rounds (tracing off)
    std::vector<double> cps, latency_ms;
    std::optional<Round> first_round;
    const CounterWindow untraced_counters(kCounters);
    const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
    const std::size_t min_samples = args.trace ? 0 : w.min_samples;
    {
      const auto t0 = Clock::now();
      while (cps.empty() || latency_ms.size() < min_samples ||
             seconds_since(t0) < untraced_s) {
        Round r = run_round(w, *s, journal_path);
        check_round(r, first_round ? *first_round : r, transient_keys, checks);
        cps.push_back(static_cast<double>(corners) / r.wall_s());
        std::fprintf(stderr, "round %zu: %.3f s\n", cps.size(), r.wall_s());
        corner_latencies_ms(r, latency_ms);
        if (!first_round) first_round = std::move(r);
        if (seconds_since(t0) > 4 * untraced_s + 60) break;  // a stalled host
      }
    }
    const auto untraced_d = untraced_counters.deltas();
    const std::size_t untraced_rounds = cps.size();
    std::fprintf(stderr,
                 "per round: %.0f transients, %.0f steps, %.0f Newton iterations, %.0f receiver "
                 "measurements; corners/s min %.4g median %.4g max %.4g over %zu rounds\n",
                 per_round(untraced_d.at("ckt.transient.runs"), untraced_rounds),
                 per_round(untraced_d.at("ckt.transient.steps"), untraced_rounds),
                 per_round(untraced_d.at("ckt.newton.iters"), untraced_rounds),
                 per_round(untraced_d.at("spec.scan.runs"), untraced_rounds),
                 *std::min_element(cps.begin(), cps.end()), perfbench::median(cps),
                 *std::max_element(cps.begin(), cps.end()), untraced_rounds);
    const Round& first = *first_round;

    // ---- reference scoring: verdict_reference swept the reference in every
    // round; the other workloads sign off a sub-grid once, untimed, where
    // a figure needs it (committed verdicts at the default seed, or the
    // traced run's verdict metrics).
    const sweep::SweepOutcome* scored_macro = &first.macro.out;
    const sweep::SweepOutcome* reference_out =
        first.reference ? &first.reference->out : nullptr;
    std::optional<SweepRun> signoff_macro, signoff_reference;
    if (!reference_out && (args.trace || args.seed == kDefaultSeed)) {
      const std::size_t keys = distinct_transients(s->signoff_grid);
      signoff_reference = run_sweep(s->signoff_grid, s->reference_fn, "");
      tally(*signoff_reference, keys, checks);
      reference_out = &signoff_reference->out;
      if (s->signoff_grid.size() != corners) {
        signoff_macro = run_sweep(s->signoff_grid, s->macro_fn, "");
        tally(*signoff_macro, keys, checks);
        scored_macro = &signoff_macro->out;
      }
    }

    if (!args.write_expected_dir.empty()) {
      if (args.seed != kDefaultSeed || args.trace)
        throw std::invalid_argument("--write-expected needs the default seed and --trace 0");
      std::string doc = "{\"workload\": \"" + w.name + "\", \"seed\": " +
                        std::to_string(kDefaultSeed) + ", \"margin_tolerance_db\": " +
                        std::to_string(kMarginTolDb) + ",\n\"macromodel\": " +
                        verdicts_json(first.macro.out);
      if (signoff_macro)
        doc += ",\n\"signoff_macromodel\": " + verdicts_json(signoff_macro->out);
      doc += ",\n\"reference\": " + verdicts_json(*reference_out) + "}\n";
      const std::string path = args.write_expected_dir + "/" + w.name + ".json";
      std::FILE* f = std::fopen(path.c_str(), "w");
      const bool ok = f && std::fputs(doc.c_str(), f) >= 0;
      if (!f || std::fclose(f) != 0 || !ok) throw std::runtime_error("cannot write " + path);
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    } else if (args.seed == kDefaultSeed) {
      if (args.expected_dir.empty())
        throw std::invalid_argument("the default seed needs --expected DIR");
      const obs::Json exp_doc =
          obs::Json::parse_file(args.expected_dir + "/" + w.name + ".json");
      check_expected(exp_doc.at("macromodel"), first.macro.out, "macromodel", checks);
      if (signoff_macro)
        check_expected(exp_doc.at("signoff_macromodel"), signoff_macro->out,
                       "sign-off macromodel", checks);
      if (reference_out)
        check_expected(exp_doc.at("reference"), *reference_out, "reference", checks);
    }

    std::optional<Agreement> agreement;
    if (reference_out) {
      agreement = score(*scored_macro, *reference_out);
      if (agreement->corners == 0) checks.fail("no corner scored against the reference");
      std::fprintf(stderr,
                   "reference vs macromodel on %zu corners: %zu verdicts agree, %zu worst "
                   "frequencies within one RBW, max |d margin| %.3f dB\n",
                   agreement->corners, agreement->verdicts_agree, agreement->freq_match,
                   agreement->max_margin_err_db);
    }

    std::vector<Metric> metrics;
    if (!args.trace) {
      const auto tail = perfbench::highest_reportable_percentile(latency_ms.size());
      std::fprintf(stderr,
                   "%zu timed rounds; %zu corner latency samples (highest percentile with "
                   ">= 10 samples beyond: %s)\n",
                   untraced_rounds, latency_ms.size(),
                   tail ? std::to_string(*tail).c_str() : "none, p90 is indicative only");
      // The median is taken over the grid's corners, each at its mean over
      // the rounds: a pooled median of single runs lands in whichever of
      // the host's fast and slow phases held the larger share of the run.
      const std::vector<double> corner_means = perfbench::strided_means(latency_ms, corners);
      std::fprintf(stderr, "corner_ms_p50: median of %zu corners, each a mean over %zu rounds%s\n",
                   corners, untraced_rounds,
                   corners < 20 ? " (fewer than 10 beyond, indicative only)" : "");
      metrics = {
          {"setup_s", perfbench::median(setup_s), "s"},
          {"corners_per_s", perfbench::median(cps), "1/s"},
          {"corner_ms_p50", perfbench::median(corner_means), "ms"},
          {"corner_ms_p90", perfbench::quantile(latency_ms, 0.9), "ms"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
      };
    } else {
      // ---- traced rounds: one tracer per round, sized from the counters
      const std::uint64_t spans_per_round =
          estimated_spans(untraced_d, untraced_rounds, corners);
      const CounterWindow traced_counters(kCounters);
      perfbench::TraceTotals lt;
      std::vector<double> traced_cps;
      double busy_ns = 0, idle_ns = 0;
      std::uint64_t journal_bytes = 0;
      std::size_t memo_hits = 0, scored = 0;
      double detector_passes = 0, refined = 0, crossings = 0, record_bytes = 0;
      const auto t0 = Clock::now();
      while (traced_cps.empty() || seconds_since(t0) < args.seconds / 2) {
        obs::Tracer tracer(ring_capacity(spans_per_round));
        tracer.install();
        Round r = run_round(w, *s, journal_path);
        tracer.uninstall();
        check_round(r, first, transient_keys, checks);
        traced_cps.push_back(static_cast<double>(corners) / r.wall_s());
        lt.add(obs::Profile::build(tracer));
        for (const SweepRun* sw : r.sweeps()) {
          for (const auto& ws : sw->out.workers) {
            busy_ns += static_cast<double>(ws.busy_ns);
            idle_ns += static_cast<double>(ws.idle_ns);
          }
          for (const auto& cr : sw->out.results) memo_hits += cr.transient_reused;
          scored += sw->out.results.size();
          detector_passes += static_cast<double>(sw->out.summary.scan_detector_passes);
          refined += static_cast<double>(sw->out.summary.scan_refined_points);
          crossings += static_cast<double>(sw->out.summary.scan_crossings);
          record_bytes = std::max(
              record_bytes, static_cast<double>(sw->out.summary.peak_streamed_record_bytes));
          journal_bytes = std::max<std::uint64_t>(journal_bytes, sw->journal_bytes);
        }
        if (seconds_since(t0) > 2 * args.seconds + 60) break;
      }
      if (lt.dropped + setup_dropped != 0)
        checks.fail("the tracer dropped " + std::to_string(lt.dropped + setup_dropped) +
                    " spans");
      std::fprintf(stderr, "traced set-up: %llu spans\n",
                   static_cast<unsigned long long>(setup_spans));
      const auto d = traced_counters.deltas();
      const std::size_t n = lt.rounds;
      const auto pr = [&](double v) { return per_round(v, n); };
      const double steps = d.at("ckt.transient.steps");
      const double scan_s = pr(static_cast<double>(lt.scan_ns) * 1e-9);
      metrics = {
          {"ident.estimate_s", traced_estimate_s, "s"},
          {"circuit.transients", pr(d.at("ckt.transient.runs")), "count"},
          {"circuit.steps", pr(steps), "count"},
          {"circuit.newton_iters", pr(d.at("ckt.newton.iters")), "count"},
          {"circuit.newton_iters_per_step", steps > 0 ? d.at("ckt.newton.iters") / steps : 0.0,
           "count"},
          {"circuit.dc_newton_iters", pr(d.at("ckt.dc.newton_iters")), "count"},
          {"circuit.transient_s", pr(static_cast<double>(lt.transient_ns) * 1e-9), "s"},
          {"circuit.newton_step_self_s", pr(static_cast<double>(lt.newton_self_ns) * 1e-9),
           "s"},
          {"circuit.dc_s", pr(static_cast<double>(lt.dc_ns) * 1e-9), "s"},
          {"circuit.self_frac", lt.self_frac("circuit"), "1"},
          {"linalg.factorizations", pr(static_cast<double>(lt.factors)), "count"},
          {"linalg.factors_per_step", steps > 0 ? static_cast<double>(lt.factors) / steps : 0.0,
           "count"},
          {"linalg.factor_s", pr(static_cast<double>(lt.factor_ns) * 1e-9), "s"},
          {"linalg.solves", pr(d.at("linalg.sparselu.solves")), "count"},
          {"linalg.walk_entries", pr(d.at("linalg.sparselu.walk_entries")), "count"},
          {"linalg.self_frac", lt.self_frac("linalg"), "1"},
          {"emc.scans", pr(d.at("spec.scan.runs")), "count"},
          {"emc.detector_passes", pr(detector_passes), "count"},
          {"emc.refined_points", pr(refined), "count"},
          {"emc.crossings", pr(crossings), "count"},
          {"emc.scan_s", scan_s, "s"},
          {"emc.us_per_pass", detector_passes > 0 ? 1e6 * scan_s / pr(detector_passes) : 0.0,
           "us"},
          {"emc.skipped_points", pr(d.at("spec.scan.skipped_points")), "count"},
          {"emc.self_frac", lt.self_frac("emc"), "1"},
          {"sweep.corners", pr(static_cast<double>(scored)), "count"},
          {"sweep.memo_hit_frac",
           scored ? static_cast<double>(memo_hits) / static_cast<double>(scored) : 0.0, "1"},
          {"sweep.worker_busy_frac", busy_ns + idle_ns > 0 ? busy_ns / (busy_ns + idle_ns) : 0.0,
           "1"},
          {"sweep.worker_idle_s", pr(idle_ns * 1e-9), "s"},
          {"sweep.corner_self_s", pr(static_cast<double>(lt.glue_self_ns) * 1e-9), "s"},
          {"sweep.self_frac", lt.self_frac("sweep"), "1"},
          {"robust.retry_attempts", pr(d.at("robust.retry.attempts")), "count"},
          {"robust.recovered", pr(d.at("robust.retry.recovered")), "count"},
          {"robust.journal_bytes", static_cast<double>(journal_bytes), "B"},
          {"robust.solver_failed_frac",
           checks.attempted ? static_cast<double>(checks.failed) /
                                  static_cast<double>(checks.attempted)
                            : 0.0,
           "1"},
          {"signal.record_bytes_peak", record_bytes, "B"},
          {"obs.spans", pr(static_cast<double>(lt.spans)), "count"},
          {"obs.dropped_spans", static_cast<double>(lt.dropped + setup_dropped), "count"},
          {"obs.span_coverage_frac", lt.coverage(), "1"},
          {"obs.trace_overhead_frac",
           1.0 - perfbench::median(traced_cps) / perfbench::median(cps), "1"},
          {"verdict.agree_frac", agreement->agree_frac(), "1"},
          {"verdict.margin_err_db", agreement->max_margin_err_db, "dB"},
          {"verdict.worst_freq_match_frac", agreement->freq_match_frac(), "1"},
      };
      std::fprintf(stderr,
                   "traced %zu rounds: self-time split circuit %.1f%% linalg %.1f%% emc %.1f%% "
                   "sweep %.1f%% other %.1f%%\n",
                   n, 100 * lt.self_frac("circuit"), 100 * lt.self_frac("linalg"),
                   100 * lt.self_frac("emc"), 100 * lt.self_frac("sweep"), 100 * lt.self_frac("other"));
    }

    std::fprintf(stderr, "corners attempted %ld, solver-failed %ld (solver_failed_frac %.4f)\n",
                 checks.attempted, checks.failed,
                 static_cast<double>(checks.failed) /
                     static_cast<double>(std::max(1L, checks.attempted)));
    for (const Metric& m : metrics)
      std::fprintf(stderr, "  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%s\n", perfbench::result_line(checks.ok, checks.attempted, checks.failed,
                                               metrics)
                            .c_str());
    return checks.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "corner_bench: %s\n", e.what());
    return 1;
  }
}

// Heap-allocation contract of the transient engine: once a NewtonWorkspace
// has served one run, a same-topology transient performs no heap
// allocation per time step. What remains is per-run set-up (patterns,
// port set, operating point, post_dc seeding) and the amortised growth of
// the transmission lines' wave histories, so the total stays below one
// allocation per step on average.
//
// This translation unit replaces the global operator new to count every
// allocation the process makes; keep it a test binary of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tline.hpp"
#include "core/circuit_dut.hpp"
#include "core/driver_device.hpp"
#include "core/driver_estimator.hpp"
#include "core/receiver_device.hpp"
#include "signal/sample_sink.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t al) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return or_throw(counted_malloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_malloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) { return or_throw(counted_aligned(n, al)); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned(n, al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace emc;

constexpr double kTs = 25e-12;

struct RunCount {
  std::uint64_t allocs = 0;
  long steps = 0;
};

/// Build a fresh circuit with `build` (allocations not counted), then count
/// the allocations of one streamed transient on the reused workspace.
template <class Build>
RunCount counted_run(const Build& build, const ckt::TransientOptions& opt,
                     ckt::NewtonWorkspace& ws) {
  ckt::Circuit c;
  const int probe = build(c);
  const int probes[] = {probe};
  sig::NullSink sink;
  const std::uint64_t before = g_allocs.load();
  const ckt::SolveStats stats = ckt::run_transient_streamed(c, opt, ws, probes, sink);
  RunCount rc;
  rc.allocs = g_allocs.load() - before;
  rc.steps = stats.steps;
  return rc;
}

ckt::CoupledLineParams bus_line(double length) {
  ckt::CoupledLineParams p;
  p.l = linalg::Matrix{{466e-9, 66e-9}, {66e-9, 466e-9}};
  p.c = linalg::Matrix{{66e-12, -6.6e-12}, {-6.6e-12, 66e-12}};
  p.length = length;
  p.loss.rdc = 66.0;
  p.loss.rskin = 1.6e-3;
  p.loss.tan_delta = 0.001;
  p.loss.f_ref = 1e9;
  return p;
}

/// One estimated PW-RBF driver model (reduced identification budget:
/// fidelity is not under test here).
class AllocFree : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const core::CircuitDriverDut dut(dev::DriverTech::md1_lvc244());
    core::DriverEstimationOptions eo;
    eo.n_steps = 60;
    eo.max_basis_high = 12;
    eo.max_basis_low = 12;
    model_ = new core::PwRbfDriverModel(core::estimate_driver_model(dut, eo));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  /// The sweep's emission corner: an aggressor and a quiet victim driver
  /// on a lossy coupled line with capacitive far ends. Returns the
  /// aggressor's far end.
  static int emission_corner(ckt::Circuit& c, const std::string& bits) {
    const int a1 = c.node();
    const int a2 = c.node();
    const int b1 = c.node();
    const int b2 = c.node();
    ckt::add_coupled_lossy_line(c, {a1, a2}, {b1, b2}, bus_line(0.1), kTs, 0);
    c.add<ckt::Capacitor>(b1, c.ground(), 1e-12);
    c.add<ckt::Capacitor>(b2, c.ground(), 1e-12);
    c.add<core::DriverDevice>(a1, *model_, bits, 1e-9);
    c.add<core::DriverDevice>(a2, *model_, std::string(bits.size(), '0'), 1e-9);
    return b1;
  }

  static core::PwRbfDriverModel* model_;
};

core::PwRbfDriverModel* AllocFree::model_ = nullptr;

ckt::TransientOptions options(std::size_t steps) {
  ckt::TransientOptions opt;
  opt.dt = kTs;
  opt.t_stop = kTs * static_cast<double>(steps);
  return opt;
}

}  // namespace

TEST_F(AllocFree, EmissionCornerBelowOneAllocationPerStep) {
  // Three periods of a 15-bit pattern at 1 ns per bit: 1,800 steps.
  std::string bits;
  for (int p = 0; p < 3; ++p) bits += "011010001101110";
  const auto build = [&](ckt::Circuit& c) { return emission_corner(c, bits); };
  const auto opt = options(1800);

  ckt::NewtonWorkspace ws;
  counted_run(build, opt, ws);  // sizes the workspace
  const RunCount rc = counted_run(build, opt, ws);
  ASSERT_EQ(rc.steps, 1800);
  EXPECT_EQ(ws.sp_tr.use_ports, 1);
  std::printf("emission corner: %llu allocations over %ld steps\n",
              static_cast<unsigned long long>(rc.allocs), rc.steps);
  EXPECT_LT(rc.allocs, static_cast<std::uint64_t>(rc.steps));

  // Twice the steps adds only the wave histories' amortised doublings,
  // nowhere near one allocation per extra step.
  const RunCount twice = counted_run(build, options(3600), ws);
  ASSERT_EQ(twice.steps, 3600);
  EXPECT_LT(twice.allocs - rc.allocs, 1800u / 8);
}

TEST(AllocFreeReceiver, ReceiverLoadedLineBelowOneAllocationPerStep) {
  // Parametric receiver (ARX + both clamp submodels) at the far end of a
  // single lossy line driven by a trapezoidal source.
  core::ParametricReceiverModel rx;
  rx.ts = kTs;
  rx.vdd = 1.8;
  rx.nl_taps = 2;
  rx.lin.b = {0.04, -0.04};
  rx.lin.a = {0.1};
  const ident::Scaler sc({0.0, 0.0}, {1.0, 1.0});
  linalg::Matrix up_c(1, 2), dn_c(1, 2);
  up_c(0, 0) = 2.2;
  dn_c(0, 0) = -0.4;
  rx.up = ident::RbfModel(sc, up_c, {0.01}, 0.0, 0.3);
  rx.dn = ident::RbfModel(sc, dn_c, {-0.01}, 0.0, 0.3);

  const auto build = [&](ckt::Circuit& c) {
    const int src = c.node();
    const int near = c.node();
    const int pin = c.node();
    c.add<ckt::VSource>(src, c.ground(), [](double t) {
      // 4 ns period: 0.5 ns edges, 1.5 ns high.
      const double ph = std::fmod(t, 4e-9) / 0.5e-9;
      return 1.8 * std::clamp(std::min(ph, 5.0 - ph), 0.0, 1.0);
    });
    c.add<ckt::Resistor>(src, near, 30.0);
    ckt::CoupledLineParams line;
    line.l = linalg::Matrix{{400e-9}};
    line.c = linalg::Matrix{{100e-12}};
    line.length = 0.1;
    line.loss.rdc = 20.0;
    ckt::add_coupled_lossy_line(c, {near}, {pin}, line, kTs, 0);
    c.add<core::ReceiverDevice>(pin, rx);
    return pin;
  };
  // Port-reduced, then the full-system Newton loop (restamp and refactor
  // every iteration): neither allocates per step.
  for (const bool port_reduced : {true, false}) {
    auto opt = options(1800);
    opt.cache_lu = port_reduced;
    ckt::NewtonWorkspace ws;
    counted_run(build, opt, ws);
    const RunCount rc = counted_run(build, opt, ws);
    ASSERT_EQ(rc.steps, 1800);
    EXPECT_EQ(ws.sp_tr.use_ports, port_reduced ? 1 : -1);
    std::printf("receiver line (%s): %llu allocations over %ld steps\n",
                port_reduced ? "port-reduced" : "full-system",
                static_cast<unsigned long long>(rc.allocs), rc.steps);
    EXPECT_LT(rc.allocs, static_cast<std::uint64_t>(rc.steps));
    opt.t_stop *= 2.0;
    const RunCount twice = counted_run(build, opt, ws);
    ASSERT_EQ(twice.steps, 3600);
    EXPECT_LT(twice.allocs - rc.allocs, 1800u / 8);
  }
}

// Transistor-level counterpart of sweep::make_emission_corner_fn: the same
// coupled-bus corner (lossy line, far-end loads, aggressor repeating the
// scenario's pattern, victim held Low, steady window after the first
// period, supply scaling, swept receiver, mask check), with both ports
// driven by dev::build_reference_driver instead of the PW-RBF macromodel.
// Sweeping one grid through both functions measures how often the
// macromodel reaches the reference's compliance verdict.
#pragma once

#include "devices/reference_driver.hpp"
#include "sweep/sweep_runner.hpp"

namespace perfbench {

/// Corner function over `cfg`'s line, bit time, periods, step, receiver,
/// mask and scan plan (cfg.model is ignored). There is no retry ladder: a
/// reference solve that fails is isolated by the sweep and counted as
/// failed. Corners sharing a transient key reuse the worker's record memo,
/// as the macromodel pipeline does. The
/// benchmark's own spans wrap the transient ("bench.ref.transient"), the
/// receiver scan ("bench.ref.scan", covering the mask check on the
/// adaptive plan) and the fixed plan's mask check ("bench.ref.compliance").
emc::sweep::CornerFn make_reference_corner_fn(const emc::sweep::EmissionSweepConfig& cfg,
                                              const emc::dev::DriverTech& tech);

}  // namespace perfbench

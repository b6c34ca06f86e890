// Estimation of the receiver macromodel (paper Section 3):
//  * linear ARX submodel from small steps inside the supply range,
//  * up / down clamp RBF submodels from multilevel records beyond each
//    rail, fitted on the residual after subtracting the linear part; the
//    kernel width is selected through ident::fit_rbf_best, scored on the
//    held-out last quarter of each record,
//  * and the baseline C-R model (capacitance from the linear record,
//    static resistor from a DC sweep).
#pragma once

#include <cstdint>

#include "core/dut.hpp"
#include "core/receiver_model.hpp"

namespace emc::core {

struct ReceiverEstimationOptions {
  int lin_order = 2;        ///< ARX orders (na = nb = lin_order)
  int nl_taps = 2;          ///< voltage taps of the clamp submodels
  int max_basis_clamp = 8;  ///< RBF size per clamp
  double ts = 25e-12;
  double rs = 25.0;         ///< source resistance of identification fixtures
  double v_beyond = 1.2;    ///< how far beyond a rail the clamp records go [V]
  double lin_lo = 0.1;      ///< linear record range [lin_lo, lin_hi]*vdd
  double lin_hi = 0.9;
  int n_steps = 60;
  int n_levels = 7;
  double t_hold = 1.0e-9;
  double t_edge = 0.1e-9;
  std::uint64_t seed = 515;
};

/// Full parametric model estimation.
ParametricReceiverModel estimate_receiver_model(const ReceiverDut& dut,
                                                const ReceiverEstimationOptions& opt = {});

/// Baseline C-R model estimation from the same DUT.
CrReceiverModel estimate_cr_model(const ReceiverDut& dut,
                                  const ReceiverEstimationOptions& opt = {});

}  // namespace emc::core

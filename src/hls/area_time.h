// Area and timing estimation for generated netlists.
//
// The paper reports CLB slices and clock rates from a Synopsys + Xilinx
// flow we obviously cannot run; this model charges calibrated slice counts
// per functional unit, register, multiplexer input, FSM step and constant,
// and derives fmax from the slowest control step (mux levels + unit delay +
// interconnect + setup). Constants are calibrated to land the plain 8-tap
// 16-bit FIR near the paper's 412 slices / 20 MHz; what the experiments
// then compare is the *relative* cost of the self-checking variants, which
// is where the model's value lies.
#pragma once

#include <string>

#include "hls/netlist.h"

namespace sck::hls {

struct AreaTimeParams {
  // Slice costs.
  double addsub_slices_per_bit = 0.5;
  double mul_slices_16bit = 200.0;  ///< scaled by (width/16)^2
  double divrem_slices_per_bit = 2.5;
  double cmp_slices_per_bit = 0.3;
  double logic_gate_slices = 0.5;
  double reg_slices_per_bit = 0.5;
  double mux_slices_per_input_bit = 0.5;  ///< per extra source, per bit
  double fsm_base_slices = 4.0;
  double fsm_slices_per_step = 0.6;
  double rom_slices_per_const = 1.0;

  // Delays (ns).
  double addsub_delay_ns = 18.0;
  double mul_delay_ns = 40.0;
  double divrem_delay_ns = 60.0;
  double cmp_delay_ns = 8.0;
  double logic_delay_ns = 1.5;
  double mux_delay_per_level_ns = 2.5;
  double interconnect_per_log2_cell_ns = 1.2;
  double setup_ns = 4.0;
};

/// Synthesis quality report for one netlist.
struct HwReport {
  int steps = 0;           ///< control steps per sample (initiation interval)
  int data_ready_step = 0; ///< step after which every data output is valid
  double slices = 0.0;     ///< estimated CLB slices
  double fmax_mhz = 0.0;
  double slices_fu = 0.0;
  double slices_reg = 0.0;
  double slices_mux = 0.0;
  double slices_ctrl = 0.0;  ///< FSM + constant ROM
  std::string latency_formula;  ///< e.g. "2 + 9n"
};

[[nodiscard]] HwReport evaluate_netlist(const Netlist& nl,
                                        const AreaTimeParams& params = {});

}  // namespace sck::hls

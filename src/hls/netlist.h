// Structural RTL netlist produced by synthesis (schedule + binding), and
// the microcode view that drives both the cycle-accurate simulator and the
// Verilog emitter — they are generated from the same tables, so what the
// simulator validates is what the emitter writes.
//
// Datapath model: functional units with input multiplexers, a register
// file (shared + architectural registers), a constant ROM and an FSM that
// sequences `num_steps` control steps per sample. Values produced in step
// s are latched at the end of s and consumed from registers in later
// steps; 1-bit error glue is combinational within its step (wire reads).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hls/bind.h"
#include "hls/dfg.h"
#include "hls/schedule.h"

namespace sck::hls {

/// A multiplexer input: where an FU port or register load takes its value.
struct Operand {
  enum class Kind : unsigned char {
    kNone,   ///< unconnected (unary ops' second port)
    kReg,    ///< register file entry
    kConst,  ///< constant ROM literal
    kInput,  ///< primary input port (latched for the iteration)
    kWire,   ///< same-step combinational result of another micro-op
  };
  Kind kind = Kind::kNone;
  int index = -1;       ///< register index / input index / producer NodeId
  long long value = 0;  ///< kConst literal

  friend bool operator==(const Operand&, const Operand&) = default;
};
[[nodiscard]] constexpr Operand::Kind enum_last(Operand::Kind) {
  return Operand::Kind::kWire;
}

/// One row of the FSM's microcode: in control step `step`, functional unit
/// `fu` (or combinational glue when fu < 0) executes `op` on the resolved
/// operands and, if dst_reg >= 0, latches the result.
struct MicroOp {
  int step = 0;
  NodeId node = kNoNode;
  Op op = Op::kAdd;
  int fu = -1;
  std::array<Operand, 2> src{};
  int dst_reg = -1;

  friend bool operator==(const MicroOp&, const MicroOp&) = default;
};

struct OutputPort {
  std::string name;
  Operand source;  ///< register (usual case) or pass-through operand

  friend bool operator==(const OutputPort&, const OutputPort&) = default;
};

/// End-of-iteration load of an architectural (state) register.
struct StateLoad {
  int dst_reg = -1;
  Operand source;

  friend bool operator==(const StateLoad&, const StateLoad&) = default;
};

struct Netlist {
  std::string name = "datapath";
  int data_width = 16;
  int num_steps = 0;
  std::vector<FuInstance> fus;
  std::vector<RegisterInfo> regs;
  std::vector<std::string> input_names;
  std::vector<OutputPort> outputs;
  std::vector<StateLoad> state_loads;
  std::vector<MicroOp> micro;  ///< ordered by (step, dataflow order)

  /// Distinct sources steering each FU input port (mux fan-in), and the
  /// number of distinct writers per register — the quantities the area
  /// model charges for.
  [[nodiscard]] std::vector<std::array<int, 2>> fu_port_fanins() const;
  [[nodiscard]] std::vector<int> reg_write_fanins() const;
};

/// Assemble the netlist from a scheduled, bound graph.
[[nodiscard]] Netlist generate_netlist(const Dfg& g, const Schedule& s,
                                       const Binding& b, std::string name);

}  // namespace sck::hls

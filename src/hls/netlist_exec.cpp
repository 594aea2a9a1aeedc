#include "hls/netlist_exec.h"

#include <algorithm>
#include <bit>

namespace sck::hls {

namespace {

/// Resolve one microcode operand against the compiled slot tables.
/// `wire_slot_of_node` maps a producer NodeId to its dense wire slot;
/// `wire_step` records the step each wire slot was written in (compile-time
/// replacement for the interpreter's stamp check).
ExecOperand resolve_operand(const Operand& op, const Netlist& netlist,
                            std::vector<Word>& const_pool,
                            const std::vector<std::int32_t>& wire_slot_of_node,
                            const std::vector<int>& wire_step,
                            int reading_step) {
  ExecOperand out;
  out.kind = op.kind;
  switch (op.kind) {
    case Operand::Kind::kNone:
      break;
    case Operand::Kind::kReg:
      SCK_EXPECTS(op.index >= 0 &&
                  static_cast<std::size_t>(op.index) < netlist.regs.size());
      out.index = op.index;
      break;
    case Operand::Kind::kInput:
      SCK_EXPECTS(op.index >= 0 && static_cast<std::size_t>(op.index) <
                                       netlist.input_names.size());
      out.index = op.index;
      break;
    case Operand::Kind::kConst: {
      // Pool distinct literals, pre-truncated to the data width (the
      // per-read from_signed of the interpreter, hoisted to compile time).
      const Word value = from_signed(op.value, netlist.data_width);
      const auto it = std::find(const_pool.begin(), const_pool.end(), value);
      out.index = static_cast<std::int32_t>(it - const_pool.begin());
      if (it == const_pool.end()) const_pool.push_back(value);
      break;
    }
    case Operand::Kind::kWire: {
      SCK_EXPECTS(op.index >= 0 && static_cast<std::size_t>(op.index) <
                                       wire_slot_of_node.size());
      const std::int32_t slot =
          wire_slot_of_node[static_cast<std::size_t>(op.index)];
      SCK_EXPECTS(slot >= 0 && "wire operand has no producer micro-op");
      SCK_EXPECTS(wire_step[static_cast<std::size_t>(slot)] == reading_step &&
                  "wire read outside the step that writes it");
      out.index = slot;
      break;
    }
  }
  return out;
}

}  // namespace

ExecPlan compile_execution_plan(const Netlist& netlist) {
  ExecPlan plan;
  plan.netlist = &netlist;
  plan.data_width = netlist.data_width;
  plan.num_steps = netlist.num_steps;
  plan.num_regs = static_cast<std::int32_t>(netlist.regs.size());
  plan.num_inputs = static_cast<std::int32_t>(netlist.input_names.size());

  // Dense wire numbering: one slot per producing micro-op, in stream order.
  NodeId max_node = -1;
  for (const MicroOp& m : netlist.micro) {
    max_node = std::max(max_node, m.node);
  }
  std::vector<std::int32_t> wire_slot_of_node(
      static_cast<std::size_t>(max_node + 1), -1);
  std::vector<int> wire_step;
  wire_step.reserve(netlist.micro.size());

  plan.ops.reserve(netlist.micro.size());
  plan.step_begin.assign(static_cast<std::size_t>(netlist.num_steps) + 1, 0);
  std::size_t cursor = 0;
  for (int step = 0; step < netlist.num_steps; ++step) {
    plan.step_begin[static_cast<std::size_t>(step)] =
        static_cast<std::uint32_t>(plan.ops.size());
    for (; cursor < netlist.micro.size() &&
           netlist.micro[cursor].step == step;
         ++cursor) {
      const MicroOp& m = netlist.micro[cursor];
      ExecOp op;
      op.op = m.op;
      op.fu = m.fu;
      op.dst_reg = m.dst_reg;
      op.width = m.fu >= 0 ? netlist.fus[static_cast<std::size_t>(m.fu)].width
                           : netlist.data_width;
      op.src0 = resolve_operand(m.src[0], netlist, plan.const_pool,
                                wire_slot_of_node, wire_step, step);
      op.src1 = resolve_operand(m.src[1], netlist, plan.const_pool,
                                wire_slot_of_node, wire_step, step);
      SCK_EXPECTS(m.node >= 0);
      SCK_EXPECTS(wire_slot_of_node[static_cast<std::size_t>(m.node)] == -1 &&
                  "node produced by two micro-ops");
      op.wire = static_cast<std::int32_t>(wire_step.size());
      wire_slot_of_node[static_cast<std::size_t>(m.node)] = op.wire;
      wire_step.push_back(step);
      plan.ops.push_back(op);
    }
    plan.step_begin[static_cast<std::size_t>(step) + 1] =
        static_cast<std::uint32_t>(plan.ops.size());
  }
  SCK_ENSURES(cursor == netlist.micro.size() &&
              "microcode rows outside [0, num_steps)");
  plan.num_wires = static_cast<std::int32_t>(wire_step.size());

  // Outputs and state loads read registers or final-step wires; both are
  // sampled after the last step, so a wire source must live in it.
  const int last_step = netlist.num_steps - 1;
  plan.outputs.reserve(netlist.outputs.size());
  for (std::size_t i = 0; i < netlist.outputs.size(); ++i) {
    plan.outputs.push_back(resolve_operand(netlist.outputs[i].source, netlist,
                                           plan.const_pool, wire_slot_of_node,
                                           wire_step, last_step));
    if (netlist.outputs[i].name == "error") {
      plan.error_output = static_cast<std::int32_t>(i);
    }
  }
  plan.state_loads.reserve(netlist.state_loads.size());
  for (const StateLoad& load : netlist.state_loads) {
    SCK_EXPECTS(load.dst_reg >= 0 && static_cast<std::size_t>(load.dst_reg) <
                                         netlist.regs.size());
    plan.state_loads.push_back(ExecPlan::StateLoad{
        load.dst_reg,
        resolve_operand(load.source, netlist, plan.const_pool,
                        wire_slot_of_node, wire_step, last_step)});
  }
  return plan;
}

FuBank::FuBank(const Netlist& netlist) {
  addsub_.resize(netlist.fus.size());
  mul_.resize(netlist.fus.size());
  div_.resize(netlist.fus.size());
  for (std::size_t f = 0; f < netlist.fus.size(); ++f) {
    const FuInstance& fu = netlist.fus[f];
    switch (fu.cls) {
      case ResourceClass::kAddSub:
        addsub_[f] = std::make_unique<hw::RippleCarryAdder>(fu.width);
        break;
      case ResourceClass::kMul:
        mul_[f] = std::make_unique<hw::ArrayMultiplier>(fu.width);
        break;
      case ResourceClass::kDivRem:
        div_[f] = std::make_unique<hw::RestoringDivider>(fu.width);
        break;
      case ResourceClass::kCmp:
      case ResourceClass::kLogic:
        break;  // checker-side, host-evaluated
    }
  }
}

hw::FaultableUnit* FuBank::unit(int fu_index) const {
  SCK_EXPECTS(fu_index >= 0 &&
              static_cast<std::size_t>(fu_index) < addsub_.size());
  const auto f = static_cast<std::size_t>(fu_index);
  if (addsub_[f]) return addsub_[f].get();
  if (mul_[f]) return mul_[f].get();
  if (div_[f]) return div_[f].get();
  return nullptr;
}

void FuBank::set_fault(int fu_index, const hw::FaultSite& fault) {
  hw::FaultableUnit* u = unit(fu_index);
  if (u == nullptr) {
    SCK_EXPECTS(!fault.active() && "checker-side units accept no faults");
    return;
  }
  u->set_fault(fault);
}

std::vector<hw::FaultSite> FuBank::fault_universe(int fu_index) const {
  const hw::FaultableUnit* u = unit(fu_index);
  return u == nullptr ? std::vector<hw::FaultSite>{} : u->fault_universe();
}

FaultCones::FaultCones(const ExecPlan& plan, bool include_seu)
    : num_fus_(static_cast<int>(plan.netlist->fus.size())),
      num_steps_(plan.num_steps),
      words_((plan.ops.size() + 63) / 64),
      reg_words_((static_cast<std::size_t>(plan.num_regs) + 63) / 64) {
  // Wire slot -> producing op index (wire slots happen to be allocated in
  // op order, but derive the map rather than rely on it).
  std::vector<std::uint32_t> producer(static_cast<std::size_t>(plan.num_wires),
                                      0);
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    producer[static_cast<std::size_t>(plan.ops[i].wire)] =
        static_cast<std::uint32_t>(i);
  }

  const std::size_t fences = static_cast<std::size_t>(num_steps_) + 1;
  const std::size_t num_regs = static_cast<std::size_t>(plan.num_regs);
  masks_.assign(static_cast<std::size_t>(num_fus_) * words_, 0);
  reg_masks_.assign(static_cast<std::size_t>(num_fus_) * fences * reg_words_,
                    0);
  if (include_seu) {
    num_seu_regs_ = plan.num_regs;
    seu_masks_.assign(num_regs * words_, 0);
    seu_reg_masks_.assign(num_regs * fences * reg_words_, 0);
  }
  std::vector<char> op_taint(plan.ops.size());
  // reg_taint[s * num_regs + r]: register r diverges at fence s (fence s =
  // the register file step s's ops read; fence num_steps_ = what outputs
  // and state-load sources read).
  std::vector<char> reg_taint(fences * num_regs);

  // One fixpoint per seed. `seed_op(op)` marks the ops that originate
  // divergence (the faulted FU's ops, or — for an SEU cone — every writer
  // of the struck register, so its batch slot is refreshed by an executing
  // op at each write point); `forced_reg` (or -1) is held tainted at every
  // fence (the struck register itself: the flip corrupts it outside any
  // op, so no golden write may ever splice it back).
  const auto run_fixpoint = [&](const auto& seed_op, int forced_reg) {
    std::fill(op_taint.begin(), op_taint.end(), 0);
    std::fill(reg_taint.begin(), reg_taint.end(), 0);
    if (forced_reg >= 0) {
      for (std::size_t s = 0; s < fences; ++s) {
        reg_taint[s * num_regs + static_cast<std::size_t>(forced_reg)] = 1;
      }
    }
    const auto tainted_at = [&](const ExecOperand& s, std::size_t fence) {
      switch (s.kind) {
        case Operand::Kind::kWire:
          return op_taint[producer[static_cast<std::size_t>(s.index)]] != 0;
        case Operand::Kind::kReg:
          return reg_taint[fence * num_regs +
                           static_cast<std::size_t>(s.index)] != 0;
        default:
          return false;  // inputs/constants are fault-free by definition
      }
    };
    // Fence-granular forward pass, iterated to the cross-sample fixpoint:
    // a latch carries its op's taint to the NEXT fence — so a later golden
    // write to a shared register makes it clean again — and the state
    // loads (plus plain carry-over) feed fence 0 of the next iteration.
    // Fence-0 taint only ever grows, so the iteration converges.
    for (bool changed = true; changed;) {
      changed = false;
      for (int step = 0; step < num_steps_; ++step) {
        const auto fence = static_cast<std::size_t>(step);
        // Registers carry over by default; latches override below.
        std::copy(reg_taint.begin() +
                      static_cast<std::ptrdiff_t>(fence * num_regs),
                  reg_taint.begin() +
                      static_cast<std::ptrdiff_t>((fence + 1) * num_regs),
                  reg_taint.begin() +
                      static_cast<std::ptrdiff_t>((fence + 1) * num_regs));
        const std::uint32_t end =
            plan.step_begin[static_cast<std::size_t>(step) + 1];
        for (std::uint32_t i = plan.step_begin[static_cast<std::size_t>(step)];
             i < end; ++i) {
          const ExecOp& op = plan.ops[i];
          const bool t = seed_op(op) || tainted_at(op.src0, fence) ||
                         tainted_at(op.src1, fence);
          if (t && !op_taint[i]) {
            op_taint[i] = 1;
            changed = true;
          }
          if (op.dst_reg >= 0) {
            // Commit order within the step: the LAST writer wins, tainted
            // or golden (op_taint is sticky across iterations, so use the
            // current-pass taint `t` for the golden case).
            reg_taint[(fence + 1) * num_regs +
                      static_cast<std::size_t>(op.dst_reg)] =
                op_taint[i] != 0 || t || op.dst_reg == forced_reg;
          }
        }
      }
      // End-of-iteration state loads feed fence 0 of the next sample;
      // un-loaded registers carry their final-fence state over. Fence 0
      // grows monotonically (|=), which drives the fixpoint (the forced
      // register was seeded there and is never cleared).
      const std::size_t last = static_cast<std::size_t>(num_steps_) * num_regs;
      for (std::size_t r = 0; r < num_regs; ++r) {
        char next = reg_taint[last + r];
        for (const ExecPlan::StateLoad& load : plan.state_loads) {
          if (static_cast<std::size_t>(load.dst_reg) == r) {
            next = tainted_at(load.source,
                              static_cast<std::size_t>(num_steps_))
                       ? 1
                       : 0;
          }
        }
        if (static_cast<int>(r) == forced_reg) next = 1;
        if (next && !reg_taint[r]) {
          reg_taint[r] = 1;
          changed = true;
        }
      }
    }
  };

  const auto pack_masks = [&](std::uint64_t* mask, std::uint64_t* reg_mask) {
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
      if (op_taint[i]) mask[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
    for (std::size_t s = 0; s < fences; ++s) {
      for (std::size_t r = 0; r < num_regs; ++r) {
        if (reg_taint[s * num_regs + r]) {
          reg_mask[s * reg_words_ + (r >> 6)] |= std::uint64_t{1} << (r & 63);
        }
      }
    }
  };

  for (int fu = 0; fu < num_fus_; ++fu) {
    run_fixpoint([fu](const ExecOp& op) { return op.fu == fu; },
                 /*forced_reg=*/-1);
    pack_masks(masks_.data() + static_cast<std::size_t>(fu) * words_,
               reg_masks_.data() +
                   static_cast<std::size_t>(fu) * fences * reg_words_);
  }
  for (int reg = 0; reg < num_seu_regs_; ++reg) {
    run_fixpoint([reg](const ExecOp& op) { return op.dst_reg == reg; }, reg);
    pack_masks(seu_masks_.data() + static_cast<std::size_t>(reg) * words_,
               seu_reg_masks_.data() +
                   static_cast<std::size_t>(reg) * fences * reg_words_);
  }
}

std::size_t FaultCones::cone_op_count(int fu) const {
  std::size_t count = 0;
  for (const std::uint64_t w : op_cone(fu)) {
    count += static_cast<std::size_t>(std::popcount(w));
  }
  return count;
}

GoldenTrace record_golden_trace(const ExecPlan& plan,
                                std::span<const Word> input_stream,
                                int samples) {
  SCK_EXPECTS(samples > 0);
  SCK_EXPECTS(input_stream.size() ==
              static_cast<std::size_t>(samples) *
                  static_cast<std::size_t>(plan.num_inputs));
  GoldenTrace trace;
  trace.samples = samples;
  trace.num_steps = plan.num_steps;
  trace.num_inputs = plan.num_inputs;
  trace.num_wires = plan.num_wires;
  trace.num_regs = plan.num_regs;
  trace.inputs.assign(input_stream.begin(), input_stream.end());
  trace.wires.resize(static_cast<std::size_t>(samples) *
                     static_cast<std::size_t>(plan.num_wires));
  trace.regs.resize(static_cast<std::size_t>(samples) *
                    (static_cast<std::size_t>(plan.num_steps) + 1) *
                    static_cast<std::size_t>(plan.num_regs));

  // Snapshot the register file at every step fence (the splice points of
  // the incremental replay): fence 0 before the sample, the others from
  // run_plan_sample's per-fence callback.
  FuBank bank(*plan.netlist);  // fault-free
  ScalarExecSemantics sem(plan, bank);
  auto& st = sem.state;
  const auto snapshot_regs = [&](int k, int step_point) {
    std::copy(st.regs.begin(), st.regs.end(),
              trace.regs.begin() +
                  (static_cast<std::size_t>(k) *
                       (static_cast<std::size_t>(plan.num_steps) + 1) +
                   static_cast<std::size_t>(step_point)) *
                      static_cast<std::size_t>(plan.num_regs));
  };
  std::vector<Word> outputs(plan.outputs.size());
  for (int k = 0; k < samples; ++k) {
    const std::span<const Word> in = trace.sample_inputs(k);
    for (std::size_t i = 0; i < in.size(); ++i) {
      st.inputs[i] = trunc(in[i], plan.data_width);
    }
    snapshot_regs(k, 0);
    run_plan_sample(plan, sem, std::span<Word>(outputs),
                    [&](int step_point) { snapshot_regs(k, step_point); });
    // Every plan op wrote its wire slot, so the wire array holds exactly
    // this sample's values (the end-of-iteration state load writes
    // registers only).
    std::copy(st.wires.begin(), st.wires.end(),
              trace.wires.begin() + static_cast<std::size_t>(k) *
                                        static_cast<std::size_t>(
                                            plan.num_wires));
  }
  return trace;
}

namespace {

/// One empty lane-fault table per FU of `bank`, sized to its unit's cells
/// (checker-side FUs get an empty table that never holds a fault).
template <typename P>
std::vector<hw::LaneFaultSetT<P>> make_lane_tables(const FuBank& bank) {
  std::vector<hw::LaneFaultSetT<P>> tables;
  tables.reserve(bank.size());
  for (std::size_t f = 0; f < bank.size(); ++f) {
    const hw::FaultableUnit* u = bank.unit(static_cast<int>(f));
    tables.emplace_back(u == nullptr ? 0 : u->cell_count());
  }
  return tables;
}

}  // namespace

template <typename P>
LaneFaultCoreT<P>::LaneFaultCoreT(const Netlist& netlist)
    : owned_plan_(compile_execution_plan(netlist)),
      plan_(owned_plan_),
      bank_(netlist),
      lane_faults_(make_lane_tables<P>(bank_)),
      sem_(plan_, bank_) {}

template <typename P>
LaneFaultCoreT<P>::LaneFaultCoreT(const ExecPlan& plan)
    : plan_(plan),
      bank_(*plan.netlist),
      lane_faults_(make_lane_tables<P>(bank_)),
      sem_(plan_, bank_) {}

template <typename P>
void LaneFaultCoreT<P>::clear_lane_faults() {
  // Uninstall the non-empty tables from their units; clear() re-arms every
  // lane.
  for (std::size_t f = 0; f < lane_faults_.size(); ++f) {
    if (!lane_faults_[f].empty()) {
      bank_.unit(static_cast<int>(f))->set_lane_faults(nullptr);
    }
    lane_faults_[f].clear();
  }
}

template <typename P>
void LaneFaultCoreT<P>::add_lane_fault(int fu_index,
                                       const hw::FaultSite& fault,
                                       const P& lanes) {
  hw::FaultableUnit* u = bank_.unit(fu_index);
  SCK_EXPECTS(u != nullptr && "checker-side units accept no faults");
  hw::install_lane_fault(*u, lane_faults_[static_cast<std::size_t>(fu_index)],
                         fault, lanes);
}

template <typename P>
void LaneFaultCoreT<P>::arm_lane_faults(const P& armed) {
  // Architectural state (and thus residual divergence of disarmed lanes)
  // is untouched.
  for (hw::LaneFaultSetT<P>& table : lane_faults_) table.arm(armed);
}

template <typename P>
void NetlistBatchSimT<P>::step_sample_batch(
    std::span<const hw::BatchWordT<P>> inputs,
    std::span<hw::BatchWordT<P>> outputs) {
  auto& st = this->sem_.state;
  SCK_EXPECTS(inputs.size() == st.inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) st.inputs[i] = inputs[i];
  run_plan_sample(this->plan_, this->sem_, outputs);
}

template <typename P>
NetlistIncrementalSimT<P>::NetlistIncrementalSimT(const ExecPlan& plan,
                                                  const FaultCones& cones)
    : Core(plan),
      cones_(cones),
      seu_regs_(cones.reg_mask_words(), 0),
      producer_(static_cast<std::size_t>(plan.num_wires), 0),
      cone_(cones.mask_words(), 0),
      reg_cone_((static_cast<std::size_t>(plan.num_steps) + 1) *
                    cones.reg_mask_words(),
                0) {
  SCK_EXPECTS(cones.num_fus() ==
              static_cast<int>(plan.netlist->fus.size()));
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    producer_[static_cast<std::size_t>(plan.ops[i].wire)] =
        static_cast<std::uint32_t>(i);
  }
}

template <typename P>
void NetlistIncrementalSimT<P>::clear_lane_faults() {
  Core::clear_lane_faults();
  faults_.clear();
  seu_faults_.clear();
  std::fill(seu_regs_.begin(), seu_regs_.end(), 0);
  std::fill(cone_.begin(), cone_.end(), 0);
  std::fill(reg_cone_.begin(), reg_cone_.end(), 0);
  program_dirty_ = true;
}

template <typename P>
void NetlistIncrementalSimT<P>::add_lane_fault(int fu_index,
                                               const hw::FaultSite& fault,
                                               const P& lanes) {
  Core::add_lane_fault(fu_index, fault, lanes);
  faults_.push_back(InstalledFault{fu_index, lanes});
  or_cone(/*seu=*/false, fu_index);
  program_dirty_ = true;
}

template <typename P>
void NetlistIncrementalSimT<P>::add_lane_seu(int reg, int bit,
                                             const P& lanes) {
  SCK_EXPECTS(cones_.has_seu_cones() &&
              "construct FaultCones with include_seu for SEU campaigns");
  SCK_EXPECTS(reg >= 0 && reg < plan_.num_regs);
  SCK_EXPECTS(bit >= 0 && bit < kMaxWidth);
  seu_faults_.push_back(InstalledSeu{reg, bit, lanes});
  const auto r = static_cast<std::size_t>(reg);
  seu_regs_[r >> 6] |= std::uint64_t{1} << (r & 63);
  or_cone(/*seu=*/true, reg);
  program_dirty_ = true;
}

template <typename P>
void NetlistIncrementalSimT<P>::preload_golden_registers(
    const GoldenTrace& trace, int k) {
  SCK_EXPECTS(trace.num_regs == plan_.num_regs);
  SCK_EXPECTS(k >= 0 && k < trace.samples);
  const std::span<const Word> regs = trace.sample_regs(k, 0);
  auto& st = sem_.state;
  for (std::size_t r = 0; r < st.regs.size(); ++r) {
    st.regs[r] = hw::broadcast_word<P>(regs[r], plan_.data_width);
  }
}

template <typename P>
void NetlistIncrementalSimT<P>::set_active_lanes(const P& active) {
  rebuild_masks(active);
  program_dirty_ = true;
}

template <typename P>
void NetlistIncrementalSimT<P>::or_cone(bool seu, int index) {
  const std::span<const std::uint64_t> ops =
      seu ? cones_.seu_op_cone(index) : cones_.op_cone(index);
  for (std::size_t w = 0; w < cone_.size(); ++w) cone_[w] |= ops[w];
  const std::size_t rw = cones_.reg_mask_words();
  for (int s = 0; s <= plan_.num_steps; ++s) {
    const std::span<const std::uint64_t> regs =
        seu ? cones_.seu_reg_cone(index, s) : cones_.reg_cone(index, s);
    std::uint64_t* fence = reg_cone_.data() + static_cast<std::size_t>(s) * rw;
    for (std::size_t w = 0; w < rw; ++w) fence[w] |= regs[w];
  }
}

template <typename P>
void NetlistIncrementalSimT<P>::rebuild_masks(const P& active) {
  std::fill(cone_.begin(), cone_.end(), 0);
  std::fill(reg_cone_.begin(), reg_cone_.end(), 0);
  for (const InstalledFault& fault : faults_) {
    if (hw::plane_any(fault.lanes & active)) or_cone(/*seu=*/false, fault.fu);
  }
  for (const InstalledSeu& seu : seu_faults_) {
    if (hw::plane_any(seu.lanes & active)) or_cone(/*seu=*/true, seu.reg);
  }
}

template <typename P>
std::size_t NetlistIncrementalSimT<P>::cone_op_count() const {
  std::size_t count = 0;
  for (const std::uint64_t w : cone_) {
    count += static_cast<std::size_t>(std::popcount(w));
  }
  return count;
}

/// Lower the union masks into the per-step cone program: the cone ops (the
/// only ops that execute — golden writers never latch, because a register
/// is read from batch state only at fences where it is tainted, i.e. where
/// a cone latch or load last wrote it) and the state loads whose source is
/// tainted at the final fence (all other registers stay golden at fence 0
/// and are spliced on read).
template <typename P>
void NetlistIncrementalSimT<P>::compile_cone_program() {
  const auto in_cone = [this](std::size_t i) {
    return ((cone_[i >> 6] >> (i & 63)) & 1) != 0;
  };

  cone_ops_.clear();
  cone_step_begin_.assign(static_cast<std::size_t>(plan_.num_steps) + 1, 0);
  for (int step = 0; step < plan_.num_steps; ++step) {
    cone_step_begin_[static_cast<std::size_t>(step)] =
        static_cast<std::uint32_t>(cone_ops_.size());
    const std::uint32_t end =
        plan_.step_begin[static_cast<std::size_t>(step) + 1];
    for (std::uint32_t i = plan_.step_begin[static_cast<std::size_t>(step)];
         i < end; ++i) {
      if (in_cone(i)) cone_ops_.push_back(i);
    }
  }
  cone_step_begin_[static_cast<std::size_t>(plan_.num_steps)] =
      static_cast<std::uint32_t>(cone_ops_.size());

  loads_.clear();
  for (const ExecPlan::StateLoad& load : plan_.state_loads) {
    bool tainted_source = false;
    switch (load.source.kind) {
      case Operand::Kind::kWire:
        tainted_source = in_cone(
            producer_[static_cast<std::size_t>(load.source.index)]);
        break;
      case Operand::Kind::kReg:
        tainted_source = reg_tainted_at(load.source.index, plan_.num_steps);
        break;
      default:
        break;  // constants/inputs are golden broadcasts by definition
    }
    // A load into an SEU-struck register always executes, even with a
    // golden source: the register is forced tainted at every fence, so its
    // batch slot must be refreshed by each write (a golden load splices
    // its source as a broadcast — correct and fresh).
    const auto dst = static_cast<std::size_t>(load.dst_reg);
    const bool seu_target =
        ((seu_regs_[dst >> 6] >> (dst & 63)) & 1) != 0;
    if (tainted_source || seu_target) loads_.push_back(load);
  }
  program_dirty_ = false;
}

template <typename P>
const hw::BatchWordT<P>& NetlistIncrementalSimT<P>::read_spliced(
    const ExecOperand& op, const GoldenTrace& trace, int k, int step,
    hw::BatchWordT<P>& scratch) const {
  const auto& st = sem_.state;
  switch (op.kind) {
    case Operand::Kind::kNone:
      return st.zero;
    case Operand::Kind::kConst:
      return st.consts[static_cast<std::size_t>(op.index)];
    case Operand::Kind::kInput:
      return st.inputs[static_cast<std::size_t>(op.index)];
    case Operand::Kind::kWire: {
      const std::size_t p = producer_[static_cast<std::size_t>(op.index)];
      if ((cone_[p >> 6] >> (p & 63)) & 1) {
        return st.wires[static_cast<std::size_t>(op.index)];
      }
      scratch = hw::broadcast_word<P>(
          trace.sample_wires(k)[static_cast<std::size_t>(op.index)],
          plan_.ops[p].width);
      return scratch;
    }
    case Operand::Kind::kReg: {
      if (reg_tainted_at(op.index, step)) {
        return st.regs[static_cast<std::size_t>(op.index)];
      }
      scratch = hw::broadcast_word<P>(
          trace.sample_regs(k, step)[static_cast<std::size_t>(op.index)],
          plan_.data_width);
      return scratch;
    }
  }
  return st.zero;
}

template <typename P>
void NetlistIncrementalSimT<P>::replay_sample(
    const GoldenTrace& trace, int k, std::span<hw::BatchWordT<P>> outputs) {
  SCK_EXPECTS(trace.num_inputs == plan_.num_inputs);
  SCK_EXPECTS(trace.num_wires == plan_.num_wires);
  SCK_EXPECTS(trace.num_regs == plan_.num_regs);
  SCK_EXPECTS(trace.num_steps == plan_.num_steps);
  SCK_EXPECTS(k >= 0 && k < trace.samples);
  if (program_dirty_) compile_cone_program();
  auto& st = sem_.state;

  // Inputs are shared across lanes: broadcast straight from the trace (no
  // per-lane packing/transpose).
  const std::span<const Word> in = trace.sample_inputs(k);
  for (std::size_t i = 0; i < in.size(); ++i) {
    st.inputs[i] = hw::broadcast_word<P>(trunc(in[i], plan_.data_width),
                                         plan_.data_width);
  }

  // run_plan_sample's step loop, restricted to the cone ops: boundary
  // operands — non-cone wires, registers clean at the reading fence — are
  // spliced from the trace at read time; nothing else runs. Batch register
  // slots are only ever read at fences where the union cone taints them,
  // i.e. where the last writer was a cone latch or a cone state load, so
  // golden writers need no latches at all.
  hw::BatchWordT<P> scratch_a;
  hw::BatchWordT<P> scratch_b;
  for (int step = 0; step < plan_.num_steps; ++step) {
    st.latches.clear();
    const std::uint32_t end =
        cone_step_begin_[static_cast<std::size_t>(step) + 1];
    for (std::uint32_t a = cone_step_begin_[static_cast<std::size_t>(step)];
         a < end; ++a) {
      const ExecOp& op = plan_.ops[cone_ops_[a]];
      const hw::BatchWordT<P>& va =
          read_spliced(op.src0, trace, k, step, scratch_a);
      const hw::BatchWordT<P>& vb =
          read_spliced(op.src1, trace, k, step, scratch_b);
      hw::BatchWordT<P> result = sem_.eval(op, va, vb);
      if (op.dst_reg >= 0) st.latches.emplace_back(op.dst_reg, result);
      st.wires[static_cast<std::size_t>(op.wire)] = std::move(result);
    }
    for (const auto& [reg, value] : st.latches) {
      st.regs[static_cast<std::size_t>(reg)] = value;
    }
  }

  // Outputs and the cone's state loads read after the last step (fence
  // num_steps of the register timeline).
  SCK_EXPECTS(outputs.size() == plan_.outputs.size());
  for (std::size_t i = 0; i < plan_.outputs.size(); ++i) {
    outputs[i] =
        read_spliced(plan_.outputs[i], trace, k, plan_.num_steps, scratch_a);
  }

  st.loads.clear();
  for (const ExecPlan::StateLoad& load : loads_) {
    st.loads.emplace_back(
        load.dst_reg,
        read_spliced(load.source, trace, k, plan_.num_steps, scratch_a));
  }
  for (const auto& [reg, value] : st.loads) {
    st.regs[static_cast<std::size_t>(reg)] = value;
  }
}

// One instantiation per supported plane width (hw/plane.h); the campaign
// drivers select one at runtime through hw::dispatch_plane.
template class LaneFaultCoreT<hw::Plane64>;
template class LaneFaultCoreT<hw::Plane128>;
template class LaneFaultCoreT<hw::Plane256>;
template class LaneFaultCoreT<hw::Plane512>;
template class NetlistBatchSimT<hw::Plane64>;
template class NetlistBatchSimT<hw::Plane128>;
template class NetlistBatchSimT<hw::Plane256>;
template class NetlistBatchSimT<hw::Plane512>;
template class NetlistIncrementalSimT<hw::Plane64>;
template class NetlistIncrementalSimT<hw::Plane128>;
template class NetlistIncrementalSimT<hw::Plane256>;
template class NetlistIncrementalSimT<hw::Plane512>;

}  // namespace sck::hls

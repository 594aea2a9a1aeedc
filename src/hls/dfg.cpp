#include "hls/dfg.h"

#include <algorithm>

#include "common/word.h"

namespace sck::hls {

NodeId Dfg::append(Node n) {
  nodes_.push_back(std::move(n));
  topo_dirty_ = true;
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Dfg::input(std::string name, int width) {
  Node n;
  n.op = Op::kInput;
  n.width = width;
  n.name = std::move(name);
  const NodeId id = append(std::move(n));
  inputs_.push_back(id);
  return id;
}

NodeId Dfg::constant(long long value, int width) {
  Node n;
  n.op = Op::kConst;
  n.width = width;
  n.value = value;
  return append(std::move(n));
}

NodeId Dfg::state_reg(std::string name, int width) {
  Node n;
  n.op = Op::kReg;
  n.width = width;
  n.name = std::move(name);
  n.ins = {kNoNode};  // wired later via set_reg_next
  const NodeId id = append(std::move(n));
  regs_.push_back(id);
  return id;
}

void Dfg::set_reg_next(NodeId reg, NodeId next) {
  SCK_EXPECTS(node(reg).op == Op::kReg);
  SCK_EXPECTS(next >= 0 && static_cast<std::size_t>(next) < nodes_.size());
  mutable_node(reg).ins = {next};  // marks the topo cache dirty
}

NodeId Dfg::output(std::string name, NodeId src) {
  Node n;
  n.op = Op::kOutput;
  n.width = node(src).width;
  n.name = std::move(name);
  n.ins = {src};
  const NodeId id = append(std::move(n));
  outputs_.push_back(id);
  return id;
}

NodeId Dfg::op(Op o, std::vector<NodeId> ins, int width) {
  SCK_EXPECTS(static_cast<int>(ins.size()) == op_arity(o));
  for (const NodeId in : ins) {
    SCK_EXPECTS(in >= 0 && static_cast<std::size_t>(in) < nodes_.size());
  }
  Node n;
  n.op = o;
  n.width = width;
  n.ins = std::move(ins);
  return append(std::move(n));
}

const std::vector<NodeId>& Dfg::topo_order() const {
  if (!topo_dirty_) return topo_cache_;
  // Kahn's algorithm over combinational edges: a kReg node contributes its
  // *output* as a source; its next-value edge is sequential and ignored.
  const auto n = static_cast<NodeId>(nodes_.size());
  std::vector<int> pending(nodes_.size(), 0);
  std::vector<std::vector<NodeId>> users(nodes_.size());
  for (NodeId id = 0; id < n; ++id) {
    const Node& node_ref = nodes_[static_cast<std::size_t>(id)];
    if (node_ref.op == Op::kReg) continue;  // sequential consumer
    for (const NodeId in : node_ref.ins) {
      users[static_cast<std::size_t>(in)].push_back(id);
      ++pending[static_cast<std::size_t>(id)];
    }
  }
  std::vector<NodeId> ready;
  for (NodeId id = 0; id < n; ++id) {
    if (pending[static_cast<std::size_t>(id)] == 0) ready.push_back(id);
  }
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (const NodeId u : users[static_cast<std::size_t>(id)]) {
      if (--pending[static_cast<std::size_t>(u)] == 0) ready.push_back(u);
    }
  }
  SCK_ENSURES(order.size() == nodes_.size() &&
              "combinational cycle in DFG (cycles must pass through kReg)");
  topo_cache_ = std::move(order);
  topo_dirty_ = false;
  return topo_cache_;
}

void Dfg::validate() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    SCK_ASSERT(static_cast<int>(n.ins.size()) == op_arity(n.op));
    for (const NodeId in : n.ins) {
      SCK_ASSERT(in != kNoNode && "unwired register or operand");
      SCK_ASSERT(in >= 0 && static_cast<std::size_t>(in) < nodes_.size());
    }
    SCK_ASSERT(n.width >= 1 && n.width <= kMaxWidth);
  }
  (void)topo_order();  // aborts on combinational cycles
}

std::unordered_map<Op, int> Dfg::op_histogram() const {
  std::unordered_map<Op, int> hist;
  for (const Node& n : nodes_) ++hist[n.op];
  return hist;
}

void Dfg::eval(std::span<const std::uint64_t> inputs,
               std::span<std::uint64_t> outputs,
               std::vector<std::uint64_t>& reg_state) const {
  SCK_EXPECTS(inputs.size() == inputs_.size());
  SCK_EXPECTS(outputs.size() == outputs_.size());
  SCK_EXPECTS(reg_state.size() == regs_.size());
  std::vector<std::uint64_t> value(nodes_.size(), 0);

  // Seed input ports and register outputs with the current state.
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const auto id = static_cast<std::size_t>(inputs_[i]);
    value[id] = trunc(inputs[i], nodes_[id].width);
  }
  for (std::size_t i = 0; i < regs_.size(); ++i) {
    value[static_cast<std::size_t>(regs_[i])] = reg_state[i];
  }

  for (const NodeId id : topo_order()) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    const auto in = [&](int k) {
      return value[static_cast<std::size_t>(n.ins[static_cast<std::size_t>(k)])];
    };
    const int w = n.width;
    switch (n.op) {
      case Op::kInput:
      case Op::kReg:
        break;  // seeded above
      case Op::kConst:
        value[static_cast<std::size_t>(id)] =
            from_signed(n.value, w);
        break;
      case Op::kOutput:
        value[static_cast<std::size_t>(id)] = in(0);
        break;
      case Op::kAdd:
        value[static_cast<std::size_t>(id)] = sck::add(in(0), in(1), w);
        break;
      case Op::kSub:
        value[static_cast<std::size_t>(id)] = sck::sub(in(0), in(1), w);
        break;
      case Op::kMul:
        value[static_cast<std::size_t>(id)] = sck::mul(in(0), in(1), w);
        break;
      case Op::kDiv:
        value[static_cast<std::size_t>(id)] =
            in(1) == 0 ? 0 : trunc(in(0) / in(1), w);
        break;
      case Op::kRem:
        value[static_cast<std::size_t>(id)] =
            in(1) == 0 ? 0 : trunc(in(0) % in(1), w);
        break;
      case Op::kNeg:
        value[static_cast<std::size_t>(id)] = sck::neg(in(0), w);
        break;
      case Op::kEq:
        value[static_cast<std::size_t>(id)] = in(0) == in(1) ? 1 : 0;
        break;
      case Op::kIsZero:
        value[static_cast<std::size_t>(id)] = in(0) == 0 ? 1 : 0;
        break;
      case Op::kNot:
        value[static_cast<std::size_t>(id)] = in(0) == 0 ? 1 : 0;
        break;
      case Op::kAnd:
        value[static_cast<std::size_t>(id)] = (in(0) & in(1)) & 1u;
        break;
      case Op::kOr:
        value[static_cast<std::size_t>(id)] = (in(0) | in(1)) & 1u;
        break;
    }
  }

  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    outputs[i] = value[static_cast<std::size_t>(outputs_[i])];
  }
  // Advance the sequential state.
  for (std::size_t i = 0; i < regs_.size(); ++i) {
    const Node& r = nodes_[static_cast<std::size_t>(regs_[i])];
    reg_state[i] = value[static_cast<std::size_t>(r.ins[0])];
  }
}

Dfg::EvalResult Dfg::eval(
    const std::unordered_map<std::string, std::uint64_t>& input_values,
    std::vector<std::uint64_t>& reg_state) const {
  std::vector<std::uint64_t> in(inputs_.size());
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const auto it =
        input_values.find(nodes_[static_cast<std::size_t>(inputs_[i])].name);
    SCK_EXPECTS(it != input_values.end() && "missing input value");
    in[i] = it->second;
  }
  std::vector<std::uint64_t> out(outputs_.size());
  eval(in, out, reg_state);
  EvalResult result;
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    result.outputs[nodes_[static_cast<std::size_t>(outputs_[i])].name] = out[i];
  }
  return result;
}

}  // namespace sck::hls

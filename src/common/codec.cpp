#include "common/codec.h"

#include "common/word.h"

namespace sck::codec {

// ---------------------------------------------------------------------------
// Dfg. Nodes are append-only with stable ids and (outside kReg next-value
// edges) strictly backward operand references, so the node array in id
// order captures the whole graph.

bool io(Writer& w, const hls::Dfg& g) {
  w.u64(g.size());
  for (std::size_t id = 0; id < g.size(); ++id) {
    const hls::Node& n = g.node(static_cast<hls::NodeId>(id));
    w.enumeration(n.op);
    w.u32(static_cast<std::uint32_t>(n.width));
    w.u64(n.ins.size());
    for (const hls::NodeId in : n.ins) w.i32(in);
    w.i64(n.value);
    w.str(n.name);
    w.boolean(n.is_check);
    w.i32(n.check_group);
    w.i32(n.release_delay);
  }
  return true;
}

/// Reconstruction invariant: builder ids are sequential appends, so node k
/// of the encoding becomes NodeId k.
bool io(Reader& r, hls::Dfg& g) {
  std::uint64_t count = 0;
  // Minimum encoded node: op + width + ins count + value + name length +
  // is_check + check_group + release_delay.
  if (!r.count(count, 4 + 4 + 8 + 8 + 8 + 1 + 4 + 4)) return false;
  struct RegFix {
    hls::NodeId reg;
    hls::NodeId next;
  };
  std::vector<RegFix> reg_fixes;
  for (std::uint64_t id = 0; id < count; ++id) {
    hls::Op op = hls::Op::kConst;
    std::uint32_t width = 0;
    std::uint64_t arity = 0;
    if (!r.enumeration(op) || !r.u32(width) ||
        !r.count(arity, 4)) {
      return false;
    }
    if (arity != static_cast<std::uint64_t>(hls::op_arity(op))) {
      return r.fail();
    }
    if (width < 1 || width > static_cast<std::uint32_t>(kMaxWidth)) {
      return r.fail();
    }
    std::vector<hls::NodeId> ins(static_cast<std::size_t>(arity));
    for (hls::NodeId& in : ins) {
      if (!r.i32(in)) return false;
      if (op == hls::Op::kReg) {
        // A register's next-value edge is sequential: forward references
        // (and kNoNode for a not-yet-wired register) are legal.
        if (in != hls::kNoNode &&
            (in < 0 || static_cast<std::uint64_t>(in) >= count)) {
          return r.fail();
        }
      } else {
        // Combinational operands strictly precede their consumer — true
        // of every graph the builders can produce, and what makes the
        // graph acyclic by construction on replay.
        if (in < 0 || static_cast<std::uint64_t>(in) >= id) return r.fail();
      }
    }
    std::int64_t value = 0;
    std::string name;
    bool is_check = false;
    std::int32_t check_group = 0;
    std::int32_t release_delay = 0;
    if (!r.i64(value) || !r.str(name) || !r.boolean(is_check) ||
        !r.i32(check_group) || !r.i32(release_delay)) {
      return false;
    }
    if (check_group < hls::kSharedGroup || release_delay < 0) return r.fail();

    hls::NodeId built = hls::kNoNode;
    switch (op) {
      case hls::Op::kInput:
        built = g.input(name, static_cast<int>(width));
        break;
      case hls::Op::kConst:
        built = g.constant(static_cast<long long>(value),
                           static_cast<int>(width));
        break;
      case hls::Op::kReg:
        built = g.state_reg(name, static_cast<int>(width));
        if (ins[0] != hls::kNoNode) {
          reg_fixes.push_back(RegFix{built, ins[0]});
        }
        break;
      case hls::Op::kOutput:
        // output() derives its width from the source node; a disagreeing
        // encoded width means the bytes do not describe a buildable graph.
        if (g.node(ins[0]).width != static_cast<int>(width)) return r.fail();
        built = g.output(name, ins[0]);
        break;
      default:
        built = g.op(op, ins, static_cast<int>(width));
        break;
    }
    if (static_cast<std::uint64_t>(built) != id) return r.fail();
    hls::Node& n = g.mutable_node(built);
    n.value = static_cast<long long>(value);
    n.name = name;
    n.is_check = is_check;
    n.check_group = check_group;
    n.release_delay = release_delay;
  }
  for (const RegFix& fix : reg_fixes) {
    // Validated above: fix.next in [0, count), all nodes now exist.
    g.set_reg_next(fix.reg, fix.next);
  }
  return r.ok();
}

// ---------------------------------------------------------------------------
// Netlist.

namespace {

void put_operand(Writer& w, const hls::Operand& o) {
  w.enumeration(o.kind);
  w.i32(o.index);
  w.i64(o.value);
}

[[nodiscard]] bool get_operand(Reader& r, const hls::Netlist& n,
                               hls::Operand& o) {
  std::int64_t value = 0;
  if (!r.enumeration(o.kind) || !r.i32(o.index) ||
      !r.i64(value)) {
    return false;
  }
  o.value = static_cast<long long>(value);
  const auto below = [&](std::size_t size) {
    return o.index >= 0 && static_cast<std::size_t>(o.index) < size;
  };
  switch (o.kind) {
    case hls::Operand::Kind::kReg:
      return below(n.regs.size()) || r.fail();
    case hls::Operand::Kind::kInput:
      return below(n.input_names.size()) || r.fail();
    case hls::Operand::Kind::kWire:
      return o.index >= 0 || r.fail();  // producer NodeId
    case hls::Operand::Kind::kNone:
    case hls::Operand::Kind::kConst:
      return true;
  }
  return r.fail();
}

}  // namespace

bool io(Writer& w, const hls::Netlist& n) {
  w.str(n.name);
  w.u32(static_cast<std::uint32_t>(n.data_width));
  w.u32(static_cast<std::uint32_t>(n.num_steps));
  w.u64(n.fus.size());
  for (const hls::FuInstance& fu : n.fus) {
    w.enumeration(fu.cls);
    w.u32(static_cast<std::uint32_t>(fu.width));
    w.i32(fu.group);
    w.str(fu.name);
  }
  w.u64(n.regs.size());
  for (const hls::RegisterInfo& reg : n.regs) {
    w.u32(static_cast<std::uint32_t>(reg.width));
    w.boolean(reg.architectural);
    w.str(reg.name);
  }
  w.u64(n.input_names.size());
  for (const std::string& name : n.input_names) w.str(name);
  w.u64(n.outputs.size());
  for (const hls::OutputPort& port : n.outputs) {
    w.str(port.name);
    put_operand(w, port.source);
  }
  w.u64(n.state_loads.size());
  for (const hls::StateLoad& load : n.state_loads) {
    w.i32(load.dst_reg);
    put_operand(w, load.source);
  }
  w.u64(n.micro.size());
  for (const hls::MicroOp& m : n.micro) {
    w.i32(m.step);
    w.i32(m.node);
    w.enumeration(m.op);
    w.i32(m.fu);
    put_operand(w, m.src[0]);
    put_operand(w, m.src[1]);
    w.i32(m.dst_reg);
  }
  return true;
}

bool io(Reader& r, hls::Netlist& n) {
  std::uint32_t data_width = 0;
  std::uint32_t num_steps = 0;
  if (!r.str(n.name) || !r.u32(data_width) || !r.u32(num_steps)) return false;
  if (data_width < 1 || data_width > static_cast<std::uint32_t>(kMaxWidth)) {
    return r.fail();
  }
  if (num_steps > (1u << 20)) return r.fail();
  n.data_width = static_cast<int>(data_width);
  n.num_steps = static_cast<int>(num_steps);
  // Register widths and FU widths: 0 (unused) up to kMaxWidth.
  const auto width_ok = [](std::uint32_t w) {
    return w <= static_cast<std::uint32_t>(kMaxWidth);
  };

  std::uint64_t count = 0;
  if (!r.count(count, 4 + 4 + 4 + 8)) return false;
  n.fus.resize(static_cast<std::size_t>(count));
  for (hls::FuInstance& fu : n.fus) {
    std::uint32_t width = 0;
    if (!r.enumeration(fu.cls) ||
        !r.u32(width) || !r.i32(fu.group) || !r.str(fu.name)) {
      return false;
    }
    if (!width_ok(width) || fu.group < hls::kSharedGroup) return r.fail();
    fu.width = static_cast<int>(width);
  }

  if (!r.count(count, 4 + 1 + 8)) return false;
  n.regs.resize(static_cast<std::size_t>(count));
  for (hls::RegisterInfo& reg : n.regs) {
    std::uint32_t width = 0;
    if (!r.u32(width) || !r.boolean(reg.architectural) || !r.str(reg.name)) {
      return false;
    }
    if (!width_ok(width)) return r.fail();
    reg.width = static_cast<int>(width);
  }

  if (!r.count(count, 8)) return false;
  n.input_names.resize(static_cast<std::size_t>(count));
  for (std::string& name : n.input_names) {
    if (!r.str(name)) return false;
  }

  if (!r.count(count, 8 + 16)) return false;
  n.outputs.resize(static_cast<std::size_t>(count));
  for (hls::OutputPort& port : n.outputs) {
    if (!r.str(port.name) || !get_operand(r, n, port.source)) return false;
  }

  if (!r.count(count, 4 + 16)) return false;
  n.state_loads.resize(static_cast<std::size_t>(count));
  for (hls::StateLoad& load : n.state_loads) {
    if (!r.i32(load.dst_reg) || !get_operand(r, n, load.source)) return false;
    if (load.dst_reg < 0 ||
        static_cast<std::size_t>(load.dst_reg) >= n.regs.size()) {
      return r.fail();
    }
  }

  if (!r.count(count, 4 + 4 + 4 + 4 + 32 + 4)) return false;
  n.micro.resize(static_cast<std::size_t>(count));
  for (hls::MicroOp& m : n.micro) {
    if (!r.i32(m.step) || !r.i32(m.node) ||
        !r.enumeration(m.op) || !r.i32(m.fu) ||
        !get_operand(r, n, m.src[0]) || !get_operand(r, n, m.src[1]) ||
        !r.i32(m.dst_reg)) {
      return false;
    }
    if (m.step < 0 || m.step >= n.num_steps || m.node < 0) return r.fail();
    if (m.fu < -1 ||
        (m.fu >= 0 && static_cast<std::size_t>(m.fu) >= n.fus.size())) {
      return r.fail();
    }
    if (m.dst_reg < -1 ||
        (m.dst_reg >= 0 &&
         static_cast<std::size_t>(m.dst_reg) >= n.regs.size())) {
      return r.fail();
    }
  }
  return r.ok();
}

// ---------------------------------------------------------------------------
// Campaign options.

namespace {

/// Converts to any field type, so T{AnyField{}, ...} probes how many
/// initializers the aggregate T accepts.
struct AnyField {
  template <class U>
  constexpr operator U() const noexcept;
};

template <class T, class... Fields>
constexpr std::size_t aggregate_arity() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return aggregate_arity<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

}  // namespace

// An unlisted field fails here: every field but `stream` (read by nothing)
// is in result_key or io(options).
static_assert(aggregate_arity<hls::NetlistCampaignOptions>() == 12,
              "NetlistCampaignOptions changed: list the field in result_key "
              "or io(options) and bump the wire and fingerprint versions");

}  // namespace sck::codec

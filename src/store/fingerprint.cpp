#include "store/fingerprint.h"

#include <vector>

#include "common/assert.h"
#include "common/codec.h"
#include "hw/fault_site.h"

namespace sck::store {

namespace {

/// SplitMix64 finalizer: FNV-1a diffuses low-to-high only, so without a
/// final avalanche two inputs differing late in the stream would produce
/// visibly related fingerprints.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Two-lane FNV-1a/64 (the standard basis and a distinct second one),
/// cross-coupled so the pair behaves like one 128-bit digest rather than
/// two correlated 64-bit ones. Collisions are not adversarially hard (this
/// is a cache key, not a security boundary) — every store entry therefore
/// echoes its full fingerprint and payload checksum, so a colliding or
/// misplaced entry is rejected on read rather than trusted.
[[nodiscard]] Fingerprint digest(std::span<const unsigned char> bytes) {
  const std::uint64_t a = codec::fnv1a(bytes);
  const std::uint64_t b = codec::fnv1a(bytes, 0x6C62272E07BB0142ULL);
  return {mix(a + 0x9E3779B97F4A7C15ULL * b), mix(b ^ mix(a))};
}

void put_operand(codec::Writer& w, const hls::ExecOperand& op) {
  w.enumeration(op.kind);
  w.i32(op.index);
}

void put_plan(codec::Writer& w, const hls::ExecPlan& plan) {
  w.i32(plan.data_width);
  w.i32(plan.num_steps);
  w.i32(plan.num_regs);
  w.i32(plan.num_inputs);
  w.i32(plan.num_wires);
  w.u64(plan.const_pool.size());
  for (const Word c : plan.const_pool) w.u64(c);
  w.u64(plan.ops.size());
  for (const hls::ExecOp& op : plan.ops) {
    w.enumeration(op.op);
    w.i32(op.fu);
    w.i32(op.wire);
    w.i32(op.dst_reg);
    w.i32(op.width);
    put_operand(w, op.src0);
    put_operand(w, op.src1);
  }
  w.u64(plan.step_begin.size());
  for (const std::uint32_t s : plan.step_begin) w.u32(s);
  w.u64(plan.outputs.size());
  for (const hls::ExecOperand& out : plan.outputs) put_operand(w, out);
  w.u64(plan.state_loads.size());
  for (const hls::ExecPlan::StateLoad& load : plan.state_loads) {
    w.i32(load.dst_reg);
    put_operand(w, load.source);
  }
  w.i32(plan.error_output);
}

/// The complete stuck-at universe of every FU, enumerated exactly like the
/// campaign's job list (pre-stride): the set of faults the counters are
/// reduced over.
void put_universe(codec::Writer& w, const hls::Netlist& netlist) {
  const hls::FuBank probe(netlist);
  for (std::size_t f = 0; f < netlist.fus.size(); ++f) {
    const std::vector<hw::FaultSite> universe =
        probe.fault_universe(static_cast<int>(f));
    w.u64(universe.size());
    for (const hw::FaultSite& site : universe) {
      w.i32(site.cell);
      w.u8(site.line);
      w.boolean(site.stuck_value);
    }
  }
}

}  // namespace

std::string to_string(const Fingerprint& fp) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s;
  s.reserve(32);
  for (const std::uint64_t word : {fp.hi, fp.lo}) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      s += kHex[(word >> shift) & 0xF];
    }
  }
  return s;
}

Fingerprint campaign_fingerprint(const hls::Dfg& graph,
                                 const hls::ExecPlan& plan,
                                 const hls::NetlistCampaignOptions& options) {
  SCK_EXPECTS(plan.netlist != nullptr);
  codec::Writer w;
  w.u64(kFingerprintVersion);
  // The graph and netlist exactly as the wire ships them to workers.
  w(graph, *plan.netlist);
  put_plan(w, plan);
  put_universe(w, *plan.netlist);
  codec::result_key(w, options);
  return digest(w.view());
}

}  // namespace sck::store

#include "hls/expand_sck.h"

#include <utility>
#include <vector>

#include "common/assert.h"
#include "hls/schedule.h"

namespace sck::hls {

namespace {

using fault::Technique;
using fault::uses_tech1;
using fault::uses_tech2;

/// Collects the 1-bit "check passed" signals and builds the error output.
class ErrorCollector {
 public:
  explicit ErrorCollector(Dfg& g) : g_(g) {}

  /// Register a check-passed signal; failure contributes to the error bit.
  void add_check(NodeId check_ok, int group) {
    NodeId fail = g_.op(Op::kNot, {check_ok}, 1);
    mark(fail, group);
    fails_.push_back(fail);
  }

  /// Reduce all failures into the "error" output (balanced OR tree).
  void finish() {
    NodeId err;
    if (fails_.empty()) {
      err = g_.constant(0, 1);
    } else {
      std::vector<NodeId> terms = std::move(fails_);
      while (terms.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
          const NodeId o = g_.op(Op::kOr, {terms[i], terms[i + 1]}, 1);
          mark(o, kSharedGroup);
          next.push_back(o);
        }
        if (terms.size() % 2 != 0) next.push_back(terms.back());
        terms = std::move(next);
      }
      err = terms.front();
    }
    (void)g_.output("error", err);
  }

  void mark(NodeId id, int group) {
    Node& n = g_.mutable_node(id);
    n.is_check = true;
    n.check_group = group;
  }

 private:
  Dfg& g_;
  std::vector<NodeId> fails_;
};

/// Emit the per-operator hidden controls of Table 1 for one node.
class CheckEmitter {
 public:
  CheckEmitter(Dfg& g, ErrorCollector& errors) : g_(g), errors_(errors) {}

  NodeId check_op(Op op, std::vector<NodeId> ins, int width, int group) {
    const NodeId id = g_.op(op, std::move(ins), width);
    errors_.mark(id, group);
    return id;
  }

  void emit_add(NodeId z, NodeId x, NodeId y, int w, Technique t, int group) {
    if (uses_tech1(t)) {
      const NodeId s = check_op(Op::kSub, {z, x}, w, group);
      errors_.add_check(check_op(Op::kEq, {s, y}, 1, group), group);
    }
    if (uses_tech2(t)) {
      const NodeId s = check_op(Op::kSub, {z, y}, w, group);
      errors_.add_check(check_op(Op::kEq, {s, x}, 1, group), group);
    }
  }

  void emit_sub(NodeId z, NodeId x, NodeId y, int w, Technique t, int group) {
    if (uses_tech1(t)) {
      const NodeId s = check_op(Op::kAdd, {z, y}, w, group);
      errors_.add_check(check_op(Op::kEq, {s, x}, 1, group), group);
    }
    if (uses_tech2(t)) {
      const NodeId s2 = check_op(Op::kSub, {y, x}, w, group);
      const NodeId sum = check_op(Op::kAdd, {z, s2}, w, group);
      errors_.add_check(check_op(Op::kIsZero, {sum}, 1, group), group);
    }
  }

  void emit_mul(NodeId z, NodeId x, NodeId y, int w, Technique t, int group) {
    if (uses_tech1(t)) {
      const NodeId nx = check_op(Op::kNeg, {x}, w, group);
      const NodeId z2 = check_op(Op::kMul, {nx, y}, w, group);
      const NodeId s = check_op(Op::kAdd, {z, z2}, w, group);
      errors_.add_check(check_op(Op::kIsZero, {s}, 1, group), group);
    }
    if (uses_tech2(t)) {
      const NodeId ny = check_op(Op::kNeg, {y}, w, group);
      const NodeId z2 = check_op(Op::kMul, {x, ny}, w, group);
      const NodeId s = check_op(Op::kAdd, {z, z2}, w, group);
      errors_.add_check(check_op(Op::kIsZero, {s}, 1, group), group);
    }
  }

  void emit_divrem(NodeId q, NodeId r, NodeId x, NodeId y, int w, Technique t,
                   int group) {
    if (uses_tech1(t)) {
      const NodeId prod = check_op(Op::kMul, {q, y}, w, group);
      const NodeId s = check_op(Op::kAdd, {prod, r}, w, group);
      errors_.add_check(check_op(Op::kEq, {s, x}, 1, group), group);
    }
    if (uses_tech2(t)) {
      const NodeId nq = check_op(Op::kNeg, {q}, w, group);
      const NodeId prod = check_op(Op::kMul, {nq, y}, w, group);
      const NodeId s = check_op(Op::kSub, {prod, r}, w, group);
      const NodeId closed = check_op(Op::kAdd, {x, s}, w, group);
      errors_.add_check(check_op(Op::kIsZero, {closed}, 1, group), group);
    }
  }

  void emit_neg(NodeId z, NodeId x, int w, int group) {
    const NodeId s = check_op(Op::kAdd, {z, x}, w, group);
    errors_.add_check(check_op(Op::kIsZero, {s}, 1, group), group);
  }

 private:
  Dfg& g_;
  ErrorCollector& errors_;
};

/// Adder-tree clusters for the embedded style: maximal trees of kAdd nodes
/// in which every inner add feeds exactly one other add of the tree.
struct AddTree {
  NodeId root = kNoNode;
  std::vector<NodeId> leaves;  // non-absorbed operands feeding the tree
};

std::vector<AddTree> find_add_trees(const Dfg& g, std::size_t original_size) {
  // Use counts over the original graph.
  std::vector<int> uses(original_size, 0);
  for (std::size_t id = 0; id < original_size; ++id) {
    for (const NodeId in : g.node(static_cast<NodeId>(id)).ins) {
      if (in >= 0 && static_cast<std::size_t>(in) < original_size) {
        ++uses[static_cast<std::size_t>(in)];
      }
    }
  }
  // A kAdd is a root if no single kAdd consumer absorbs it.
  std::vector<char> absorbed(original_size, 0);
  for (std::size_t id = 0; id < original_size; ++id) {
    const Node& n = g.node(static_cast<NodeId>(id));
    if (n.op != Op::kAdd) continue;
    for (const NodeId in : n.ins) {
      if (g.node(in).op == Op::kAdd && uses[static_cast<std::size_t>(in)] == 1) {
        absorbed[static_cast<std::size_t>(in)] = 1;
      }
    }
  }
  std::vector<AddTree> trees;
  for (std::size_t id = 0; id < original_size; ++id) {
    const Node& n = g.node(static_cast<NodeId>(id));
    if (n.op != Op::kAdd || absorbed[id] != 0) continue;
    AddTree tree;
    tree.root = static_cast<NodeId>(id);
    // Gather leaves depth-first through absorbed adds.
    std::vector<NodeId> stack{tree.root};
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      for (const NodeId in : g.node(cur).ins) {
        if (g.node(in).op == Op::kAdd &&
            absorbed[static_cast<std::size_t>(in)] != 0) {
          stack.push_back(in);
        } else {
          tree.leaves.push_back(in);
        }
      }
    }
    trees.push_back(std::move(tree));
  }
  return trees;
}

}  // namespace

Dfg insert_ced(const Dfg& g, const CedOptions& options) {
  SCK_EXPECTS(options.add != Technique::kResidue3 &&
              options.sub != Technique::kResidue3 &&
              options.mul != Technique::kResidue3 &&
              options.div != Technique::kResidue3 &&
              "residue checking is a software-backend technique; the DFG "
              "pass provides the inverse-operation controls");
  Dfg out = g;  // node ids preserved
  const std::size_t original_size = g.size();
  ErrorCollector errors(out);
  CheckEmitter emit(out, errors);

  int next_group = 0;
  const auto group_for = [&]() {
    return options.style == CedStyle::kClassBased ? next_group++
                                                  : kSharedGroup;
  };

  // Attach cluster ownership and the release delay to a checked nominal op.
  // The class-based (atomic) operator releases its result one step late:
  // the overloaded call issues the inverse operation before returning,
  // while the comparison and error logic drain in parallel on the
  // instance's private units. (Modeling choice, calibrated against the
  // paper's Table 3 latency growth of roughly +3 steps for the naive FIR;
  // the dominant naive-SCK cost is the private units, not the stall.)
  const auto close_cluster = [&](NodeId owner, int group, std::size_t begin) {
    (void)begin;
    if (options.style != CedStyle::kClassBased) return;
    Node& n = out.mutable_node(owner);
    n.check_group = group;
    n.release_delay = 1;
  };

  // Embedded style: merged running-difference check per adder tree.
  std::vector<char> add_handled(original_size, 0);
  if (options.style == CedStyle::kEmbedded) {
    for (const AddTree& tree : find_add_trees(g, original_size)) {
      NodeId acc = tree.root;
      const int w = g.node(tree.root).width;
      for (const NodeId leaf : tree.leaves) {
        acc = emit.check_op(Op::kSub, {acc, leaf}, w, kSharedGroup);
      }
      errors.add_check(emit.check_op(Op::kIsZero, {acc}, 1, kSharedGroup),
                       kSharedGroup);
      // Mark every add of the tree as already checked.
      std::vector<NodeId> stack{tree.root};
      while (!stack.empty()) {
        const NodeId cur = stack.back();
        stack.pop_back();
        add_handled[static_cast<std::size_t>(cur)] = 1;
        for (const NodeId in : g.node(cur).ins) {
          if (g.node(in).op == Op::kAdd &&
              !add_handled[static_cast<std::size_t>(in)]) {
            // Only descend into adds the tree absorbed; top-level adds of
            // other trees are separate roots and handled there.
            bool is_leaf = false;
            for (const NodeId l : tree.leaves) {
              if (l == in) is_leaf = true;
            }
            if (!is_leaf) stack.push_back(in);
          }
        }
      }
    }
  }

  // Per-operator expansion. kDiv/kRem pairs over the same operands are
  // checked once, together.
  std::vector<char> divrem_handled(original_size, 0);
  for (std::size_t id = 0; id < original_size; ++id) {
    const Node& n = g.node(static_cast<NodeId>(id));
    const auto nid = static_cast<NodeId>(id);
    const std::size_t before = out.size();
    switch (n.op) {
      case Op::kAdd:
        if (!add_handled[id]) {
          const int group = group_for();
          emit.emit_add(nid, n.ins[0], n.ins[1], n.width, options.add, group);
          close_cluster(nid, group, before);
        }
        break;
      case Op::kSub: {
        const int group = group_for();
        emit.emit_sub(nid, n.ins[0], n.ins[1], n.width, options.sub, group);
        close_cluster(nid, group, before);
        break;
      }
      case Op::kMul: {
        // Embedded style: multiplications are left unchecked. The inverse
        // control of a product costs a second multiplication — the single
        // most expensive unit — which neither the embedded FIR's area nor
        // its software overhead in Table 3 can accommodate. This is the
        // coverage/cost trade-off the paper's §5.1 leaves to the designer;
        // the explorer's coverage leg measures the gap per design (README,
        // "The kernel-generic co-design explorer").
        if (options.style == CedStyle::kEmbedded) break;
        const int group = group_for();
        emit.emit_mul(nid, n.ins[0], n.ins[1], n.width, options.mul, group);
        close_cluster(nid, group, before);
        break;
      }
      case Op::kNeg: {
        const int group = group_for();
        emit.emit_neg(nid, n.ins[0], n.width, group);
        close_cluster(nid, group, before);
        break;
      }
      case Op::kDiv:
      case Op::kRem: {
        if (divrem_handled[id]) break;
        // Locate (or synthesise) the partner producing the other half.
        const Op partner_op = n.op == Op::kDiv ? Op::kRem : Op::kDiv;
        NodeId partner = kNoNode;
        for (std::size_t j = 0; j < original_size; ++j) {
          const Node& m = g.node(static_cast<NodeId>(j));
          if (m.op == partner_op && m.ins == n.ins) {
            partner = static_cast<NodeId>(j);
            break;
          }
        }
        const int group = group_for();
        if (partner == kNoNode) {
          partner = emit.check_op(partner_op, n.ins, n.width, group);
        } else {
          divrem_handled[static_cast<std::size_t>(partner)] = 1;
        }
        const NodeId q = n.op == Op::kDiv ? nid : partner;
        const NodeId r = n.op == Op::kRem ? nid : partner;
        emit.emit_divrem(q, r, n.ins[0], n.ins[1], n.width, options.div,
                         group);
        divrem_handled[id] = 1;
        close_cluster(nid, group, before);
        if (partner < static_cast<NodeId>(original_size)) {
          close_cluster(partner, group, before);
        }
        break;
      }
      default:
        break;
    }
  }

  errors.finish();
  out.validate();
  return out;
}

}  // namespace sck::hls

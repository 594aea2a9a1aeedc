// Operation scheduling for the behavioural-synthesis substrate.
//
// Supported schedulers:
//   - ASAP (unconstrained): the min-latency rows of Table 3;
//   - ALAP (for slack/priority computation);
//   - resource-constrained list scheduling: the min-area rows of Table 3.
//
// Each scheduled operation takes one control step. Ports, constants and
// state registers take no step (they are wires/storage); their values are
// available from step 0. A node's earliest step is 1 + max(step of its
// combinational predecessors), with unscheduled predecessors contributing
// step -1 (i.e. available before step 0).
//
// Resource classes map operations onto the functional-unit pools the
// binder allocates. The class-based CED style tags check operations with a
// private check_group: the list scheduler gives every (group, class) pair
// its own single unit, modelling a synthesizer that cannot share functional
// units across the hidden sub-behaviours of different operator instances.
#pragma once

#include <vector>

#include "hls/dfg.h"

namespace sck::hls {

/// Functional-unit classes of the datapath library.
enum class ResourceClass : unsigned char {
  kAddSub,  ///< adder/subtractor (also executes negation)
  kMul,
  kDivRem,
  kCmp,    ///< equality / zero comparators (checker side)
  kLogic,  ///< 1-bit error-reduction gates
};
[[nodiscard]] constexpr ResourceClass enum_last(ResourceClass) {
  return ResourceClass::kLogic;
}
inline constexpr int kResourceClassCount =
    static_cast<int>(enum_last(ResourceClass{})) + 1;

[[nodiscard]] constexpr ResourceClass resource_class(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kNeg:
      return ResourceClass::kAddSub;
    case Op::kMul:
      return ResourceClass::kMul;
    case Op::kDiv:
    case Op::kRem:
      return ResourceClass::kDivRem;
    case Op::kEq:
    case Op::kIsZero:
      return ResourceClass::kCmp;
    default:
      return ResourceClass::kLogic;
  }
}

[[nodiscard]] constexpr std::string_view to_string(ResourceClass c) {
  switch (c) {
    case ResourceClass::kAddSub:
      return "addsub";
    case ResourceClass::kMul:
      return "mul";
    case ResourceClass::kDivRem:
      return "divrem";
    case ResourceClass::kCmp:
      return "cmp";
    case ResourceClass::kLogic:
      return "logic";
  }
  SCK_UNREACHABLE();
}

/// Per-class unit limits for the shared pool. -1 = unlimited. The 1-bit
/// error-reduction logic is glue, not a datapath unit; it is always
/// unlimited (and scheduled with its producers).
struct ResourceConstraints {
  int addsub = -1;
  int mul = -1;
  int divrem = -1;
  int cmp = -1;

  [[nodiscard]] int limit(ResourceClass c) const {
    switch (c) {
      case ResourceClass::kAddSub:
        return addsub;
      case ResourceClass::kMul:
        return mul;
      case ResourceClass::kDivRem:
        return divrem;
      case ResourceClass::kCmp:
        return cmp;
      case ResourceClass::kLogic:
        return -1;
    }
    return -1;
  }

  /// The classic minimum-area datapath: one unit of each class.
  [[nodiscard]] static ResourceConstraints min_area() {
    return ResourceConstraints{1, 1, 1, 1};
  }
  /// Unlimited resources (minimum latency).
  [[nodiscard]] static ResourceConstraints min_latency() {
    return ResourceConstraints{};
  }
};

/// A schedule: control step per node (-1 for unscheduled node kinds) and
/// the total number of steps (the per-sample initiation interval).
struct Schedule {
  std::vector<int> step_of;
  int num_steps = 0;

  [[nodiscard]] int step(NodeId id) const {
    return step_of[static_cast<std::size_t>(id)];
  }
};

/// Unconstrained as-soon-as-possible schedule.
[[nodiscard]] Schedule schedule_asap(const Dfg& g);

/// As-late-as-possible schedule within `latency` steps (>= ASAP length).
[[nodiscard]] Schedule schedule_alap(const Dfg& g, int latency);

/// Resource-constrained list scheduling with ALAP-slack priority.
[[nodiscard]] Schedule schedule_list(const Dfg& g,
                                     const ResourceConstraints& constraints);

/// Sanity checks: data dependencies respected, resource limits honoured
/// (including per-check-group limits). Aborts on violation.
void validate_schedule(const Dfg& g, const Schedule& s,
                       const ResourceConstraints& constraints);

}  // namespace sck::hls

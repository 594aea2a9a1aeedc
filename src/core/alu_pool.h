// Functional-unit pool with an allocation policy.
//
// §2.1 of the paper observes that the achieved coverage depends on *where*
// the hidden control executes: "using a multi functional resource system
// and a proper allocation/scheduling policy it is possible to achieve a
// 100% fault coverage if different functional units perform the two
// operations", while a mono-processor / resource-limited system may run
// both on the same faulty unit. The AluPool makes that policy explicit:
//
//   kSharedSingle : nominal and check operations share one unit instance
//                   (the paper's worst case, the one §4 quantifies);
//   kDistinct     : checks run on a second, independent instance
//                   (the paper's 100%-coverage case);
//   kRoundRobin   : requests alternate between the two instances regardless
//                   of role (a scheduler that is oblivious to checking —
//                   coverage lands between the two extremes).
//
// Faults are injected into the *primary* instance; the secondary instance
// is always fault-free (single-functional-unit-failure model).
#pragma once

#include <memory>

#include "common/assert.h"
#include "core/ops_native.h"
#include "hw/array_multiplier.h"
#include "hw/fault_site.h"
#include "hw/restoring_divider.h"
#include "hw/ripple_carry_adder.h"

namespace sck {

/// How the pool maps operation roles onto unit instances.
enum class AllocationPolicy : unsigned char {
  kSharedSingle,
  kDistinct,
  kRoundRobin,
};

/// Unit classes the pool manages.
enum class UnitKind : unsigned char { kAdder, kMultiplier, kDivider };

[[nodiscard]] constexpr std::string_view to_string(AllocationPolicy p) {
  switch (p) {
    case AllocationPolicy::kSharedSingle:
      return "shared-single-unit";
    case AllocationPolicy::kDistinct:
      return "distinct-units";
    case AllocationPolicy::kRoundRobin:
      return "round-robin";
  }
  SCK_UNREACHABLE();
}

/// A pair of instances per unit class plus the allocation policy.
class AluPool {
 public:
  AluPool(int width, AllocationPolicy policy)
      : width_(width),
        policy_(policy),
        adder_{hw::RippleCarryAdder(width), hw::RippleCarryAdder(width)},
        mult_{hw::ArrayMultiplier(width), hw::ArrayMultiplier(width)},
        div_{hw::RestoringDivider(width), hw::RestoringDivider(width)} {}

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] AllocationPolicy policy() const { return policy_; }

  [[nodiscard]] const hw::RippleCarryAdder& adder(OpRole role) {
    return adder_[pick(role, rr_adder_)];
  }
  [[nodiscard]] const hw::ArrayMultiplier& multiplier(OpRole role) {
    return mult_[pick(role, rr_mult_)];
  }
  [[nodiscard]] const hw::RestoringDivider& divider(OpRole role) {
    return div_[pick(role, rr_div_)];
  }

  /// Inject a fault into the primary instance of `kind`.
  void inject(UnitKind kind, const hw::FaultSite& site) {
    primary(kind).set_fault(site);
  }

  /// Direct access to the primary instance (fault-universe enumeration).
  [[nodiscard]] hw::FaultableUnit& primary(UnitKind kind) {
    switch (kind) {
      case UnitKind::kAdder:
        return adder_[0];
      case UnitKind::kMultiplier:
        return mult_[0];
      case UnitKind::kDivider:
        return div_[0];
    }
    SCK_ASSERT(false);
    return adder_[0];
  }

 private:
  [[nodiscard]] std::size_t pick(OpRole role, unsigned& rr) const {
    switch (policy_) {
      case AllocationPolicy::kSharedSingle:
        return 0;
      case AllocationPolicy::kDistinct:
        return role == OpRole::kNominal ? 0 : 1;
      case AllocationPolicy::kRoundRobin:
        return (rr++) & 1u;
    }
    return 0;
  }

  int width_;
  AllocationPolicy policy_;
  hw::RippleCarryAdder adder_[2];
  hw::ArrayMultiplier mult_[2];
  hw::RestoringDivider div_[2];
  mutable unsigned rr_adder_ = 0;
  mutable unsigned rr_mult_ = 0;
  mutable unsigned rr_div_ = 0;
};

}  // namespace sck

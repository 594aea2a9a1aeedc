// Fault-duration models: permanent, transient and intermittent faults.
//
// §2 of the paper: "Both permanent and transient and intermittent faults
// are covered by our approach, the latter increasingly likely to occur in
// any integrated device". The base trials of fault/trials.h model the
// permanent case (the fault persists through the nominal operation and its
// hidden control — the §4 worst case). The wrappers here re-run the same
// checked operations while toggling the injected fault per operation phase:
//
//   kTransient    the fault is active during the nominal operation only
//                 (a particle strike that has decayed by the time the
//                 control executes). Any observable error is then caught —
//                 coverage is exactly 100%, the same mechanism as the
//                 distinct-unit allocation;
//   kIntermittent the fault is active during any given operation with a
//                 duty probability (a marginal contact, a noisy supply).
//                 Masking needs the fault active during the nominal *and*
//                 compensating during the check, so coverage interpolates
//                 between the transient and permanent extremes.
//
// The wrappers restore the campaign's injected fault before returning, so
// they compose with run_exhaustive / run_sampled unchanged.
//
// Determinism discipline: every duty decision is a STATELESS hash of
// (duty seed, decision index) — duration models never draw from the
// campaign RNG, so switching a trial between permanent, transient and
// intermittent cannot perturb the seeded operand streams of an existing
// campaign (tests/test_duration.cpp pins this), and the same derivation
// is thread/lane/backend-invariant when the netlist campaign engine
// reuses it per (fault index, sample index).
#pragma once

#include <cstdint>

#include "common/assert.h"
#include "common/word.h"
#include "fault/outcome.h"
#include "fault/technique.h"
#include "hw/comparator.h"
#include "hw/fault_site.h"

namespace sck::fault {

/// How long the injected fault stays active.
enum class FaultDuration : unsigned char {
  kPermanent,
  kTransient,
  kIntermittent,
};
/// The last FaultDuration: the bound a decoded duration is checked against.
[[nodiscard]] constexpr FaultDuration enum_last(FaultDuration) {
  return FaultDuration::kIntermittent;
}

/// Stateless SplitMix64-style avalanche over (seed, a, b): the single
/// derivation behind every duty/window decision. A pure function of its
/// inputs — no hidden stream position — so any two executions that agree
/// on (seed, a, b) agree on the decision, regardless of evaluation order,
/// thread count, lane packing or backend.
[[nodiscard]] constexpr std::uint64_t duration_hash(std::uint64_t seed,
                                                    std::uint64_t a,
                                                    std::uint64_t b = 0) {
  std::uint64_t x = seed ^ (a + 1) * 0x9E3779B97F4A7C15ULL ^
                    (b + 1) * 0xD1B54A32D192ED03ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic per-mille duty stream for intermittent faults: decision
/// `at` is duration_hash(seed, at) % 1000, a pure function of the pair.
/// Trials advance `at` per phase, so consecutive operations see fresh
/// draws — but the stream is completely decoupled from every operand RNG
/// (duration-model-invariant campaign streams by construction).
struct DutyStream {
  std::uint64_t seed = 0;
  std::uint64_t at = 0;

  [[nodiscard]] std::uint32_t next_permille() {
    return static_cast<std::uint32_t>(duration_hash(seed, at++) % 1000);
  }
};

[[nodiscard]] constexpr std::string_view to_string(FaultDuration d) {
  switch (d) {
    case FaultDuration::kPermanent:
      return "permanent";
    case FaultDuration::kTransient:
      return "transient";
    case FaultDuration::kIntermittent:
      return "intermittent";
  }
  SCK_UNREACHABLE();
}

/// Per-trial fault toggling for one unit. Captures the campaign-injected
/// fault on construction and restores it on destruction; phase() arms or
/// disarms the fault for the next operation according to the duration
/// model.
template <typename Unit>
class FaultWindow {
 public:
  FaultWindow(Unit& unit, FaultDuration duration, DutyStream* duty,
              std::uint32_t duty_permille)
      : unit_(unit),
        injected_(unit.fault()),
        duration_(duration),
        duty_(duty),
        duty_permille_(duty_permille) {}

  ~FaultWindow() { unit_.set_fault(injected_); }

  FaultWindow(const FaultWindow&) = delete;
  FaultWindow& operator=(const FaultWindow&) = delete;

  /// Arm/disarm before an operation. `nominal` marks the nominal phase.
  /// Only kIntermittent consults the duty stream — and that stream is its
  /// own, hash-derived — so no duration model ever consumes a draw from
  /// the campaign's operand RNG.
  void phase(bool nominal) {
    bool active = false;
    switch (duration_) {
      case FaultDuration::kPermanent:
        active = true;
        break;
      case FaultDuration::kTransient:
        active = nominal;
        break;
      case FaultDuration::kIntermittent:
        active = duty_ != nullptr && duty_->next_permille() < duty_permille_;
        break;
    }
    if (active) {
      unit_.set_fault(injected_);
    } else {
      unit_.clear_fault();
    }
  }

 private:
  Unit& unit_;
  hw::FaultSite injected_;
  FaultDuration duration_;
  DutyStream* duty_;
  std::uint32_t duty_permille_;
};

/// Checked addition under a fault-duration model (Tech1/Tech2/Both only;
/// the residue path needs the carry phase-coupled and is covered by the
/// base trial for the permanent case).
template <typename Adder>
struct DurationAddTrial {
  Adder& adder;  // toggled per phase; campaign injects the fault
  Technique tech = Technique::kTech1;
  FaultDuration duration = FaultDuration::kTransient;
  DutyStream* duty = nullptr;       // required for kIntermittent
  std::uint32_t duty_permille = 500;

  [[nodiscard]] Outcome operator()(Word a, Word b) const {
    SCK_EXPECTS(tech != Technique::kResidue3);
    const int n = adder.width();
    const Word golden = sck::add(a, b, n);
    FaultWindow<Adder> window(adder, duration, duty, duty_permille);

    window.phase(/*nominal=*/true);
    const Word ris = adder.add(a, b);
    bool ok = true;
    if (uses_tech1(tech)) {
      window.phase(false);
      ok = ok && hw::equal(adder.sub(ris, a), b, n);
    }
    if (uses_tech2(tech)) {
      window.phase(false);
      ok = ok && hw::equal(adder.sub(ris, b), a, n);
    }
    return classify(ris != golden, ok);
  }
};

/// Checked subtraction under a fault-duration model.
template <typename Adder>
struct DurationSubTrial {
  Adder& adder;
  Technique tech = Technique::kTech1;
  FaultDuration duration = FaultDuration::kTransient;
  DutyStream* duty = nullptr;
  std::uint32_t duty_permille = 500;

  [[nodiscard]] Outcome operator()(Word a, Word b) const {
    SCK_EXPECTS(tech != Technique::kResidue3);
    const int n = adder.width();
    const Word golden = sck::sub(a, b, n);
    FaultWindow<Adder> window(adder, duration, duty, duty_permille);

    window.phase(true);
    const Word ris = adder.sub(a, b);
    bool ok = true;
    if (uses_tech1(tech)) {
      window.phase(false);
      ok = ok && hw::equal(adder.add(ris, b), a, n);
    }
    if (uses_tech2(tech)) {
      window.phase(false);
      const Word risp = adder.sub(b, a);
      window.phase(false);
      ok = ok && hw::is_zero(adder.add(ris, risp), n);
    }
    return classify(ris != golden, ok);
  }
};

}  // namespace sck::fault

// Fault-injection campaign drivers.
//
// A campaign evaluates one checked operation (a trial functor from
// fault/trials.h) against the complete fault universe of the units it
// involves. Per the single-functional-unit-failure model, exactly one unit
// hosts exactly one fault at a time; the drivers iterate faults over every
// registered unit while keeping the others fault-free.
//
// Two drivers are provided:
//  - run_exhaustive: sweeps every (fault, input-pair) combination; the trial
//    count then equals  |universe| * 2^(2n)  — the paper's fault-situation
//    formula (Table 2, column 2). Feasible up to ~8-bit operands.
//  - run_sampled: seeded Monte-Carlo over the same space for wider operands
//    (the paper's 16-bit row); bit-reproducible via the explicit seed.
// Each has a batched twin (run_exhaustive_batched, run_sampled_batched)
// that evaluates W input pairs per bitwise op and returns a bit-identical
// CampaignResult.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "common/word.h"
#include "fault/batch.h"
#include "fault/stats.h"
#include "hw/fault_site.h"
#include "hw/unit.h"

namespace sck::fault {

/// Statistics attributed to one specific fault in one unit.
struct PerFaultStats {
  int unit_index = 0;  ///< index into the campaign's unit list
  hw::FaultSite site;
  CampaignStats stats;
};

/// Aggregate result of a campaign.
struct CampaignResult {
  CampaignStats aggregate;
  std::vector<PerFaultStats> per_fault;  ///< one entry per fault in the universe
  std::uint64_t fault_universe_size = 0;

  /// Coverage spread across faults that produce at least one observable
  /// error (the paper's "[81.90%, 99.87%]" remark for the ripple adder).
  double min_fault_coverage = 1.0;
  double max_fault_coverage = 1.0;
  bool has_observable_fault = false;
};

/// Options shared by both drivers.
struct CampaignOptions {
  bool skip_b_zero = false;      ///< exclude op2 == 0 (division campaigns)
  bool keep_per_fault = false;   ///< retain the per-fault breakdown

  /// Lane count for the batched drivers: 0 takes hw::kDefaultLanes
  /// (hw/plane.h), else one of {64, 128, 256, 512}. Results are
  /// bit-identical at every width; this only sizes the batches.
  int lanes = 0;
};

namespace detail {

inline void finish_fault(CampaignResult& result, int unit_index,
                         const hw::FaultSite& site, const CampaignStats& fs,
                         const CampaignOptions& opt) {
  result.aggregate += fs;
  if (fs.observable_errors() > 0) {
    const double c = fs.coverage();
    if (!result.has_observable_fault) {
      result.min_fault_coverage = c;
      result.max_fault_coverage = c;
      result.has_observable_fault = true;
    } else {
      if (c < result.min_fault_coverage) result.min_fault_coverage = c;
      if (c > result.max_fault_coverage) result.max_fault_coverage = c;
    }
  }
  if (opt.keep_per_fault) {
    result.per_fault.push_back(PerFaultStats{unit_index, site, fs});
  }
}

inline void clear_all(std::span<hw::FaultableUnit* const> units) {
  for (hw::FaultableUnit* u : units) u->clear_fault();
}

/// One fault of the combined universe: the unit's index in the campaign's
/// unit list plus the site inside that unit.
struct UniverseEntry {
  int unit_index;
  hw::FaultSite site;
};

/// The combined fault universe in canonical order (unit-major, each unit's
/// own fault_universe() order). Every driver — exhaustive and sampled,
/// scalar and batched — must enumerate through this single helper: the
/// order IS the reduction order the bit-identical guarantee rests on.
inline std::vector<UniverseEntry> enumerate_universe(
    std::span<hw::FaultableUnit* const> units) {
  std::vector<UniverseEntry> universe;
  for (int ui = 0; ui < static_cast<int>(units.size()); ++ui) {
    for (const hw::FaultSite& site :
         units[static_cast<std::size_t>(ui)]->fault_universe()) {
      universe.push_back(UniverseEntry{ui, site});
    }
  }
  return universe;
}

}  // namespace detail

/// Exhaustive sweep: every fault of every unit crossed with every input
/// pair of the given operand width.
///
/// Fault collapsing: an unexcitable fault (stuck value equal to the golden
/// truth-table entry) leaves the unit bit-identical to fault-free hardware,
/// so its trials are the fault-free trials. The driver first sweeps the
/// fault-free configuration once, verifies the trial is silent on it (our
/// checks must not false-alarm), and then credits every unexcitable fault
/// with an all-silent sweep instead of simulating it — a provably exact
/// optimisation that roughly halves campaign time.
template <typename Trial>
CampaignResult run_exhaustive(std::span<hw::FaultableUnit* const> units,
                              int width, const Trial& trial,
                              const CampaignOptions& opt = {}) {
  SCK_EXPECTS(!units.empty());
  SCK_EXPECTS(width >= 1 && width <= 16);  // 2^(2*16) trials is the ceiling
  detail::clear_all(units);

  // Fault-free validation sweep: every trial must be silent.
  const Word limit = Word{1} << width;
  const Word b_first = opt.skip_b_zero ? 1 : 0;
  std::uint64_t inputs_per_fault = 0;
  for (Word a = 0; a < limit; ++a) {
    for (Word b = b_first; b < limit; ++b) {
      const Outcome o = trial(a, b);
      SCK_ASSERT(o == Outcome::kSilentCorrect &&
                 "trial must be silent on fault-free hardware");
      ++inputs_per_fault;
    }
  }

  CampaignResult result;
  for (const detail::UniverseEntry& e : detail::enumerate_universe(units)) {
    hw::FaultableUnit& unit = *units[static_cast<std::size_t>(e.unit_index)];
    CampaignStats fs;
    if (!unit.fault_excitable(e.site)) {
      fs.silent_correct = inputs_per_fault;
    } else {
      unit.set_fault(e.site);
      for (Word a = 0; a < limit; ++a) {
        for (Word b = b_first; b < limit; ++b) fs.record(trial(a, b));
      }
      unit.clear_fault();
    }
    ++result.fault_universe_size;
    detail::finish_fault(result, e.unit_index, e.site, fs, opt);
  }
  return result;
}

/// Exhaustive sweep through the wide bit-parallel engine: identical
/// semantics and bit-identical CampaignResult to run_exhaustive (same
/// universe order, same collapsing, same counters), but evaluating W
/// input pairs per bitwise op, where W = resolve_lanes(opt.lanes). `trial`
/// is a batched functor from fault/batch_trials.h (or any callable
/// (BatchWordT<P>, BatchWordT<P>) -> LaneVerdictT<P> whose lanes match the
/// scalar trial at every plane type).
template <typename BatchTrial>
CampaignResult run_exhaustive_batched(
    std::span<hw::FaultableUnit* const> units, int width,
    const BatchTrial& trial, const CampaignOptions& opt = {}) {
  SCK_EXPECTS(!units.empty());
  SCK_EXPECTS(width >= 1 && width <= 16);

  const int lanes = hw::resolve_lanes(opt.lanes);
  return hw::dispatch_plane(lanes, [&]<typename P>(std::type_identity<P>) {
    CampaignResult result;
    const ExhaustivePlanT<P> plan(width, opt.skip_b_zero);
    const std::uint64_t inputs_per_fault = plan.trials_per_fault();
    // Fault-free validation sweep: every trial must be silent.
    for (std::uint64_t k = 0; k < plan.batches(); ++k) {
      const LaneBatchT<P> in = plan.batch(k);
      const LaneVerdictT<P> v = trial(in.a, in.b);
      SCK_ASSERT(!hw::plane_any((v.erroneous | v.check_failed) & in.valid) &&
                 "trial must be silent on fault-free hardware");
    }

    for (const detail::UniverseEntry& e : detail::enumerate_universe(units)) {
      hw::FaultableUnit& unit =
          *units[static_cast<std::size_t>(e.unit_index)];
      CampaignStats fs;
      if (!unit.fault_excitable(e.site)) {
        fs.silent_correct = inputs_per_fault;
      } else {
        // The fault sits on every lane of a table installed for the sweep.
        hw::LaneFaultSetT<P> table(unit.cell_count());
        hw::install_lane_fault(unit, table, e.site, hw::plane_ones<P>());
        for (std::uint64_t k = 0; k < plan.batches(); ++k) {
          const LaneBatchT<P> in = plan.batch(k);
          record_lanes(fs, trial(in.a, in.b), in.valid);
        }
        unit.set_lane_faults(nullptr);
      }
      ++result.fault_universe_size;
      detail::finish_fault(result, e.unit_index, e.site, fs, opt);
    }
    return result;
  });
}

/// Seeded Monte-Carlo sweep: `samples` trials with fault and inputs drawn
/// uniformly from the same space run_exhaustive enumerates.
template <typename Trial>
CampaignResult run_sampled(std::span<hw::FaultableUnit* const> units,
                           int width, const Trial& trial,
                           std::uint64_t samples, std::uint64_t seed,
                           const CampaignOptions& opt = {}) {
  SCK_EXPECTS(!units.empty());
  SCK_EXPECTS(width >= 1 && width <= kMaxWidth);
  detail::clear_all(units);

  // Materialise the combined universe once so draws are uniform across units.
  const std::vector<detail::UniverseEntry> universe =
      detail::enumerate_universe(units);
  SCK_ASSERT(!universe.empty());

  std::vector<CampaignStats> per_fault(universe.size());
  Xoshiro256 rng(seed);
  const Word limit = Word{1} << width;
  int active_unit = -1;
  std::size_t active_fault = universe.size();
  for (std::uint64_t s = 0; s < samples; ++s) {
    const auto k = static_cast<std::size_t>(rng.bounded(universe.size()));
    if (k != active_fault) {
      if (active_unit >= 0) {
        units[static_cast<std::size_t>(active_unit)]->clear_fault();
      }
      units[static_cast<std::size_t>(universe[k].unit_index)]->set_fault(
          universe[k].site);
      active_unit = universe[k].unit_index;
      active_fault = k;
    }
    const Word a = rng.bounded(limit);
    const Word b = opt.skip_b_zero ? 1 + rng.bounded(limit - 1)
                                   : rng.bounded(limit);
    per_fault[k].record(trial(a, b));
  }
  detail::clear_all(units);

  CampaignResult result;
  result.fault_universe_size = universe.size();
  for (std::size_t k = 0; k < universe.size(); ++k) {
    detail::finish_fault(result, universe[k].unit_index, universe[k].site,
                         per_fault[k], opt);
  }
  return result;
}

/// Batched twin of run_sampled, bit-identical by construction: it replays
/// the exact (fault, a, b) draw sequence of the scalar driver, then —
/// since every trial is a pure function of (fault, a, b) and the counters
/// commute — buckets the draws by fault (in chunks, to bound memory) and
/// evaluates each fault's inputs W lanes at a time.
template <typename BatchTrial>
CampaignResult run_sampled_batched(std::span<hw::FaultableUnit* const> units,
                                   int width, const BatchTrial& trial,
                                   std::uint64_t samples, std::uint64_t seed,
                                   const CampaignOptions& opt = {}) {
  SCK_EXPECTS(!units.empty());
  SCK_EXPECTS(width >= 1 && width <= kMaxWidth);

  const std::vector<detail::UniverseEntry> universe =
      detail::enumerate_universe(units);
  SCK_ASSERT(!universe.empty());

  std::vector<CampaignStats> per_fault(universe.size());
  Xoshiro256 rng(seed);
  const Word limit = Word{1} << width;
  const int lanes = hw::resolve_lanes(opt.lanes);
  int max_cells = 0;  // one lane-fault table serves every unit
  for (const hw::FaultableUnit* u : units) {
    max_cells = std::max(max_cells, u->cell_count());
  }

  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  std::vector<std::uint32_t> fault_of;     // draw -> fault index
  std::vector<std::uint64_t> pair_of;      // draw -> a | b << 32
  std::vector<std::uint32_t> bucket_pos;   // CSR offsets per fault
  std::vector<std::uint64_t> bucketed;     // pairs grouped by fault
  std::uint64_t remaining = samples;
  while (remaining > 0) {
    const std::uint64_t chunk = remaining < kChunk ? remaining : kChunk;
    remaining -= chunk;

    fault_of.resize(chunk);
    pair_of.resize(chunk);
    for (std::uint64_t s = 0; s < chunk; ++s) {
      const auto k = static_cast<std::uint32_t>(rng.bounded(universe.size()));
      const Word a = rng.bounded(limit);
      const Word b = opt.skip_b_zero ? 1 + rng.bounded(limit - 1)
                                     : rng.bounded(limit);
      fault_of[s] = k;
      pair_of[s] = a | (b << 32);
    }

    // Counting sort by fault index.
    bucket_pos.assign(universe.size() + 1, 0);
    for (std::uint64_t s = 0; s < chunk; ++s) ++bucket_pos[fault_of[s] + 1];
    for (std::size_t k = 1; k <= universe.size(); ++k) {
      bucket_pos[k] += bucket_pos[k - 1];
    }
    bucketed.resize(chunk);
    {
      std::vector<std::uint32_t> cursor(bucket_pos.begin(),
                                        bucket_pos.end() - 1);
      for (std::uint64_t s = 0; s < chunk; ++s) {
        bucketed[cursor[fault_of[s]]++] = pair_of[s];
      }
    }

    hw::dispatch_plane(lanes, [&]<typename P>(std::type_identity<P>) {
      constexpr auto kWidthLanes =
          static_cast<std::uint32_t>(hw::PlaneTraits<P>::kLanes);
      hw::LaneFaultSetT<P> table(max_cells);
      for (std::size_t k = 0; k < universe.size(); ++k) {
        const std::uint32_t lo = bucket_pos[k];
        const std::uint32_t hi = bucket_pos[k + 1];
        if (lo == hi) continue;
        hw::FaultableUnit* unit =
            units[static_cast<std::size_t>(universe[k].unit_index)];
        table.clear();
        hw::install_lane_fault(*unit, table, universe[k].site,
                               hw::plane_ones<P>());
        for (std::uint32_t base = lo; base < hi; base += kWidthLanes) {
          const int count = static_cast<int>(
              hi - base < kWidthLanes ? hi - base : kWidthLanes);
          LaneBatchT<P> in;
          pack_pairs(bucketed.data() + base, count, width, in.a, in.b);
          in.valid = hw::plane_prefix<P>(count);
          record_lanes(per_fault[k], trial(in.a, in.b), in.valid);
        }
        unit->set_lane_faults(nullptr);
      }
    });
  }

  CampaignResult result;
  result.fault_universe_size = universe.size();
  for (std::size_t k = 0; k < universe.size(); ++k) {
    detail::finish_fault(result, universe[k].unit_index, universe[k].site,
                         per_fault[k], opt);
  }
  return result;
}

}  // namespace sck::fault

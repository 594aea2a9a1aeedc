// Kernel-generic design-space exploration over the reliable co-design
// grid — the paper's Fig. 3 loop, run in bulk.
//
// A DesignPoint is one candidate realization: kernel x protection variant
// x synthesis objective x data width. The Explorer synthesizes each point
// through the HLS substrate (builder -> schedule -> bind -> netlist ->
// area/time model), caches the synthesized design keyed by point, measures
// its realization-level fault coverage through the system-level campaign
// engine (hls::run_netlist_campaign with ExplorerOptions::campaign as
// given — ONE shared input stream, by default replayed by the golden-trace
// incremental backend, sharded across fault/parallel.h and reduced in
// fault-index order), and extracts the Pareto frontier over (area,
// latency, coverage).
//
// Determinism: every per-point evaluation depends only on the point and
// the options — synthesis is a pure function of the DFG and the campaign
// is bit-identical at any backend/lane/thread count — and results are
// written into grid-index slots, so the ExplorationReport is invariant
// under the campaign thread count, the point evaluation order AND the
// point-sharding pool size (point_threads shards whole points across
// fault::parallel_shard; tests/test_explorer.cpp proves it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "codesign/kernel.h"
#include "fault/stats.h"
#include "hls/area_time.h"
#include "hls/netlist.h"
#include "hls/netlist_campaign.h"
#include "store/store.h"

namespace sck::codesign {

/// One candidate realization of the co-design grid.
struct DesignPoint {
  std::string kernel;  ///< registry name
  Variant variant = Variant::kPlain;
  bool min_area = true;  ///< synthesis objective (false = min latency)
  int width = 16;

  friend bool operator==(const DesignPoint&, const DesignPoint&) = default;
};

/// "fir/sck/min_area/w16" — stable label for tables, JSON and cache keys.
[[nodiscard]] std::string to_string(const DesignPoint& p);

/// Cross-product grid description; points() enumerates kernel-major, then
/// variant, objective, width — a fixed order the report's slots follow.
struct DesignGrid {
  std::vector<std::string> kernels;
  std::vector<Variant> variants{Variant::kPlain, Variant::kSck,
                                Variant::kEmbedded};
  std::vector<bool> objectives{true, false};  ///< min_area values
  std::vector<int> widths{16};

  [[nodiscard]] std::vector<DesignPoint> points() const;
};

/// Report-format generation of the coverage leg, emitted into the explorer
/// JSON as "report_version": ONE (seed, sample index)-keyed input stream
/// shared by every fault. (Version 1, per-fault streams, is retired.)
inline constexpr int kSharedStreamReportVersion = 2;

struct ExplorerOptions {
  /// Coverage-leg campaign, run as given except that `threads` is divided
  /// by the point-sharding pool size. With campaign.fault_dropping the
  /// four-way totals shrink, so per-point coverage() answers the cheaper
  /// "is every fault ever detected?" query — do not compare such reports
  /// against full-taxonomy runs.
  hls::NetlistCampaignOptions campaign;
  bool coverage = true;     ///< false = HW-only sweep (area/latency map)
  std::size_t sw_samples = 0;  ///< per-kernel SW leg workload; 0 = skip
  /// Worker threads sharding WHOLE design points across the grid (0 = all
  /// hardware threads): synthesis stays sequential (it fills the caches),
  /// then each point's coverage campaign runs on its own worker with
  /// grid-index-slot reduction. The per-point campaign thread budget is
  /// divided by the pool size so point-level x campaign-level threads do
  /// not oversubscribe; campaigns are thread-invariant, so the report is
  /// bit-identical to the sequential evaluation at any value.
  int point_threads = 1;
  /// Testing knob: evaluate grid indices in this order (must be a
  /// permutation of the grid). Empty = natural order. The report is
  /// invariant under this order by construction.
  std::vector<std::size_t> evaluation_order;
  /// Persistent content-addressed campaign-result store (store/store.h).
  /// Empty = off. When set, each point's coverage campaign is keyed by a
  /// stable fingerprint of its inputs (graph, compiled plan, fault
  /// universe and every result-shaping option) and served from
  /// disk on a verified hit — byte-identical to recomputing, because
  /// campaigns are deterministic. Corrupt or stale entries are quarantined
  /// and recomputed, an unusable directory degrades to uncached execution;
  /// the report's numbers can never depend on the cache state. Benches and
  /// CI enable this via SCK_STORE_DIR (store::store_dir_from_env).
  std::string store_dir;
  /// Post-run store size budget in bytes (0 = unlimited): after the grid
  /// completes, committed entries are evicted oldest-first until the store
  /// fits (CampaignStore::trim; counted in CacheStats::evicted).
  std::uint64_t store_max_bytes = 0;
};

/// One synthesized realization (cached inside the Explorer).
struct SynthesizedPoint {
  DesignPoint point;
  hls::Netlist netlist;
  hls::HwReport report;
};

/// Result of evaluating one design point.
struct PointResult {
  DesignPoint point;
  hls::HwReport hw;
  fault::CampaignStats stats;  ///< realization-level coverage counters
  std::uint64_t faults = 0;    ///< FU stuck-at universe size swept
  bool on_frontier = false;

  [[nodiscard]] double coverage() const { return stats.coverage(); }
};

/// SW leg of one kernel (host measurements of its variants).
struct KernelSwLeg {
  std::string kernel;
  std::vector<SwReport> reports;
};

struct ExplorationReport {
  std::vector<PointResult> points;      ///< grid order
  std::vector<std::size_t> frontier;    ///< indices into points, ascending
  std::vector<KernelSwLeg> software;    ///< kernel first-appearance order
  /// Which coverage-leg semantics produced the numbers (always
  /// kSharedStreamReportVersion).
  int report_version = kSharedStreamReportVersion;
  /// Result-store telemetry (ExplorerOptions::store_dir). Deliberately NOT
  /// part of the report's scientific payload: hits are byte-identical to
  /// recomputes, so these counters describe cost, never results — the
  /// differential gates compare reports with the store block excluded.
  bool store_enabled = false;
  store::CacheStats store_stats;
};

/// One point's position in the (minimize, minimize, maximize) trade-off
/// space the frontier is extracted over.
struct ParetoMetrics {
  double area = 0.0;      ///< estimated CLB slices (minimize)
  double latency = 0.0;   ///< control steps per sample (minimize)
  double coverage = 0.0;  ///< realization-level fault coverage (maximize)
};

/// Indices of the non-dominated points, ascending. A point is dominated if
/// another is no worse on every axis and strictly better on at least one;
/// metric-identical duplicates are all kept.
[[nodiscard]] std::vector<std::size_t> pareto_frontier(
    const std::vector<ParetoMetrics>& points);

class Explorer {
 public:
  /// The registry must outlive the explorer (binding a temporary is a
  /// compile error, not a dangling reference).
  Explorer(const KernelRegistry& registry, ExplorerOptions options);
  Explorer(const KernelRegistry&& registry, ExplorerOptions options) = delete;

  /// Synthesizes one point (cached: repeated calls return the same
  /// design). Returned reference lives as long as the explorer.
  const SynthesizedPoint& synthesize(const DesignPoint& point);

  /// Reference (fault-free) graph of one point's kernel x width x variant
  /// — the campaign's golden model. Cached and shared across objectives.
  const hls::Dfg& reference_graph(const DesignPoint& point);

  /// Evaluates every grid point (synthesis + coverage leg), extracts the
  /// Pareto frontier and runs the per-kernel SW leg.
  [[nodiscard]] ExplorationReport run(const std::vector<DesignPoint>& grid);

  [[nodiscard]] std::size_t cache_size() const { return designs_.size(); }
  [[nodiscard]] const KernelRegistry& registry() const { return registry_; }
  [[nodiscard]] const ExplorerOptions& options() const { return options_; }

 private:
  const KernelRegistry& registry_;
  ExplorerOptions options_;
  // node-based maps: references handed out stay valid across inserts.
  std::map<std::string, SynthesizedPoint> designs_;
  std::map<std::string, hls::Dfg> graphs_;
};

}  // namespace sck::codesign

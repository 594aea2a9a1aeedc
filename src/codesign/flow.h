// The reliable co-design flow of the paper's Fig. 3 for the FIR case
// study — now a thin wrapper over the kernel-generic exploration pipeline
// (codesign/kernel.h + codesign/explorer.h). The entry points and their
// reports are bit-identical to the pre-refactor FIR-only flow
// (tests/test_explorer.cpp holds them against an inline replica of the
// legacy synthesis path); new workloads should register a KernelSpec and
// drive the Explorer directly instead of forking these wrappers.
//
// The flow evaluates the same three FIR variants Table 3 compares:
//
//   kPlain     the unprotected specification,
//   kSck       SCK<int> data types (class-based CED, transparent but
//              expensive in hardware),
//   kEmbedded  hand-embedded accumulation checks.
#pragma once

#include <string>
#include <vector>

#include "codesign/explorer.h"
#include "codesign/kernel.h"
#include "codesign/variant.h"
#include "fault/stats.h"
#include "hls/area_time.h"
#include "hls/builder.h"
#include "hls/netlist.h"
#include "hls/netlist_campaign.h"

namespace sck::codesign {

/// Hardware leg: synthesize one FIR variant under one objective.
struct HwDesign {
  Variant variant = Variant::kPlain;
  bool min_area = true;
  hls::Netlist netlist;
  hls::HwReport report;
};

[[nodiscard]] HwDesign synthesize_fir(const hls::FirSpec& spec,
                                      Variant variant, bool min_area);

/// The full Fig. 3 flow: all six hardware designs plus the three software
/// measurements for one FIR specification. (SwReport and measure_fir_sw
/// live in codesign/kernel.h — the SW leg is kernel-generic now.)
struct FlowReport {
  std::vector<HwDesign> hardware;  // 3 variants x {min-area, min-latency}
  std::vector<SwReport> software;  // 3 variants
  /// The FIR flow wrapper is pinned to the pre-bump (PR 3/4) coverage
  /// semantics: evaluate_flow_coverage runs the caller's campaign options
  /// verbatim, so FlowReport/CoverageReport stay byte-identical to every
  /// legacy report (tests/test_explorer.cpp holds this). Drive the
  /// Explorer directly for report_version 2 coverage.
  int report_version = kLegacyReportVersion;
};

[[nodiscard]] FlowReport run_fir_flow(const hls::FirSpec& spec,
                                      std::size_t sw_samples);

/// Reliability leg of the design-space exploration: the realization-level
/// fault coverage of one synthesized design, measured by sweeping its
/// complete FU stuck-at universe through the system-level campaign engine
/// (hls/netlist_campaign.h — by default the W-lane bit-plane netlist
/// backend, up to W faults per sweep, multithreaded; bit-identical to the
/// scalar interpreter at any lane packing and thread count).
struct CoverageReport {
  Variant variant = Variant::kPlain;
  bool min_area = true;
  fault::CampaignStats stats;
  std::uint64_t faults = 0;

  [[nodiscard]] double coverage() const { return stats.coverage(); }
};

/// Evaluate every design of `flow` (same spec that produced it). This is
/// the third DSE axis next to area/latency and software overhead: which
/// variant buys how much realization-level coverage for its cost.
[[nodiscard]] std::vector<CoverageReport> evaluate_flow_coverage(
    const hls::FirSpec& spec, const FlowReport& flow,
    const hls::NetlistCampaignOptions& options);

}  // namespace sck::codesign

// JSON serialization of codesign::ExplorationReport (bench_json.h flavour).
//
// Lives next to the bench JSON emitter rather than in src/codesign so the
// library keeps zero bench dependencies; every binary that runs the
// explorer's report as a whole (bench/system_coverage,
// examples/codesign_explorer) shares this one encoding.
#pragma once

#include <string>

#include "bench_json.h"
#include "codesign/explorer.h"

namespace sck::bench {

[[nodiscard]] inline JsonValue to_json(const codesign::PointResult& r) {
  JsonValue p;
  p.set("point", codesign::to_string(r.point))
      .set("kernel", r.point.kernel)
      .set("variant", std::string(codesign::variant_name(r.point.variant)))
      .set("objective", r.point.min_area ? "min_area" : "min_latency")
      .set("width", r.point.width)
      .set("steps", r.hw.steps)
      .set("data_ready_step", r.hw.data_ready_step)
      .set("slices", r.hw.slices)
      .set("fmax_mhz", r.hw.fmax_mhz)
      .set("faults", r.faults)
      .set("samples", r.stats.total())
      .set("detected_erroneous", r.stats.detected_erroneous)
      .set("masked", r.stats.masked)
      .set("coverage", r.coverage())
      .set("on_frontier", r.on_frontier);
  return p;
}

[[nodiscard]] inline JsonValue to_json(const codesign::SwReport& r) {
  JsonValue s;
  s.set("variant", std::string(codesign::variant_name(r.variant)))
      .set("seconds", r.seconds)
      .set("ratio_vs_plain", r.ratio_vs_plain)
      .set("ops_per_sample", r.ops_per_sample)
      .set("checksum", static_cast<std::uint64_t>(r.checksum));
  return s;
}

[[nodiscard]] inline JsonValue to_json(const store::CacheStats& s) {
  JsonValue v;
  v.set("hits", s.hits)
      .set("misses", s.misses)
      .set("corrupt", s.corrupt)
      .set("evicted", s.evicted)
      .set("write_failures", s.write_failures)
      .set("degraded", s.degraded);
  return v;
}

[[nodiscard]] inline JsonValue to_json(
    const codesign::ExplorationReport& report) {
  JsonValue points;
  for (const codesign::PointResult& r : report.points) points.push(to_json(r));
  JsonValue frontier;
  for (const std::size_t i : report.frontier) {
    frontier.push(static_cast<std::uint64_t>(i));
  }
  JsonValue software;
  for (const codesign::KernelSwLeg& leg : report.software) {
    JsonValue l;
    l.set("kernel", leg.kernel);
    JsonValue reports;
    for (const codesign::SwReport& r : leg.reports) reports.push(to_json(r));
    l.set("reports", std::move(reports));
    software.push(std::move(l));
  }
  JsonValue doc;
  // report_version 2 = one shared stimulus stream per campaign (see
  // codesign/explorer.h); version 1 (per-fault streams) is retired.
  doc.set("report_version", report.report_version)
      .set("points", std::move(points))
      .set("pareto_frontier", std::move(frontier))
      .set("software", std::move(software));
  // Cache telemetry, present only when the result store was enabled
  // (byte-compatible artifacts otherwise). The "store" block is cost
  // accounting, not results: differential gates (CI's store-roundtrip
  // step) compare explorer JSON with this one key excluded, because a
  // cold run misses where a warm run hits while every result bit agrees.
  if (report.store_enabled) {
    doc.set("store", to_json(report.store_stats));
  }
  return doc;
}

}  // namespace sck::bench

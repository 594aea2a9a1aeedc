#include "codesign/explorer.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/assert.h"
#include "fault/parallel.h"
#include "hls/bind.h"
#include "hls/netlist_exec.h"
#include "hls/schedule.h"
#include "store/fingerprint.h"

namespace sck::codesign {

std::string to_string(const DesignPoint& p) {
  std::string s = p.kernel;
  s += '/';
  s += variant_name(p.variant);
  s += p.min_area ? "/min_area/w" : "/min_latency/w";
  s += std::to_string(p.width);
  return s;
}

std::vector<DesignPoint> DesignGrid::points() const {
  std::vector<DesignPoint> out;
  out.reserve(kernels.size() * variants.size() * objectives.size() *
              widths.size());
  for (const std::string& k : kernels) {
    for (const Variant v : variants) {
      for (const bool min_area : objectives) {
        for (const int w : widths) {
          out.push_back(DesignPoint{k, v, min_area, w});
        }
      }
    }
  }
  return out;
}

std::vector<std::size_t> pareto_frontier(
    const std::vector<ParetoMetrics>& points) {
  const auto dominates = [](const ParetoMetrics& a, const ParetoMetrics& b) {
    return a.area <= b.area && a.latency <= b.latency &&
           a.coverage >= b.coverage &&
           (a.area < b.area || a.latency < b.latency ||
            a.coverage > b.coverage);
  };
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      dominated = j != i && dominates(points[j], points[i]);
    }
    if (!dominated) frontier.push_back(i);
  }
  return frontier;
}

Explorer::Explorer(const KernelRegistry& registry, ExplorerOptions options)
    : registry_(registry), options_(std::move(options)) {}

const hls::Dfg& Explorer::reference_graph(const DesignPoint& point) {
  // '/'-separated like to_string(DesignPoint): kernel names may themselves
  // end in a variant suffix ("foo" vs "foo_sck"), so plain concatenation
  // could collide distinct (kernel, variant) pairs onto one cache slot.
  std::string key = point.kernel;
  key += '/';
  key += variant_name(point.variant);
  key += "/w";
  key += std::to_string(point.width);
  const auto it = graphs_.find(key);
  if (it != graphs_.end()) return it->second;
  const KernelSpec& kernel = registry_.at(point.kernel);
  return graphs_
      .emplace(std::move(key),
               variant_graph(kernel, point.width, point.variant))
      .first->second;
}

const SynthesizedPoint& Explorer::synthesize(const DesignPoint& point) {
  const std::string key = to_string(point);
  const auto it = designs_.find(key);
  if (it != designs_.end()) return it->second;

  const hls::Dfg& g = reference_graph(point);
  const hls::ResourceConstraints rc =
      point.min_area ? hls::ResourceConstraints::min_area()
                     : hls::ResourceConstraints::min_latency();
  const hls::Schedule s =
      point.min_area ? hls::schedule_list(g, rc) : hls::schedule_asap(g);
  hls::validate_schedule(g, s, rc);
  const hls::Binding b = hls::bind(g, s, rc);
  hls::validate_binding(g, s, b);

  SynthesizedPoint design;
  design.point = point;
  std::string name = point.kernel;
  name += variant_suffix(point.variant);
  name += point.min_area ? "_min_area" : "_min_latency";
  design.netlist = hls::generate_netlist(g, s, b, name);
  design.report = hls::evaluate_netlist(design.netlist);
  return designs_.emplace(key, std::move(design)).first->second;
}

ExplorationReport Explorer::run(const std::vector<DesignPoint>& grid) {
  ExplorationReport report;
  report.points.resize(grid.size());

  std::vector<std::size_t> order = options_.evaluation_order;
  if (order.empty()) {
    order.resize(grid.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
  }
  SCK_EXPECTS(order.size() == grid.size());

  // Phase 1 (sequential): synthesize every point in evaluation order and
  // fill the design/graph caches — campaigns read them concurrently in
  // phase 2, so every cache mutation (including the graphs' lazy topo
  // caches) must happen here. Results land in grid-index slots regardless
  // of evaluation order.
  struct CoverageJob {
    const hls::Dfg* graph = nullptr;
    const hls::Netlist* netlist = nullptr;
  };
  std::vector<CoverageJob> jobs(grid.size());
  std::vector<char> seen(grid.size(), 0);
  for (const std::size_t idx : order) {
    SCK_EXPECTS(idx < grid.size());
    SCK_EXPECTS(!seen[idx] && "evaluation_order must be a permutation");
    seen[idx] = 1;
    const DesignPoint& point = grid[idx];
    const SynthesizedPoint& design = synthesize(point);
    PointResult r;
    r.point = point;
    r.hw = design.report;
    report.points[idx] = std::move(r);
    if (options_.coverage) {
      const hls::Dfg& graph = reference_graph(point);
      (void)graph.topo_order();  // warm before phase-2 workers share it
      jobs[idx] = CoverageJob{&graph, &design.netlist};
    }
  }

  // Phase 2: coverage campaigns, whole points sharded across the pool
  // with grid-index-slot reduction. Campaigns are bit-identical at any
  // (inner) thread count, so dividing the campaign budget by the pool
  // size — which keeps point-level x campaign-level threads within one
  // machine's worth — cannot change the report.
  if (options_.coverage) {
    const int pool = std::min<int>(
        fault::resolve_threads(options_.point_threads),
        static_cast<int>(std::max<std::size_t>(grid.size(), 1)));
    hls::NetlistCampaignOptions campaign_opt = options_.campaign;
    if (pool > 1) {
      campaign_opt.threads =
          std::max(1, fault::resolve_threads(campaign_opt.threads) / pool);
    }
    // Content-addressed result store (off unless store_dir is set). The
    // fingerprint is taken over the campaign options minus the
    // proven-irrelevant knobs (backend, threads, lanes), so a hit is
    // byte-identical to recomputing by the determinism guarantees the
    // backends already ship. Lookups and commits run inside the workers;
    // the store is thread-safe and every failure path (corrupt entry,
    // unwritable dir) degrades to a recompute, never to an abort or a
    // wrong number.
    std::unique_ptr<store::CampaignStore> cache;
    if (!options_.store_dir.empty()) {
      cache = std::make_unique<store::CampaignStore>(options_.store_dir);
    }
    fault::parallel_shard(
        grid.size(), options_.point_threads, [] { return 0; },
        [&](int& /*ctx*/, std::size_t idx) {
          hls::NetlistCampaignResult campaign;
          std::optional<store::Fingerprint> key;
          bool cached = false;
          if (cache != nullptr) {
            const hls::ExecPlan plan =
                hls::compile_execution_plan(*jobs[idx].netlist);
            key = store::campaign_fingerprint(*jobs[idx].graph, plan,
                                              campaign_opt);
            if (std::optional<hls::NetlistCampaignResult> hit =
                    cache->load(*key)) {
              campaign = std::move(*hit);
              cached = true;
            }
          }
          if (!cached) {
            campaign = hls::run_netlist_campaign(*jobs[idx].graph,
                                                 *jobs[idx].netlist,
                                                 campaign_opt);
            if (cache != nullptr) (void)cache->save(*key, campaign);
          }
          report.points[idx].stats = campaign.aggregate;
          report.points[idx].faults = campaign.fault_universe_size;
        });
    if (cache != nullptr) {
      if (options_.store_max_bytes > 0) {
        (void)cache->trim(options_.store_max_bytes);
      }
      report.store_enabled = true;
      report.store_stats = cache->stats();
    }
  }

  std::vector<ParetoMetrics> metrics;
  metrics.reserve(report.points.size());
  for (const PointResult& r : report.points) {
    metrics.push_back(ParetoMetrics{r.hw.slices,
                                    static_cast<double>(r.hw.steps),
                                    options_.coverage ? r.coverage() : 0.0});
  }
  report.frontier = pareto_frontier(metrics);
  for (const std::size_t i : report.frontier) {
    report.points[i].on_frontier = true;
  }

  if (options_.sw_samples > 0) {
    // One SW leg per distinct kernel, in first-appearance order.
    std::unordered_set<std::string> measured;
    for (const DesignPoint& point : grid) {
      if (!measured.insert(point.kernel).second) continue;
      const KernelSpec& kernel = registry_.at(point.kernel);
      if (!kernel.measure_sw) continue;
      report.software.push_back(
          KernelSwLeg{point.kernel, kernel.measure_sw(options_.sw_samples)});
    }
  }
  return report;
}

}  // namespace sck::codesign

#include "hls/netlist_campaign.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/assert.h"
#include "fault/batch.h"
#include "fault/outcome.h"
#include "fault/parallel.h"
#include "hls/netlist_exec.h"

namespace sck::hls {

namespace {

// Decoupling salts for the hash-derived duration decisions: each decision
// family draws from its own (seed ^ salt) stream so transient windows, the
// intermittent duty and SEU flip samples never correlate with each other
// or with the operand-stream keying below.
constexpr std::uint64_t kTransientSalt = 0xB5297A4D3C2E9F17ULL;
constexpr std::uint64_t kIntermittentSalt = 0x2545F4914F6CDD1DULL;
constexpr std::uint64_t kSeuSalt = 0x9E6C63D0876A9A4FULL;

/// Per-sample seed derivation: one stream keyed by (seed, sample index),
/// identical for every fault, so the campaign is invariant under the
/// thread count, the lane packing, the dynamic schedule and the slice
/// partition a distributed run chooses (the Xoshiro constructor
/// SplitMix-expands the mixed value).
[[nodiscard]] std::uint64_t sample_stream_seed(std::uint64_t seed,
                                               std::uint64_t sample_index) {
  return seed ^ 0xD1B54A32D192ED03ULL ^
         ((sample_index + 1) * 0x9E3779B97F4A7C15ULL);
}

/// Materialise the shared input stream (samples x graph inputs,
/// sample-major), each value bounded by its input's width.
[[nodiscard]] std::vector<Word> make_shared_stream(
    const Dfg& graph, const NetlistCampaignOptions& options) {
  const std::size_t num_inputs = graph.inputs().size();
  std::vector<Word> stream(
      static_cast<std::size_t>(options.samples_per_fault) * num_inputs);
  for (int k = 0; k < options.samples_per_fault; ++k) {
    Xoshiro256 rng(sample_stream_seed(options.seed,
                                      static_cast<std::uint64_t>(k)));
    for (std::size_t i = 0; i < num_inputs; ++i) {
      const Node& n = graph.node(graph.inputs()[i]);
      stream[static_cast<std::size_t>(k) * num_inputs + i] =
          rng.bounded(Word{1} << n.width);
    }
  }
  return stream;
}

/// Lanes of `got` that differ from the scalar `want` in every lane: what
/// differing_lanes(got, broadcast_word<P>(want, width)) returns for a
/// width-truncated `want`, without materialising the broadcast planes.
template <typename P>
[[nodiscard]] P lanes_differing_from(const hw::BatchWordT<P>& got, Word want) {
  P diff{};
  for (int b = 0; b < kMaxWidth + 2; ++b) {
    diff |= (want >> b & 1) != 0 ? ~got[b] : got[b];
  }
  return diff;
}

/// Plane width of one run_jobs call: with several workers, halve the
/// campaign's maximum width while the call has fewer than two batches per
/// worker, down to 64 lanes. A small call (a sampled block) then gives
/// every thread two batches off the shared cursor, so the others can take
/// a stalled thread's second batch, and each narrower batch replays a
/// narrower union cone. One worker keeps the full width. Per-job stats are
/// lane-width invariant, so the result bytes cannot move.
[[nodiscard]] int call_lanes(int max_lanes, std::size_t jobs, int threads) {
  const auto workers = static_cast<std::size_t>(fault::resolve_threads(threads));
  const std::size_t want = workers > 1 ? 2 * workers : 1;
  auto lanes = static_cast<std::size_t>(max_lanes);
  while (lanes > 64 && (jobs + lanes - 1) / lanes < want) lanes /= 2;
  return static_cast<int>(lanes);
}

/// The lanes of one batch of a run_jobs call. The call's jobs are batched
/// in `order` (caller slots in ascending job id; empty when the ids already
/// ascend, i.e. the identity), so lane L runs job ids[slot(L)] and writes
/// out[slot(L)]: batch b covers positions [at, at + count) of that order.
struct BatchLanes {
  std::span<const std::uint64_t> ids;
  std::span<const std::size_t> order;
  std::size_t at = 0;
  int count = 0;

  [[nodiscard]] std::size_t slot(int lane) const {
    const std::size_t i = at + static_cast<std::size_t>(lane);
    return order.empty() ? i : order[i];
  }
  [[nodiscard]] std::uint64_t id(int lane) const { return ids[slot(lane)]; }
};

/// Per-lane verdict of sample `k`: erroneous lanes are those whose outputs
/// differ from the reference outputs (`want_values`, samples x outputs),
/// the error output excluded (the reference error flag is 0 by
/// construction); detected lanes are those raising the error output.
template <typename P>
[[nodiscard]] fault::LaneVerdictT<P> sample_verdict(
    std::span<const hw::BatchWordT<P>> got, std::span<const Word> want_values,
    int k, std::int32_t error_output) {
  fault::LaneVerdictT<P> verdict;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (static_cast<std::int32_t>(i) == error_output) continue;
    verdict.erroneous |= lanes_differing_from(
        got[i], want_values[static_cast<std::size_t>(k) * got.size() + i]);
  }
  if (error_output >= 0) {
    verdict.check_failed = got[static_cast<std::size_t>(error_output)][0];
  }
  return verdict;
}

/// The fault events of batch `b` before sample `k` runs: re-arm the
/// stuck-at lanes whose duration model is active at `k` (permanent faults
/// stay armed as installed) and flip the register bit of every SEU lane
/// whose upset sample is `k`. `armed` carries the armed stuck-at lanes from
/// sample to sample, so the lane tables are only touched when they change.
template <typename P, typename Sim>
void inject_sample_faults(Sim& sim, std::span<const FaultJob> jobs,
                          const BatchLanes& b,
                          const NetlistCampaignOptions& options, int k,
                          bool any_seu, P& armed) {
  const bool duty = options.duration != fault::FaultDuration::kPermanent;
  if (!duty && !any_seu) return;
  P now{};
  for (int lane = 0; lane < b.count; ++lane) {
    const std::uint64_t gi = b.id(lane);
    const FaultJob& job = jobs[gi];
    if (job.kind == FaultKind::kSeu) {
      if (seu_flip_sample(options, gi) == k) {
        sim.flip_register_bit(static_cast<int>(job.fu), job.seu_bit,
                              hw::plane_bit<P>(lane));
      }
    } else if (duty && fault_active_at(options, gi, k)) {
      now |= hw::plane_bit<P>(lane);
    }
  }
  if (duty && !(now == armed)) {
    sim.arm_lane_faults(now);
    armed = now;
  }
}

/// Classify sample `k`'s outputs `got` (sample_verdict) and record the
/// outcome of each lane of `b` set in `record` into its slot. Returns the
/// detected lanes.
template <typename P>
P record_sample(std::span<const hw::BatchWordT<P>> got,
                std::span<const Word> want_values, int k,
                std::int32_t error_output, const BatchLanes& b,
                const P& record, std::span<fault::CampaignStats> out) {
  const fault::LaneVerdictT<P> verdict =
      sample_verdict(got, want_values, k, error_output);
  for (int lane = 0; lane < b.count; ++lane) {
    if (hw::plane_test(record, lane)) {
      out[b.slot(lane)].record(fault::lane_outcome(verdict, lane));
    }
  }
  return verdict.check_failed;
}

/// One injected-fault run on the scalar backend: the shared input stream
/// through the faulty netlist, classified against the reference outputs
/// `want_values`. Handles the duration model internally — the stuck-at
/// site is armed exactly on the samples fault_active_at says so, and SEU
/// jobs flip their register bit once at the hash-derived sample. The sim
/// must arrive fault-free and is returned fault-free.
fault::CampaignStats run_one_fault(NetlistSim& sim,
                                   const NetlistCampaignOptions& options,
                                   const FaultJob& job,
                                   std::uint64_t fault_index,
                                   std::span<const Word> shared_stream,
                                   std::span<const Word> want_values) {
  const std::int32_t error_output = sim.plan().error_output;
  const std::size_t num_inputs = sim.netlist().input_names.size();
  const std::size_t num_outputs = sim.netlist().outputs.size();
  fault::CampaignStats stats;
  sim.reset();
  const bool seu = job.kind == FaultKind::kSeu;
  const int flip_at = seu ? seu_flip_sample(options, fault_index) : -1;
  bool armed = false;
  std::vector<Word> out(num_outputs, 0);
  for (int k = 0; k < options.samples_per_fault; ++k) {
    if (seu) {
      if (k == flip_at) {
        sim.flip_register_bit(static_cast<int>(job.fu), job.seu_bit);
      }
    } else {
      const bool want_armed = fault_active_at(options, fault_index, k);
      if (want_armed != armed) {
        sim.set_fu_fault(static_cast<int>(job.fu),
                         want_armed ? job.site : hw::FaultSite{});
        armed = want_armed;
      }
    }
    // Input i of the netlist is input i of the graph (the netlist builder
    // preserves the graph's input order).
    sim.step_sample_indexed(
        shared_stream.subspan(static_cast<std::size_t>(k) * num_inputs,
                              num_inputs),
        out);

    const std::span<const Word> want = want_values.subspan(
        static_cast<std::size_t>(k) * num_outputs, num_outputs);
    bool erroneous = false;
    for (std::size_t i = 0; i < num_outputs; ++i) {
      if (static_cast<std::int32_t>(i) != error_output && out[i] != want[i]) {
        erroneous = true;
      }
    }
    const bool detected =
        error_output >= 0 && out[static_cast<std::size_t>(error_output)] != 0;
    stats.record(fault::classify(erroneous, /*check_passed=*/!detected));
  }
  if (armed) sim.set_fu_fault(static_cast<int>(job.fu), hw::FaultSite{});
  return stats;
}

/// One W-fault batch on the bit-plane backend: lane L runs job `b.id(L)`
/// on the shared stream broadcast to every lane, classified against the
/// reference outputs `want_values`. Stuck-at lanes are re-armed per sample
/// from the duration model (pure hash of the global id, so the armed
/// pattern is grouping-invariant) and SEU lanes flip their register bit at
/// their hash-derived sample. Writes each lane's stats into out[b.slot(L)]
/// — per-lane classification is exactly the scalar classify(), so the slot
/// contents match run_one_fault bit for bit at every lane width and every
/// id grouping.
template <typename P>
void run_fault_batch(const Dfg& graph, NetlistBatchSimT<P>& sim,
                     std::span<const Word> shared_stream,
                     std::span<const Word> want_values,
                     std::span<const FaultJob> jobs, const BatchLanes& b,
                     const NetlistCampaignOptions& options,
                     std::span<fault::CampaignStats> out) {
  const Netlist& netlist = sim.netlist();
  const std::int32_t error_output = sim.plan().error_output;
  const std::size_t num_inputs = graph.inputs().size();
  const int lanes = b.count;

  sim.clear_lane_faults();
  P stuck_lanes{};
  bool any_seu = false;
  for (int lane = 0; lane < lanes; ++lane) {
    const FaultJob& job = jobs[b.id(lane)];
    if (job.kind == FaultKind::kSeu) {
      any_seu = true;  // flips are applied per sample below
    } else {
      sim.add_lane_fault(static_cast<int>(job.fu), job.site,
                         hw::plane_bit<P>(lane));
      stuck_lanes |= hw::plane_bit<P>(lane);
    }
  }
  sim.reset();

  std::vector<hw::BatchWordT<P>> in(num_inputs);
  std::vector<hw::BatchWordT<P>> batch_out(netlist.outputs.size());

  // add_lane_fault armed every installed lane, so the permanent path never
  // re-arms (zero extra work, byte-identical to the pre-duration engine).
  P armed = stuck_lanes;
  for (int k = 0; k < options.samples_per_fault; ++k) {
    inject_sample_faults(sim, jobs, b, options, k, any_seu, armed);
    for (std::size_t i = 0; i < num_inputs; ++i) {
      in[i] = hw::broadcast_word<P>(
          shared_stream[static_cast<std::size_t>(k) * num_inputs + i],
          graph.node(graph.inputs()[i]).width);
    }
    sim.step_sample_batch(in, batch_out);
    record_sample<P>(batch_out, want_values, k, error_output, b,
                     hw::plane_ones<P>(), out);
  }
}

/// One W-fault batch on the incremental backend (lanes as in
/// run_fault_batch): replay the union fan-out cone of the batch's faults
/// over the precomputed golden trace, classifying against the scalar
/// reference outputs `want_values` (samples x outputs). Duration-model
/// extensions:
///   - samples before the batch's earliest possible divergence (the
///     minimum first_active_sample over its lanes) are not simulated at
///     all — every lane is provably golden there, so the precomputed
///     `golden_outcome` of each skipped sample is recorded verbatim and
///     the register file is preloaded from the trace at the window start;
///   - stuck-at lanes are re-armed per sample (the lane tables' armed
///     mask only — the union cone is never shrunk, because a disarmed
///     lane's residual state divergence still needs its cone replayed);
///   - SEU lanes flip their register bit at their hash-derived sample.
/// With fault dropping, a lane retires after its first detected sample
/// (recorded, then excluded); once every lane retired the batch ends
/// early.
template <typename P>
void run_incremental_batch(NetlistIncrementalSimT<P>& sim,
                           const GoldenTrace& trace,
                           std::span<const Word> want_values,
                           std::span<const fault::Outcome> golden_outcome,
                           std::span<const FaultJob> jobs,
                           const BatchLanes& b,
                           const NetlistCampaignOptions& options,
                           std::span<fault::CampaignStats> out) {
  const ExecPlan& plan = sim.plan();
  const std::int32_t error_output = plan.error_output;
  const std::size_t num_outputs = plan.outputs.size();
  const int lanes = b.count;

  sim.clear_lane_faults();
  P stuck_lanes{};
  bool any_seu = false;
  int start_k = options.samples_per_fault;
  for (int lane = 0; lane < lanes; ++lane) {
    const std::uint64_t gi = b.id(lane);
    const FaultJob& job = jobs[gi];
    if (job.kind == FaultKind::kSeu) {
      sim.add_lane_seu(static_cast<int>(job.fu), job.seu_bit,
                       hw::plane_bit<P>(lane));
      any_seu = true;
    } else {
      sim.add_lane_fault(static_cast<int>(job.fu), job.site,
                         hw::plane_bit<P>(lane));
      stuck_lanes |= hw::plane_bit<P>(lane);
    }
    start_k = std::min(start_k, first_active_sample(options, job, gi));
  }
  sim.reset();

  // Prefix skip: before start_k no lane can diverge — record the
  // precomputed fault-free outcome of each sample without simulating.
  for (int k = 0; k < start_k; ++k) {
    for (int lane = 0; lane < lanes; ++lane) {
      out[b.slot(lane)].record(golden_outcome[k]);
    }
  }
  if (start_k >= options.samples_per_fault) return;
  if (start_k > 0) sim.preload_golden_registers(trace, start_k);

  std::vector<hw::BatchWordT<P>> batch_out(num_outputs);
  P active = hw::plane_prefix<P>(lanes);
  P armed = stuck_lanes;  // add_lane_fault armed every stuck lane
  for (int k = start_k; k < options.samples_per_fault; ++k) {
    inject_sample_faults(sim, jobs, b, options, k, any_seu, armed);
    sim.replay_sample(trace, k, batch_out);
    const P detected = record_sample<P>(batch_out, want_values, k,
                                        error_output, b, active, out);

    if (options.fault_dropping) {
      const P retire = detected & active;
      if (hw::plane_any(retire)) {
        active &= ~retire;
        if (!hw::plane_any(active)) break;
        sim.set_active_lanes(active);
      }
    }
  }
}

}  // namespace

bool fault_active_at(const NetlistCampaignOptions& options,
                     std::uint64_t fault_index, int sample) {
  switch (options.duration) {
    case fault::FaultDuration::kPermanent:
      return true;
    case fault::FaultDuration::kTransient: {
      const int start = static_cast<int>(
          fault::duration_hash(options.seed ^ kTransientSalt, fault_index) %
          static_cast<std::uint64_t>(options.samples_per_fault));
      return sample >= start && sample < start + options.transient_samples;
    }
    case fault::FaultDuration::kIntermittent:
      return fault::duration_hash(options.seed ^ kIntermittentSalt,
                                  fault_index,
                                  static_cast<std::uint64_t>(sample)) %
                 1000 <
             options.duty_permille;
  }
  SCK_UNREACHABLE();
}

int seu_flip_sample(const NetlistCampaignOptions& options,
                    std::uint64_t fault_index) {
  return static_cast<int>(
      fault::duration_hash(options.seed ^ kSeuSalt, fault_index) %
      static_cast<std::uint64_t>(options.samples_per_fault));
}

int first_active_sample(const NetlistCampaignOptions& options,
                        const FaultJob& job, std::uint64_t fault_index) {
  if (job.kind == FaultKind::kSeu) return seu_flip_sample(options, fault_index);
  for (int k = 0; k < options.samples_per_fault; ++k) {
    if (fault_active_at(options, fault_index, k)) return k;
  }
  return options.samples_per_fault;
}

std::vector<FaultJob> enumerate_fault_jobs(
    const Netlist& netlist, const NetlistCampaignOptions& options) {
  SCK_EXPECTS(options.fault_stride > 0);
  std::vector<FaultJob> jobs;
  const FuBank probe(netlist);
  for (std::size_t f = 0; f < netlist.fus.size(); ++f) {
    const auto universe = probe.fault_universe(static_cast<int>(f));
    // Checker-side units host no faults.
    for (std::size_t i = 0; i < universe.size();
         i += static_cast<std::size_t>(options.fault_stride)) {
      jobs.push_back(FaultJob{static_cast<std::int32_t>(f), universe[i]});
    }
  }
  // SEU rows after every stuck-at row: one job per (register, bit), in
  // register-index-major order, stride applied per register exactly like
  // per-FU stuck-at striding.
  if (options.seu_faults) {
    for (std::size_t r = 0; r < netlist.regs.size(); ++r) {
      for (int b = 0; b < netlist.regs[r].width;
           b += options.fault_stride) {
        FaultJob job;
        job.fu = static_cast<std::int32_t>(r);
        job.kind = FaultKind::kSeu;
        job.seu_bit = b;
        jobs.push_back(job);
      }
    }
  }
  return jobs;
}

NetlistCampaignResult reduce_campaign_slices(
    const Netlist& netlist, std::span<const FaultJob> jobs,
    std::span<const fault::CampaignStats> per_job) {
  SCK_EXPECTS(jobs.size() == per_job.size());
  NetlistCampaignResult result;
  std::vector<std::int64_t> unit_of_fu(netlist.fus.size(), -1);
  std::vector<std::int64_t> unit_of_reg(netlist.regs.size(), -1);
  // Jobs are unit-major (enumerate_fault_jobs walks FUs in index order,
  // then registers for SEU rows), so first-appearance order of an FU in
  // the job list IS the sequential sweep's per-unit order — and every FU
  // with a non-empty (strided) universe appears, because stride always
  // keeps site 0. SEU rows reduce into "seu:<register>" pseudo-units
  // indexed AFTER the real FUs (fu_index = fus.size() + reg — kept
  // non-negative so the wire codec's index validation holds for them too).
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::size_t slot = 0;
    if (jobs[j].kind == FaultKind::kSeu) {
      const auto r = static_cast<std::size_t>(jobs[j].fu);
      SCK_EXPECTS(r < netlist.regs.size());
      if (unit_of_reg[r] < 0) {
        unit_of_reg[r] = static_cast<std::int64_t>(result.per_unit.size());
        UnitCoverage unit;
        unit.fu_index = static_cast<int>(netlist.fus.size() + r);
        unit.fu_name = "seu:" + netlist.regs[r].name;
        result.per_unit.push_back(std::move(unit));
      }
      slot = static_cast<std::size_t>(unit_of_reg[r]);
    } else {
      const auto f = static_cast<std::size_t>(jobs[j].fu);
      SCK_EXPECTS(f < netlist.fus.size());
      if (unit_of_fu[f] < 0) {
        unit_of_fu[f] = static_cast<std::int64_t>(result.per_unit.size());
        UnitCoverage unit;
        unit.fu_index = jobs[j].fu;
        unit.fu_name = netlist.fus[f].name;
        result.per_unit.push_back(std::move(unit));
      }
      slot = static_cast<std::size_t>(unit_of_fu[f]);
    }
    UnitCoverage& unit = result.per_unit[slot];
    unit.stats += per_job[j];
    ++unit.faults;
    result.aggregate += per_job[j];
    ++result.fault_universe_size;
  }
  return result;
}

std::string validate(const NetlistCampaignOptions& o) {
  if (o.samples_per_fault < 1 || o.samples_per_fault > (1 << 24)) {
    return "samples_per_fault must be in 1..2^24";
  }
  if (o.fault_stride < 1) return "fault_stride must be at least 1";
  if (o.threads < 0 || o.threads > (1 << 16)) {
    return "threads must be in 0..2^16";
  }
  if (o.lanes != 0 && !hw::lanes_supported(o.lanes)) {
    return "lanes must be 0 (auto), 64, 128, 256 or 512";
  }
  if (o.backend > enum_last(NetlistBackend{})) return "unknown backend";
  if (o.duration > enum_last(fault::FaultDuration{})) {
    return "unknown fault duration";
  }
  if (o.fault_dropping && o.backend != NetlistBackend::kIncremental) {
    return "fault dropping is an incremental-backend feature";
  }
  if (o.transient_samples < 1) return "transient_samples must be at least 1";
  if (o.duty_permille > 1000) return "duty_permille must be at most 1000";
  return {};
}

/// All campaign-wide shared state, computed once at runner construction.
struct CampaignSliceRunner::Impl {
  Dfg graph;
  Netlist netlist;
  NetlistCampaignOptions options;
  ExecPlan plan;  ///< plan.netlist points at this Impl's own netlist copy
  int lane_width = 0;
  std::vector<FaultJob> jobs;
  std::vector<Word> shared_stream;  ///< samples x inputs
  /// The reference model's outputs on the shared stream (samples x
  /// outputs, width-truncated): every backend classifies against it.
  std::vector<Word> want_values;
  // Incremental backend only: cones + golden trace.
  std::unique_ptr<FaultCones> cones;
  GoldenTrace trace;
  /// Per-sample outcome of a fault-free lane, classified once through the
  /// incremental path itself: what the prefix skip records for samples
  /// before a batch's earliest possible divergence.
  std::vector<fault::Outcome> golden_outcome;
};

CampaignSliceRunner::CampaignSliceRunner(const Dfg& graph,
                                         const Netlist& netlist,
                                         const NetlistCampaignOptions& options)
    : impl_([&] {
        if (const std::string why = validate(options); !why.empty()) {
          detail::contract_violation("Precondition", why.c_str(), __FILE__,
                                     __LINE__);
        }
        SCK_EXPECTS(netlist.input_names.size() == graph.inputs().size());

        auto impl = std::make_unique<Impl>();
        impl->graph = graph;
        impl->netlist = netlist;
        impl->options = options;
        // Warm the copy's topo-order cache before any worker thread reads
        // it (Dfg::topo_order fills lazily and unsynchronized).
        (void)impl->graph.topo_order();

        // Compile the execution plan ONCE against the runner's own netlist
        // copy and share it const across every slice and worker context.
        impl->plan = compile_execution_plan(impl->netlist);
        impl->lane_width = hw::resolve_lanes(options.lanes);
        impl->jobs = enumerate_fault_jobs(impl->netlist, options);

        // The fault-free work happens ONCE per campaign: the (seed, sample
        // index)-keyed stream every fault replays, and the reference
        // model's outputs on it. Output i of the netlist is output i of
        // the graph (the netlist builder preserves the graph's order).
        impl->shared_stream = make_shared_stream(impl->graph, options);
        const std::size_t num_inputs = impl->graph.inputs().size();
        const std::size_t num_outputs = impl->netlist.outputs.size();
        for (std::size_t i = 0; i < num_outputs; ++i) {
          SCK_EXPECTS(impl->graph.node(impl->graph.outputs()[i]).name ==
                      impl->netlist.outputs[i].name);
        }
        impl->want_values.resize(
            static_cast<std::size_t>(options.samples_per_fault) * num_outputs);
        std::vector<std::uint64_t> ref_state(impl->graph.state_regs().size(),
                                             0);
        for (int k = 0; k < options.samples_per_fault; ++k) {
          const std::span<std::uint64_t> want(
              impl->want_values.data() +
                  static_cast<std::size_t>(k) * num_outputs,
              num_outputs);
          impl->graph.eval(
              std::span<const std::uint64_t>(
                  impl->shared_stream.data() +
                      static_cast<std::size_t>(k) * num_inputs,
                  num_inputs),
              want, ref_state);
          for (std::size_t i = 0; i < num_outputs; ++i) {
            want[i] = trunc(want[i],
                            impl->graph.node(impl->graph.outputs()[i]).width);
          }
        }

        if (options.backend == NetlistBackend::kIncremental) {
          // The golden trace: one scalar replay recording every wire.
          impl->cones = std::make_unique<FaultCones>(
              impl->plan, /*include_seu=*/options.seu_faults);
          impl->trace = record_golden_trace(impl->plan, impl->shared_stream,
                                            options.samples_per_fault);

          // Classify one fault-free lane per sample, once, through the
          // incremental replay path itself (empty cone: pure splicing).
          // The prefix skip of run_incremental_batch records these
          // outcomes verbatim — by construction exactly what simulating a
          // never-diverged lane would have recorded.
          NetlistIncrementalSim gsim(impl->plan, *impl->cones);
          const std::int32_t error_output = impl->plan.error_output;
          std::vector<hw::BatchWordT<hw::Plane64>> go(num_outputs);
          impl->golden_outcome.reserve(
              static_cast<std::size_t>(options.samples_per_fault));
          for (int k = 0; k < options.samples_per_fault; ++k) {
            gsim.replay_sample(impl->trace, k, go);
            impl->golden_outcome.push_back(fault::lane_outcome(
                sample_verdict<hw::Plane64>(go, impl->want_values, k,
                                            error_output),
                0));
          }
        }
        return impl;
      }()) {}

CampaignSliceRunner::~CampaignSliceRunner() = default;

const Dfg& CampaignSliceRunner::graph() const { return impl_->graph; }
const Netlist& CampaignSliceRunner::netlist() const { return impl_->netlist; }
const ExecPlan& CampaignSliceRunner::plan() const { return impl_->plan; }
const NetlistCampaignOptions& CampaignSliceRunner::options() const {
  return impl_->options;
}
const std::vector<FaultJob>& CampaignSliceRunner::jobs() const {
  return impl_->jobs;
}
int CampaignSliceRunner::lanes() const { return impl_->lane_width; }

void CampaignSliceRunner::run_slice(std::uint64_t base, std::size_t count,
                                    std::span<fault::CampaignStats> out) const {
  SCK_EXPECTS(base <= impl_->jobs.size() &&
              count <= impl_->jobs.size() - base);
  std::vector<std::uint64_t> ids(count);
  std::iota(ids.begin(), ids.end(), base);
  run_jobs(ids, out);
}

void CampaignSliceRunner::run_jobs(std::span<const std::uint64_t> ids,
                                   std::span<fault::CampaignStats> out) const {
  const Impl& im = *impl_;
  SCK_EXPECTS(out.size() == ids.size());
  for (const std::uint64_t id : ids) SCK_EXPECTS(id < im.jobs.size());
  if (ids.empty()) return;
  const std::span<const FaultJob> jobs(im.jobs);
  const NetlistCampaignOptions& options = im.options;

  if (options.backend == NetlistBackend::kScalar) {
    // Shard one fault per job; each worker owns a simulator over the
    // shared plan (units are stateful via set_fault).
    fault::parallel_shard(
        ids.size(), options.threads, [&im] { return NetlistSim(im.plan); },
        [&](NetlistSim& sim, std::size_t j) {
          out[j] = run_one_fault(sim, options, jobs[ids[j]], ids[j],
                                 im.shared_stream, im.want_values);
        });
    return;
  }

  // Batch the call in ascending job id. Job ids are unit-major (see
  // enumerate_fault_jobs), so a batch of a permuted call then holds few
  // units and replays a narrow union cone; per-job slots do not depend on
  // the grouping. Ascending calls (every run_slice) batch as given.
  std::vector<std::size_t> order;
  if (!std::is_sorted(ids.begin(), ids.end())) {
    order.resize(ids.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return ids[a] < ids[b]; });
  }

  // Shard W-fault batches at this call's width (call_lanes). The lane width
  // only sizes the batches — per-job slots and the job-order reduction are
  // width-invariant. Each worker owns a simulator over the shared plan.
  const int lanes = call_lanes(im.lane_width, ids.size(), options.threads);
  hw::dispatch_plane(lanes, [&]<typename P>(std::type_identity<P>) {
    constexpr std::size_t kW = hw::PlaneTraits<P>::kLanes;
    const std::size_t batches = (ids.size() + kW - 1) / kW;
    const auto batch = [&](std::size_t b) {
      return BatchLanes{ids, order, b * kW,
                        static_cast<int>(std::min(kW, ids.size() - b * kW))};
    };
    if (options.backend == NetlistBackend::kBatched) {
      fault::parallel_shard(
          batches, options.threads,
          [&im] { return NetlistBatchSimT<P>(im.plan); },
          [&](NetlistBatchSimT<P>& sim, std::size_t b) {
            run_fault_batch(im.graph, sim, im.shared_stream, im.want_values,
                            jobs, batch(b), options, out);
          });
    } else {
      fault::parallel_shard(
          batches, options.threads,
          [&im] { return NetlistIncrementalSimT<P>(im.plan, *im.cones); },
          [&](NetlistIncrementalSimT<P>& sim, std::size_t b) {
            run_incremental_batch<P>(sim, im.trace, im.want_values,
                                     im.golden_outcome, jobs, batch(b),
                                     options, out);
          });
    }
  });
}

NetlistCampaignResult run_netlist_campaign(
    const Dfg& graph, const Netlist& netlist,
    const NetlistCampaignOptions& options) {
  const CampaignSliceRunner runner(graph, netlist, options);
  std::vector<fault::CampaignStats> per_job(runner.jobs().size());
  runner.run_slice(0, per_job.size(), per_job);
  return reduce_campaign_slices(runner.netlist(), runner.jobs(), per_job);
}

SampledNetlistCampaignResult run_sampled_netlist_campaign(
    const Dfg& graph, const Netlist& netlist,
    const NetlistCampaignOptions& options,
    const SampledCampaignOptions& sampling) {
  SCK_EXPECTS(sampling.block > 0);
  SCK_EXPECTS(sampling.target_half_width > 0.0);
  SCK_EXPECTS(sampling.z > 0.0);
  const CampaignSliceRunner runner(graph, netlist, options);
  const std::size_t universe = runner.jobs().size();

  // Seeded Fisher–Yates permutation of the job list: the evaluation order
  // is a pure function of (universe size, sample_seed) — the stimulus seed
  // stays out of it, so the same campaign can be resampled independently.
  std::vector<std::uint64_t> perm(universe);
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  Xoshiro256 rng(sampling.sample_seed);
  for (std::size_t i = universe; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.bounded(i));
    std::swap(perm[i - 1], perm[j]);
  }

  const std::size_t cap = sampling.max_jobs == 0
                              ? universe
                              : std::min(universe, sampling.max_jobs);
  // Reserved, not value-initialised: the slots grow one block at a time,
  // so an early stop never touches the pages of the jobs it skipped.
  std::vector<fault::CampaignStats> per_sampled;
  per_sampled.reserve(cap);
  SampledNetlistCampaignResult report;
  report.universe_jobs = universe;

  // Blocks run sequentially. A block smaller than 2 x threads x lanes runs
  // on narrower planes (run_jobs halves the width until every thread has
  // two batches), so even one block fills options.threads. The stop decision
  // fires ONLY at block boundaries on the prefix evaluated so far, so
  // every thread/lane/backend configuration stops after the same number
  // of jobs.
  std::uint64_t detected_faults = 0;
  const std::size_t evaluated = fault::run_blocks_until(
      cap, sampling.block,
      [&](std::size_t at, std::size_t count) {
        per_sampled.resize(at + count);
        runner.run_jobs(
            std::span<const std::uint64_t>(perm.data() + at, count),
            std::span<fault::CampaignStats>(per_sampled.data() + at, count));
        for (std::size_t j = at; j < at + count; ++j) {
          if (per_sampled[j].detections() > 0) ++detected_faults;
        }
      },
      [&](std::size_t done) {
        report.detection_coverage = fault::wilson_interval(
            detected_faults, static_cast<std::uint64_t>(done), sampling.z);
        return report.detection_coverage.half_width() <=
               sampling.target_half_width;
      });

  report.sampled_jobs = evaluated;
  report.converged =
      evaluated > 0 && report.detection_coverage.half_width() <=
                           sampling.target_half_width;

  // Reduce the evaluated prefix in GLOBAL job-index order, not permutation
  // order: the report is then byte-identical for any configuration that
  // evaluated the same prefix — and equals run_netlist_campaign's result
  // exactly when the whole universe was evaluated.
  std::vector<std::size_t> order(evaluated);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return perm[a] < perm[b]; });
  std::vector<FaultJob> sampled_jobs;
  sampled_jobs.reserve(evaluated);
  std::vector<fault::CampaignStats> sampled_stats;
  sampled_stats.reserve(evaluated);
  for (const std::size_t idx : order) {
    sampled_jobs.push_back(runner.jobs()[perm[idx]]);
    sampled_stats.push_back(per_sampled[idx]);
  }
  report.result =
      reduce_campaign_slices(runner.netlist(), sampled_jobs, sampled_stats);
  return report;
}

}  // namespace sck::hls

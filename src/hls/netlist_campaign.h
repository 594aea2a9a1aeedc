// System-level fault-coverage evaluation on synthesized netlists.
//
// §3 of the paper concedes: "there is no available tool for evaluating the
// fault coverage of the final realization with respect to the on-line
// fault detection properties, yet the local fault coverage analysis ...
// can be used as an estimation". This module is that missing tool for our
// substrate: it sweeps the complete stuck-at fault universe of every
// functional unit of a generated netlist, drives each faulty configuration
// with one reproducible input stream shared by every fault, compares the
// data outputs against the fault-free reference model, and classifies
// every sample with the same four-way taxonomy as the unit-level
// campaigns — yielding the *final realization's* coverage, which the
// paper could only estimate.
//
// The input stream is keyed by (seed, sample index), so every fault sees
// the same stimuli and the Dfg reference outputs are computed ONCE per
// campaign into one table that every backend classifies against. Three
// execution backends drive the sweep (hls/netlist_exec.h):
//   kScalar       the compiled scalar interpreter, one fault at a time;
//   kBatched      the W-lane bit-plane engine — W faults per batch (lane
//                 = fault, via per-lane LaneFaultSetT hooks);
//   kIncremental  golden-trace fault-cone replay, the default: the
//                 fault-free execution is also recorded ONCE per campaign,
//                 and each batch replays only the union fan-out cone of
//                 its ≤W faulted FUs, splicing everything else from the
//                 golden trace.
// The maximum lane width W is resolved once per campaign (options.lanes,
// else hw::kDefaultLanes — see hw::resolve_lanes); with several threads,
// a call with fewer than 2 x threads x W jobs runs on narrower planes,
// halving down to 64 lanes until every thread has two batches. The width
// only changes how faults are grouped into batches: per-fault stats land in
// job-indexed slots reduced in fault-index order, so the result is
// bit-identical for ANY backend, lane width and thread count
// (tests/test_netlist_batch.cpp, tests/test_netlist_incremental.cpp and
// tests/test_backend_differential.cpp prove it).
// All backends shard the fault universe through fault/parallel.h over ONE
// compiled ExecPlan.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/duration.h"
#include "fault/stats.h"
#include "hls/dfg.h"
#include "hls/netlist_sim.h"
#include "hw/fault_site.h"

namespace sck::hls {

struct ExecPlan;

/// Per-functional-unit coverage breakdown.
struct UnitCoverage {
  int fu_index = -1;
  std::string fu_name;
  std::size_t faults = 0;
  fault::CampaignStats stats;

  friend bool operator==(const UnitCoverage&, const UnitCoverage&) = default;
};

struct NetlistCampaignResult {
  fault::CampaignStats aggregate;
  std::vector<UnitCoverage> per_unit;
  std::uint64_t fault_universe_size = 0;

  /// Member-wise bit-identity (aggregate + complete per-unit breakdown):
  /// what the differential test suites and the bench *_results_identical
  /// gates mean by "identical" — one definition, library-owned, so a new
  /// field cannot be silently dropped from a subset of the comparisons.
  friend bool operator==(const NetlistCampaignResult&,
                         const NetlistCampaignResult&) = default;
};

/// Execution backend selection for the sweep. Results are identical on
/// every backend; the plane backends pack W faults per evaluation, one per
/// plane lane, and the incremental one (the default) also replays only
/// each batch's fault cones.
enum class NetlistBackend : unsigned char { kScalar, kBatched, kIncremental };
[[nodiscard]] constexpr NetlistBackend enum_last(NetlistBackend) {
  return NetlistBackend::kIncremental;
}

/// Input-stream semantics of the sweep. There is one: streams keyed by
/// (seed, sample index), so every fault sees IDENTICAL stimuli.
enum class StreamMode : unsigned char { kShared };

struct NetlistCampaignOptions {
  int samples_per_fault = 32;  ///< stream length per injected fault
  std::uint64_t seed = 0x2005;
  int fault_stride = 1;  ///< evaluate every k-th fault of each unit
  /// Worker threads for the fault sweep (0 = all hardware threads). The
  /// input stream depends only on (seed, sample index), so the result is
  /// bit-identical for any thread count.
  int threads = 1;
  /// Bit-plane lane width for the batched/incremental backends: one of
  /// {64, 128, 256, 512}, or 0 for hw::kDefaultLanes (hw::resolve_lanes).
  /// Results are bit-identical at every width; wider planes only batch
  /// more faults per evaluation.
  int lanes = 0;
  NetlistBackend backend = NetlistBackend::kIncremental;
  /// Read by nothing: the stream is always shared. Kept only so existing
  /// source that assigns it still compiles.
  StreamMode stream = StreamMode::kShared;
  /// Retire a lane at its first detected sample (kIncremental only): the
  /// remaining samples of that fault are neither simulated nor recorded,
  /// so aggregate totals shrink. The detection set is preserved — a fault
  /// detects at the same first sample either way — which makes this the
  /// cheap mode for "is every fault ever detected?" coverage queries, but
  /// NOT for the sample-exact four-way taxonomy.
  bool fault_dropping = false;
  /// How long each stuck-at fault stays active (fault/duration.h):
  ///   kPermanent     active on every sample — the historical behaviour,
  ///                  and the default (result bytes are pinned against the
  ///                  pre-duration engine by tests/test_netlist_duration.cpp);
  ///   kTransient     active for `transient_samples` consecutive samples
  ///                  starting at a per-fault hash-derived sample; golden
  ///                  before the window, residual state corruption decays
  ///                  (or is detected) after it;
  ///   kIntermittent  active at sample k iff
  ///                  duration_hash(seed, fault, k) % 1000 < duty_permille.
  /// Every activity decision is a STATELESS hash of (seed, global fault
  /// index, sample) — never a campaign-RNG draw — so the duration model is
  /// invariant under backend, lane width, thread count and slice
  /// partition, and turning the knob cannot perturb the operand streams.
  fault::FaultDuration duration = fault::FaultDuration::kPermanent;
  int transient_samples = 1;          ///< window length for kTransient
  std::uint32_t duty_permille = 500;  ///< duty for kIntermittent
  /// Append register-bit SEU flip jobs to the fault universe: one job per
  /// (register, bit < register width), flipping that bit ONCE at a
  /// per-fault hash-derived sample. SEU jobs are one-shot events and
  /// ignore the duration model; stuck-at jobs are unaffected.
  bool seu_faults = false;
};

/// Why `options` cannot run, or "" when they can. The one rule set that
/// CampaignSliceRunner asserts, the wire decoder rejects on and the CLIs
/// report: ranges, enum values and the cross-field contract (fault
/// dropping needs the incremental backend).
[[nodiscard]] std::string validate(const NetlistCampaignOptions& options);

/// Stuck-at activity of global fault `fault_index` at sample `sample`
/// under the campaign's duration model: the single pure derivation every
/// backend (and the differential oracle) evaluates. SEU jobs do not
/// consult this — see seu_flip_sample.
[[nodiscard]] bool fault_active_at(const NetlistCampaignOptions& options,
                                   std::uint64_t fault_index, int sample);

/// First sample at which fault `fault_index` can diverge from golden
/// (== samples_per_fault when it never activates). For SEU jobs this is
/// the flip sample. The incremental backend skips straight to the batch
/// minimum and records golden outcomes for the prefix.
[[nodiscard]] int first_active_sample(const NetlistCampaignOptions& options,
                                      const struct FaultJob& job,
                                      std::uint64_t fault_index);

/// The one sample at which an SEU job flips its register bit:
/// hash-derived from (seed, global fault index), uniform over the stream.
[[nodiscard]] int seu_flip_sample(const NetlistCampaignOptions& options,
                                  std::uint64_t fault_index);

/// What a FaultJob injects.
enum class FaultKind : unsigned char {
  kStuckAt,  ///< FU-internal stuck-at site, lives under the duration model
  kSeu,      ///< one-shot register-bit flip at a hash-derived sample
};
[[nodiscard]] constexpr FaultKind enum_last(FaultKind) {
  return FaultKind::kSeu;
}

/// One entry of the (strided) fault job list. For kStuckAt: FU index plus
/// stuck-at site. For kSeu: `fu` is the REGISTER index (netlist.registers)
/// and `seu_bit` the bit to flip; `site` is ignored. The job list order IS
/// the campaign's deterministic reduction order (unit-major, site order
/// within a unit, stride applied per unit; then — when options.seu_faults —
/// register-major, bit order within a register, stride applied per
/// register), and a job's position in the list keys its duration-model
/// and SEU hashes. Everything that executes campaign slices — single-host
/// or a remote worker — must agree on this list bit for bit.
struct FaultJob {
  std::int32_t fu = 0;
  hw::FaultSite site;
  FaultKind kind = FaultKind::kStuckAt;
  std::int32_t seu_bit = -1;

  friend bool operator==(const FaultJob&, const FaultJob&) = default;
};

/// The campaign's complete (strided) job list in reduction order. Pure
/// function of (netlist, options.fault_stride) — the campaign service
/// daemon and its workers enumerate independently and cross-check.
[[nodiscard]] std::vector<FaultJob> enumerate_fault_jobs(
    const Netlist& netlist, const NetlistCampaignOptions& options);

/// Executes arbitrary contiguous slices of a campaign's job list with all
/// campaign-wide state (compiled ExecPlan, shared input stream, golden
/// trace, fault cones, reference outputs) computed ONCE at construction.
/// This is the shard-execution engine shared by run_netlist_campaign
/// (one slice = the whole universe) and the campaign-service worker (one
/// slice per wire shard) — both run the exact same inner loops, so the
/// distributed result cannot drift from the single-host one.
///
/// Slice semantics: run_slice(base, count, out) evaluates jobs
/// [base, base + count) and writes job (base + i)'s stats into out[i].
/// Per-job slots depend only on the job's GLOBAL index (duration and SEU
/// hashes) and the campaign options — never on the slice boundaries, the
/// lane width, or the thread count — so any partition of
/// [0, jobs().size()) into slices reproduces the single-host per-job
/// vector bit for bit
/// (tests/test_service.cpp holds this at several slicings).
class CampaignSliceRunner {
 public:
  /// Copies `graph` and `netlist` (the service constructs runners from
  /// deserialized payloads; single-host pays one copy per campaign),
  /// validates the campaign preconditions, compiles the ExecPlan and
  /// precomputes the per-campaign shared state for options.backend.
  CampaignSliceRunner(const Dfg& graph, const Netlist& netlist,
                      const NetlistCampaignOptions& options);
  ~CampaignSliceRunner();

  CampaignSliceRunner(const CampaignSliceRunner&) = delete;
  CampaignSliceRunner& operator=(const CampaignSliceRunner&) = delete;

  [[nodiscard]] const Dfg& graph() const;
  [[nodiscard]] const Netlist& netlist() const;
  [[nodiscard]] const ExecPlan& plan() const;
  [[nodiscard]] const NetlistCampaignOptions& options() const;
  /// enumerate_fault_jobs of the wrapped netlist, cached.
  [[nodiscard]] const std::vector<FaultJob>& jobs() const;
  /// The maximum bit-plane width this runner resolved (hw::resolve_lanes
  /// applied to options.lanes once at construction). A multi-threaded
  /// call with fewer than 2 x threads x lanes() jobs runs on narrower
  /// planes (see run_jobs).
  [[nodiscard]] int lanes() const;

  /// Evaluate jobs [base, base + count) into out[0..count). Shards the
  /// slice over options.threads via fault::parallel_shard; safe to call
  /// repeatedly (each call builds fresh simulator contexts over the shared
  /// plan).
  void run_slice(std::uint64_t base, std::size_t count,
                 std::span<fault::CampaignStats> out) const;

  /// Evaluate an arbitrary job-index list: out[i] receives the stats of
  /// global job ids[i]. run_slice is the contiguous special case; the
  /// sampled-campaign engine feeds permuted prefixes through this. The
  /// plane backends batch a permuted call in ascending job id, which is
  /// (unit, cell) order, so each batch replays the union cone of few units;
  /// an ascending call batches as given, with no extra allocation. They
  /// start at lanes() and, with several threads, halve the width (down to
  /// 64) while the call has fewer than two batches per thread, so a small
  /// call still fills options.threads. out is identical at every width and
  /// every order.
  void run_jobs(std::span<const std::uint64_t> ids,
                std::span<fault::CampaignStats> out) const;

 private:
  struct Impl;
  std::unique_ptr<const Impl> impl_;
};

/// Fold per-job stats into the campaign report, in job (fault-index)
/// order: the single deterministic reduction both run_netlist_campaign and
/// the service daemon's grid-index-slot reduction use. `jobs` must be the
/// full enumerate_fault_jobs list of `netlist` and `per_job` its
/// slot-for-slot stats.
[[nodiscard]] NetlistCampaignResult reduce_campaign_slices(
    const Netlist& netlist, std::span<const FaultJob> jobs,
    std::span<const fault::CampaignStats> per_job);

/// Sweep every FU fault of `netlist` (generated from `graph`), comparing
/// against the fault-free reference evaluation of `graph`. Netlists with a
/// CED "error" output use it as the detection flag; plain netlists (no
/// error output) report every erroneous sample as masked — the baseline
/// that shows what the checks buy. Implemented as
/// CampaignSliceRunner::run_slice over the whole universe followed by
/// reduce_campaign_slices — the same code path the campaign service
/// distributes.
[[nodiscard]] NetlistCampaignResult run_netlist_campaign(
    const Dfg& graph, const Netlist& netlist,
    const NetlistCampaignOptions& options);

/// Confidence-interval sampled campaigns: instead of sweeping the whole
/// fault universe, evaluate a seeded random permutation of it in fixed
/// blocks until the Wilson interval on detection coverage is tight enough.
struct SampledCampaignOptions {
  /// Seed of the sampling permutation (Fisher–Yates over the job list,
  /// drawn from its own Xoshiro stream — independent of the stimulus
  /// seed so the same campaign can be resampled).
  std::uint64_t sample_seed = 0xCED5;
  /// Jobs evaluated between early-stop checks. The stop decision is taken
  /// ONLY at block boundaries over the prefix evaluated so far, which is a
  /// pure function of (options, sample_seed, block) — never of thread
  /// count, lane width or backend — so every configuration stops after the
  /// same number of jobs (tests/test_netlist_duration.cpp holds this at
  /// threads 1/2/4/8).
  std::size_t block = 256;
  /// Stop once the Wilson half-width on detection coverage is ≤ this.
  double target_half_width = 0.02;
  /// Critical value for the interval (1.96 ≈ 95%).
  double z = 1.96;
  /// Evaluate at most this many jobs, 0 = no cap (the universe bounds it).
  std::size_t max_jobs = 0;
};

struct SampledNetlistCampaignResult {
  /// Aggregate + per-unit stats over the evaluated sample only, reduced in
  /// global job-index order (NOT permutation order) — byte-identical at any
  /// thread/lane/backend configuration that evaluates the same prefix.
  NetlistCampaignResult result;
  /// Jobs actually evaluated (a multiple of block unless the universe ran
  /// out) and the universe they were drawn from.
  std::uint64_t sampled_jobs = 0;
  std::uint64_t universe_jobs = 0;
  /// Wilson interval on per-fault detection coverage: the fraction of
  /// sampled faults with detections() > 0, with [lo, hi] at z.
  fault::WilsonInterval detection_coverage;
  /// True iff the interval reached target_half_width before the universe
  /// (or max_jobs) ran out.
  bool converged = false;

  friend bool operator==(const SampledNetlistCampaignResult&,
                         const SampledNetlistCampaignResult&) = default;
};

/// Run a sampled campaign. Evaluating the full universe (because the stop
/// criterion never fired or max_jobs/universe was reached first) yields
/// `result` EXACTLY equal to run_netlist_campaign's — sampling only ever
/// changes which prefix of the permutation is evaluated, never any
/// per-job outcome.
[[nodiscard]] SampledNetlistCampaignResult run_sampled_netlist_campaign(
    const Dfg& graph, const Netlist& netlist,
    const NetlistCampaignOptions& options,
    const SampledCampaignOptions& sampling);

}  // namespace sck::hls

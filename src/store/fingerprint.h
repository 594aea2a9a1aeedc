// Stable campaign fingerprints — the content address of the result store.
//
// A campaign's NetlistCampaignResult is a pure function of (reference
// graph, netlist, the execution plan compiled from it, fault universe,
// result-shaping campaign options) — the determinism discipline of PRs 1-5
// proves the backend, lane packing and thread count cannot change a
// single bit. The fingerprint hashes the canonical encoding
// (common/codec.h) of exactly that input tuple into a 128-bit key, so the
// same campaign always maps to the same on-disk entry on every platform
// (fixed-width little-endian bytes — native endianness and integer sizes
// never leak in).
//
// POISONING HAZARD: a result-shaping input left out of the hash would
// alias distinct campaigns onto one cache slot. The graph and netlist are
// hashed as the very bytes the wire ships to workers, and the options as
// codec::result_key, the first half of their one field list (a
// static_assert in common/codec.cpp fails the build on an unlisted
// field). Whenever the hashed bytes change, bump kFingerprintVersion
// (tests/test_store.cpp pins golden fingerprint values).
#pragma once

#include <cstdint>
#include <string>

#include "hls/dfg.h"
#include "hls/netlist_campaign.h"
#include "hls/netlist_exec.h"

namespace sck::store {

/// Hashed-input generation. Bump when campaign_fingerprint starts hashing
/// different bytes: every entry written under the old generation then
/// misses cleanly. v3: the canonical codec encoding of the graph, netlist,
/// plan, universe and result key. v4: the result key drops the stream
/// mode (every stream is shared).
inline constexpr std::uint64_t kFingerprintVersion = 4;

/// 128-bit content address of one campaign.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// 32 lowercase hex digits, hi first — the on-disk entry name.
[[nodiscard]] std::string to_string(const Fingerprint& fp);

/// The campaign key: a two-lane FNV-1a digest of, in order, the version,
/// the encoded graph and *plan.netlist, the compiled plan, the per-FU
/// stuck-at universe and codec::result_key(options) —
/// NOT backend, lanes or threads, which are proven not to affect results.
/// `plan` must be compiled from the netlist the campaign will run.
[[nodiscard]] Fingerprint campaign_fingerprint(
    const hls::Dfg& graph, const hls::ExecPlan& plan,
    const hls::NetlistCampaignOptions& options);

}  // namespace sck::store

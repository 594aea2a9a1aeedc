// Shared command-line + JSON-output plumbing for the bench binaries.
//
// Every bench follows the same contract:
//   `./bench [json_path] [iterations] [--threads=a,b,c]`
// writes its human-readable tables to stdout and one machine-readable
// BENCH_<name>.json artifact (bench_json.h) so future sessions and CI can
// diff results mechanically. This header is that contract in one place —
// the per-binary argv parsing and save-or-fail boilerplate used to be
// copy-pasted per bench. `--threads=` names the worker-pool sizes a
// scaling-aware bench sweeps (benches without a sweep ignore it);
// `--lanes=` pins the bit-plane width (0 = hw::kDefaultLanes — see
// hw::resolve_lanes), and every bench records the RESOLVED width in its
// JSON rows so artifacts are self-describing.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_json.h"

namespace sck::bench {

struct BenchArgs {
  std::string json_path;   ///< first positional, else the bench's default
  std::size_t iterations;  ///< second positional, else the bench's default
                           ///< (the bench-specific workload knob: SW
                           ///< samples, samples per fault, ...)
  std::vector<int> threads;  ///< --threads=a,b,c sweep; empty = bench default
  int lanes = 0;  ///< --lanes=N plane width; 0 = env/CPU default
};

[[nodiscard]] inline BenchArgs parse_args(int argc, char** argv,
                                          std::string default_json_path,
                                          std::size_t default_iterations) {
  BenchArgs args{std::move(default_json_path), default_iterations, {}};
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      for (std::size_t at = 10; at < arg.size();) {
        char* end = nullptr;
        const long t = std::strtol(argv[i] + at, &end, 10);
        if (end == argv[i] + at) break;  // malformed tail: stop parsing
        if (t > 0) args.threads.push_back(static_cast<int>(t));
        at = static_cast<std::size_t>(end - argv[i]);
        if (at < arg.size() && arg[at] == ',') ++at;
      }
      continue;
    }
    if (arg.rfind("--lanes=", 0) == 0) {
      const long lanes = std::strtol(argv[i] + 8, nullptr, 10);
      if (lanes > 0) args.lanes = static_cast<int>(lanes);
      continue;
    }
    if (positional == 0) {
      args.json_path = arg;
    } else if (positional == 1) {
      const unsigned long long n = std::strtoull(argv[i], nullptr, 10);
      if (n > 0) args.iterations = static_cast<std::size_t>(n);
    }
    ++positional;
  }
  return args;
}

/// Writes `doc` to `path` and reports; the return value is the bench's
/// exit code (0 on success).
[[nodiscard]] inline int save_json(const JsonValue& doc,
                                   const std::string& path) {
  if (!doc.save(path)) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << path << "\n";
  return 0;
}

}  // namespace sck::bench

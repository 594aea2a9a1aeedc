// Shared command-line + JSON-output plumbing for the bench binaries.
//
// Every bench follows the same contract:
//   `./bench [json_path] [iterations] [--threads=a,b,c] [--lanes=N]`
// writes its human-readable tables to stdout and one machine-readable
// BENCH_<name>.json artifact (bench_json.h) so future sessions and CI can
// diff results mechanically. This header is that contract in one place —
// the per-binary argv parsing and save-or-fail boilerplate used to be
// copy-pasted per bench. `--threads=` names the worker-pool sizes a
// scaling-aware bench sweeps (benches without a sweep ignore it);
// `--lanes=` pins the bit-plane width (0 = hw::kDefaultLanes — see
// hw::resolve_lanes), and every bench records the RESOLVED width in its
// JSON rows so artifacts are self-describing. A malformed number, an
// unknown flag or an unsupported lane width exits 2 with a usage line.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/parse_number.h"
#include "hw/plane.h"

namespace sck::bench {

struct BenchArgs {
  std::string json_path;   ///< first positional, else the bench's default
  std::size_t iterations;  ///< second positional, else the bench's default
                           ///< (the bench-specific workload knob: SW
                           ///< samples, samples per fault, ...)
  std::vector<int> threads;  ///< --threads=a,b,c sweep; empty = bench default
  int lanes = 0;  ///< --lanes=N plane width; 0 = env/CPU default
};

/// Prints `why` and the usage line, then exits 2: a malformed flag never
/// falls back to a default or reaches an engine precondition.
[[noreturn]] inline void usage_error(const char* prog, std::string_view why) {
  std::cerr << prog << ": " << why << "\nusage: " << prog
            << " [json_path] [iterations] [--threads=N[,N...]]"
               " [--lanes=0|64|128|256|512]\n";
  std::exit(2);
}

[[nodiscard]] inline BenchArgs parse_args(int argc, char** argv,
                                          std::string default_json_path,
                                          std::size_t default_iterations) {
  BenchArgs args{std::move(default_json_path), default_iterations, {}};
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--threads=")) {
      std::string_view list = arg.substr(10);
      for (;;) {
        const std::size_t comma = list.find(',');
        int t = 0;
        if (!parse_number(list.substr(0, comma), t) || t < 1) {
          usage_error(argv[0], "--threads= takes positive integers");
        }
        args.threads.push_back(t);
        if (comma == std::string_view::npos) break;
        list.remove_prefix(comma + 1);
      }
    } else if (arg.starts_with("--lanes=")) {
      if (!parse_number(arg.substr(8), args.lanes) ||
          (args.lanes != 0 && !hw::lanes_supported(args.lanes))) {
        usage_error(argv[0], "--lanes= must be 0 (auto), 64, 128, 256 or 512");
      }
    } else if (arg.starts_with("--")) {
      usage_error(argv[0], "unknown flag " + std::string(arg));
    } else if (positional == 0) {
      args.json_path = arg;
      ++positional;
    } else if (positional == 1) {
      if (!parse_number(arg, args.iterations) || args.iterations == 0) {
        usage_error(argv[0], "iterations must be a positive integer");
      }
      ++positional;
    } else {
      usage_error(argv[0], "too many arguments");
    }
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

// Seed knobs for the suites that CI runs with a rotating seed: strict
// parsing, and a guard for tests that rewrite the variables.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "common/parse_number.h"

namespace sck::testing_env {

/// The unsigned decimal seed in environment variable `name`, or `fallback`
/// when it is unset or empty. Anything else (a sign, a trailing character,
/// overflow) fails the calling test naming the variable, like
/// service::install_chaos_from_env: a malformed seed must not silently run
/// the fallback while the CI log names the rotating one.
[[nodiscard]] inline std::uint64_t seed_from_env(const char* name,
                                                 std::uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  const std::string_view text(env);
  std::uint64_t seed = 0;
  if (!parse_number(text, seed)) {
    ADD_FAILURE() << name << "='" << text
                  << "': seed must be an unsigned decimal integer";
    return fallback;
  }
  return seed;
}

/// Restores environment variable `name` to its value at construction, so
/// a test that sets or unsets it cannot change the seed later tests read.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    if (const char* value = std::getenv(name)) saved_ = value;
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

}  // namespace sck::testing_env

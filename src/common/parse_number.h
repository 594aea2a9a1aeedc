// Strict number parsing for command-line flags and environment knobs.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace sck {

/// Parses all of `text` as a number of type T: "", "abc", "12x" and
/// out-of-range values are errors, never a silent 0 or a truncated prefix.
template <class T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// Parses the value of `--name=VALUE` if `arg` is that flag (`name`
/// includes the '='). Returns whether `arg` is the flag; `bad` is set when
/// its value is not a number of type T.
template <class T>
[[nodiscard]] bool numeric_flag(std::string_view arg, std::string_view name,
                                T& out, bool& bad) {
  if (!arg.starts_with(name)) return false;
  bad = !parse_number(arg.substr(name.size()), out);
  return true;
}

}  // namespace sck

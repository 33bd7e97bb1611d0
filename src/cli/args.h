// Copyright 2026 The densest Authors.
// Minimal command-line flag parsing for the densest_cli tool. Kept in the
// library so the command layer is unit-testable.

#ifndef DENSEST_CLI_ARGS_H_
#define DENSEST_CLI_ARGS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace densest {

/// \brief Parsed command line: positionals plus --key=value / --key value
/// flags (bare --key becomes "true").
///
/// The getters return plain values. A malformed or out-of-range value reads
/// as the default, and the first one is kept for Check(), so a command
/// reads all its flags, calls Check() once, and only then does any work.
class Args {
 public:
  /// Parses tokens (argv without the program name). Fails on malformed
  /// flags such as "--=x".
  static StatusOr<Args> Parse(const std::vector<std::string>& tokens);

  /// Positional arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// True iff --name was given (with any value). Does not count as a read.
  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  /// String value of --name, or `def` if absent.
  std::string GetString(const std::string& name, const std::string& def) const;

  /// Double value of --name, or `def` if absent or not a number.
  double GetDouble(const std::string& name, double def) const;

  /// Integer value of --name, or `def` if absent. A value that is not an
  /// integer, or lies outside [min, T's max], reads as `def`.
  template <typename T>
  T GetInt(const std::string& name, T def, T min) const {
    static_assert(std::is_integral_v<T>);
    constexpr int64_t kMax = static_cast<int64_t>(
        std::min<uint64_t>(std::numeric_limits<T>::max(),
                           std::numeric_limits<int64_t>::max()));
    return static_cast<T>(GetInt64(name, def, min, kMax));
  }

  /// Bool: present with no value / "true" / "1" => true; "false"/"0" =>
  /// false; absent or anything else => def.
  bool GetBool(const std::string& name, bool def) const;

  /// InvalidArgument naming the first malformed or out-of-range value a
  /// getter read; failing that, "unknown flag(s): --a --b" for every flag
  /// no getter read (a typo like --epsilonn, or a flag off the path its
  /// command's other flags pick); otherwise OK.
  Status Check() const;

 private:
  /// Marks --name read; returns its value, or nullptr if absent.
  const std::string* Find(const std::string& name) const;
  /// Keeps `error` for Check() unless an earlier one is kept.
  void Fail(Status error) const;
  int64_t GetInt64(const std::string& name, int64_t def, int64_t min,
                   int64_t max) const;

  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> read_;
  mutable Status error_;
};

}  // namespace densest

#endif  // DENSEST_CLI_ARGS_H_

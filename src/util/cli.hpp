// Minimal flag parser for examples and benchmark binaries:
//   --pes 16 --device gx36 --size 1048576 --csv
// No external dependencies. Unknown flags are an error so typos surface:
// a program reads its flags, then calls reject_unknown() before any work.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace tshmem_util {

class Cli {
 public:
  /// `bool_flags` names flags that never take a value (e.g. "csv"), so a
  /// following token is treated as positional rather than as their value.
  /// Naming a flag here also declares it, for reject_unknown().
  Cli(int argc, char** argv, std::set<std::string> bool_flags = {});

  /// Declares a flag with a default; returns parsed or default value.
  /// Every get_* and has() declares the flag it asks for.
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& def) const;
  [[nodiscard]] long long get_int(const std::string& name, long long def) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;  ///< presence

  [[nodiscard]] bool has(const std::string& name) const;

  /// Throws std::invalid_argument naming every flag on the command line
  /// that nothing declared. Call it once every flag has been read.
  void reject_unknown() const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;  // flag -> value ("" for bare)
  std::vector<std::string> positional_;
  mutable std::set<std::string> declared_;  ///< bool flags plus every read
};

}  // namespace tshmem_util

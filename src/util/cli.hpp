// Minimal flag parser for examples and benchmark binaries:
//   --pes 16 --device gx36 --size 1048576 --csv
// No external dependencies. Unknown flags are an error so typos surface:
// a program reads its flags, then calls reject_unknown() before any work.
// A program whose main body runs under cli_main() exits 2 on such an
// error, with one line on stderr naming the program and the bad flag.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace tshmem_util {

/// A command-line error: a flag nothing reads, or a flag's bad value. Its
/// message starts with the program's name (argv[0]).
class CliError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

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

  /// get_string(name, def) passed through parse(), for a flag whose value
  /// names something (a device): a std::invalid_argument from parse()
  /// becomes a CliError naming the flag.
  template <typename Parse>
  [[nodiscard]] decltype(auto) get_as(const std::string& name,
                                      const std::string& def,
                                      Parse parse) const {
    const std::string value = get_string(name, def);
    try {
      return parse(value);
    } catch (const std::invalid_argument& e) {
      reject(name, e.what());
    }
  }

  [[nodiscard]] bool has(const std::string& name) const;

  /// Throws a CliError naming every flag on the command line that nothing
  /// declared. Call it once every flag has been read.
  void reject_unknown() const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  /// Throws a CliError naming the program, flag --name and `why`.
  [[noreturn]] void reject(const std::string& name,
                           const std::string& why) const;

  std::string program_;
  std::map<std::string, std::string> values_;  // flag -> value ("" for bare)
  std::vector<std::string> positional_;
  mutable std::set<std::string> declared_;  ///< bool flags plus every read
};

/// Returns body(argc, argv). A CliError ends it instead with its message
/// as one line on stderr and status 2, the usage-error convention: every
/// bench and example main runs its body through this.
int cli_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace tshmem_util

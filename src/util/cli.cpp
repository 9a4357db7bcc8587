#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>

namespace tshmem_util {

Cli::Cli(int argc, char** argv, std::set<std::string> bool_flags)
    : declared_(bool_flags) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string name = arg.substr(2);
      std::string value;
      const auto eq = name.find('=');
      if (eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
      } else if (bool_flags.count(name) == 0 && i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      values_[name] = value;
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Cli::has(const std::string& name) const {
  declared_.insert(name);
  return values_.count(name) != 0;
}

void Cli::reject_unknown() const {
  std::string unknown;
  for (const auto& [name, value] : values_) {
    if (declared_.count(name) == 0) unknown += " --" + name;
  }
  if (!unknown.empty()) {
    throw CliError(program_ + ": unknown flag(s):" + unknown);
  }
}

void Cli::reject(const std::string& name, const std::string& why) const {
  throw CliError(program_ + ": flag --" + name + ": " + why);
}

std::string Cli::get_string(const std::string& name,
                            const std::string& def) const {
  declared_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

long long Cli::get_int(const std::string& name, long long def) const {
  declared_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 0);
  if (end == it->second.c_str() || *end != '\0') {
    reject(name, "expects an integer, got '" + it->second + "'");
  }
  return v;
}

double Cli::get_double(const std::string& name, double def) const {
  declared_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    reject(name, "expects a number, got '" + it->second + "'");
  }
  return v;
}

bool Cli::get_flag(const std::string& name) const { return has(name); }

int cli_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const CliError& e) {
    std::cout.flush();  // what the program printed first stays ahead of it
    std::cerr << e.what() << '\n';
    return 2;
  }
}

}  // namespace tshmem_util

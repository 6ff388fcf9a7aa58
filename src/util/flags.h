// Minimal command-line flag parsing for benches and examples.
// Supports "--name=value" and "--name value"; unknown flags are an error so
// typos in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace srm::util {

class Flags {
 public:
  // Parses argv; throws std::invalid_argument on malformed input.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& default_value) const;
  // The numeric getters take the whole value or throw
  // std::invalid_argument naming the flag ("--nodes: not an integer: abc").
  std::int64_t get_int(const std::string& name,
                       std::int64_t default_value) const;
  double get_double(const std::string& name, double default_value) const;
  bool get_bool(const std::string& name, bool default_value) const;
  std::uint64_t get_seed(std::uint64_t default_value) const;

  // Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace srm::util

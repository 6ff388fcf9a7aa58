#include "util/flags.h"

#include <stdexcept>

namespace srm::util {

namespace {

// Parses all of flag `name`'s `text` with `parse` (a std::sto* function)
// or throws std::invalid_argument naming the flag.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& text,
                 const char* kind, Parse parse) {
  std::size_t used = 0;
  try {
    const auto value = parse(text, &used);
    if (used == text.size()) return value;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("--" + name + ": out of range: " + text);
  } catch (const std::invalid_argument&) {
  }
  throw std::invalid_argument("--" + name + ": not " + kind + ": " + text);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& default_value) const {
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return parse_whole(name, it->second, "an integer",
                     [](auto& t, auto* used) { return std::stoll(t, used); });
}

double Flags::get_double(const std::string& name, double default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return parse_whole(name, it->second, "a number",
                     [](auto& t, auto* used) { return std::stod(t, used); });
}

bool Flags::get_bool(const std::string& name, bool default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::uint64_t Flags::get_seed(std::uint64_t default_value) const {
  const auto it = values_.find("seed");
  if (it == values_.end()) return default_value;
  return parse_whole("seed", it->second, "an integer",
                     [](auto& t, auto* used) { return std::stoull(t, used); });
}

}  // namespace srm::util

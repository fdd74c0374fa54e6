#include "util/args.hpp"

#include <algorithm>
#include <stdexcept>

namespace hsbp::util {

namespace {

std::string to_lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return text;
}

}  // namespace

Args::Args(int argc, const char* const* argv,
           std::span<const std::string_view> bare_flags) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(token));
      continue;
    }
    std::string name = token.substr(2);
    std::string value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc &&
               std::string_view(argv[i + 1]).rfind("--", 0) != 0 &&
               std::find(bare_flags.begin(), bare_flags.end(), name) ==
                   bare_flags.end()) {
      value = argv[++i];
    }
    named_[name] = std::move(value);
  }
}

bool Args::has(const std::string& name) const noexcept {
  return named_.contains(name);
}

std::vector<std::string> Args::names() const {
  std::vector<std::string> out;
  out.reserve(named_.size());
  for (const auto& entry : named_) out.push_back(entry.first);
  std::sort(out.begin(), out.end());
  return out;
}

std::string Args::unknown_flags(
    std::span<const std::span<const std::string_view>> known) const {
  std::string unknown;
  for (const std::string& name : names()) {
    const bool found =
        std::any_of(known.begin(), known.end(), [&name](const auto group) {
          return std::find(group.begin(), group.end(), name) != group.end();
        });
    if (!found) unknown += (unknown.empty() ? "--" : ", --") + name;
  }
  return unknown;
}

std::optional<std::string> Args::raw(const std::string& name) const {
  if (const auto it = named_.find(name); it != named_.end()) return it->second;
  return std::nullopt;
}

std::string Args::get_string(const std::string& name,
                             const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const auto value = raw(name);
  if (!value || value->empty()) return fallback;
  try {
    return std::stoll(*value);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects an integer, got '" +
                                *value + "'");
  }
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto value = raw(name);
  if (!value || value->empty()) return fallback;
  try {
    return std::stod(*value);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects a number, got '" +
                                *value + "'");
  }
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  if (value->empty()) return true;  // bare --flag
  const std::string lowered = to_lower(*value);
  if (lowered == "1" || lowered == "true" || lowered == "yes" ||
      lowered == "on")
    return true;
  if (lowered == "0" || lowered == "false" || lowered == "no" ||
      lowered == "off")
    return false;
  throw std::invalid_argument("--" + name + " expects a boolean, got '" +
                              *value + "'");
}

}  // namespace hsbp::util

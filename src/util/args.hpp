/// \file args.hpp
/// \brief Tiny command-line parser shared by examples and the bench
/// harness. Supports `--name value`, `--name=value`, and boolean
/// `--flag` forms; unknown arguments are collected as positionals.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hsbp::util {

class Args {
 public:
  /// A flag in `bare_flags` never takes the next token as its value
  /// (`--weighted g.mtx` keeps g.mtx positional); `--flag=value` still
  /// sets one.
  Args(int argc, const char* const* argv,
       std::span<const std::string_view> bare_flags = {});

  /// True if `--name` appeared (with or without a value).
  bool has(const std::string& name) const noexcept;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Boolean flag: present without value, or with value in
  /// {1,true,yes,on} / {0,false,no,off}.
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// Names of every `--name` given, sorted.
  std::vector<std::string> names() const;

  /// Every `--name` given that no group of `known` lists, sorted, as
  /// "--a, --b"; empty when each is known.
  std::string unknown_flags(
      std::span<const std::span<const std::string_view>> known) const;

  const std::string& program() const noexcept { return program_; }

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::unordered_map<std::string, std::string> named_;
  std::vector<std::string> positionals_;
};

}  // namespace hsbp::util

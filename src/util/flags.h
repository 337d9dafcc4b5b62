#ifndef CSJ_UTIL_FLAGS_H_
#define CSJ_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace csj::util {

/// Minimal `--name value` / `--name=value` command-line parser for the
/// bench and example binaries. A flag's default fixes its type: `true` /
/// `false` make it a boolean, a number makes it numeric, anything else a
/// string. A bare boolean `--name` means true and leaves a following
/// `--…` token alone. Unknown flags, values that do not fully parse as
/// the flag's type, and negative values of a numeric flag whose default
/// is non-negative are errors, so typos in experiment invocations fail
/// loudly instead of silently running another configuration.
class Flags {
 public:
  /// Declares a flag with its default and a help line. Must be called for
  /// every flag before Parse().
  void Define(const std::string& name, const std::string& default_value,
              const std::string& help);

  /// Parses argv. On `--help` prints usage and returns false; on malformed
  /// or unknown flags prints a diagnostic and returns false.
  bool Parse(int argc, char** argv);

  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  /// Renders the usage text (program name, each flag with default + help).
  std::string Usage(const std::string& program) const;

 private:
  enum class Type { kString, kBool, kNumber };
  struct Spec {
    std::string default_value;
    std::string help;
    std::string value;
    Type type = Type::kString;
  };
  std::vector<std::string> order_;  // declaration order for --help
  std::map<std::string, Spec> specs_;
};

}  // namespace csj::util

#endif  // CSJ_UTIL_FLAGS_H_

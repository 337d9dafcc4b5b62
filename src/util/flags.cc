#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "util/logging.h"

namespace csj::util {

namespace {

bool IsBool(const std::string& value) {
  return value == "true" || value == "false" || value == "1" ||
         value == "0" || value == "yes" || value == "no" || value == "on" ||
         value == "off";
}

bool IsNumber(const std::string& value) {
  if (value.empty()) return false;
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  return end == value.c_str() + value.size();
}

bool IsNegative(const std::string& number) {
  return std::strtod(number.c_str(), nullptr) < 0.0;
}

}  // namespace

void Flags::Define(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  CSJ_CHECK(!specs_.count(name)) << "duplicate flag --" << name;
  Type type = Type::kString;
  if (default_value == "true" || default_value == "false") {
    type = Type::kBool;
  } else if (IsNumber(default_value)) {
    type = Type::kNumber;
  }
  specs_[name] = Spec{default_value, help, default_value, type};
  order_.push_back(name);
}

std::string Flags::Usage(const std::string& program) const {
  std::string out = "usage: " + program + " [flags]\n";
  for (const auto& name : order_) {
    const Spec& spec = specs_.at(name);
    out += "  --" + name + " (default: " + spec.default_value + ")\n      " +
           spec.help + "\n";
  }
  return out;
}

bool Flags::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n",
                   arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(),
                   Usage(argv[0]).c_str());
      return false;
    }
    Spec& spec = it->second;
    const bool no_value_follows =
        i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0;
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (spec.type == Type::kBool && no_value_follows) {
      value = "true";
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "flag --%s is missing a value\n", name.c_str());
      return false;
    }
    if ((spec.type == Type::kBool && !IsBool(value)) ||
        (spec.type == Type::kNumber && !IsNumber(value))) {
      std::fprintf(stderr, "flag --%s: '%s' is not a %s\n", name.c_str(),
                   value.c_str(),
                   spec.type == Type::kBool ? "boolean" : "number");
      return false;
    }
    // Counts, sizes and rates default to non-negative values, and callers
    // cast them to unsigned: a negative one would wrap to a huge budget.
    if (spec.type == Type::kNumber && IsNegative(value) &&
        !IsNegative(spec.default_value)) {
      std::fprintf(stderr, "flag --%s: '%s' must not be negative\n",
                   name.c_str(), value.c_str());
      return false;
    }
    spec.value = value;
  }
  return true;
}

std::string Flags::GetString(const std::string& name) const {
  const auto it = specs_.find(name);
  CSJ_CHECK(it != specs_.end()) << "undeclared flag --" << name;
  return it->second.value;
}

int64_t Flags::GetInt(const std::string& name) const {
  return std::strtoll(GetString(name).c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name) const {
  return std::strtod(GetString(name).c_str(), nullptr);
}

bool Flags::GetBool(const std::string& name) const {
  const std::string v = GetString(name);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

}  // namespace csj::util

#include "util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/string_util.h"

namespace dial::util {

int64_t* FlagSet::AddInt(const std::string& name, int64_t default_value,
                         const std::string& help) {
  int_storage_.push_back(std::make_unique<int64_t>(default_value));
  Flag f;
  f.kind = Kind::kInt;
  f.help = help;
  f.default_text = std::to_string(default_value);
  f.int_value = int_storage_.back().get();
  flags_[name] = f;
  return f.int_value;
}

double* FlagSet::AddDouble(const std::string& name, double default_value,
                           const std::string& help) {
  double_storage_.push_back(std::make_unique<double>(default_value));
  Flag f;
  f.kind = Kind::kDouble;
  f.help = help;
  f.default_text = StrFormat("%g", default_value);
  f.double_value = double_storage_.back().get();
  flags_[name] = f;
  return f.double_value;
}

bool* FlagSet::AddBool(const std::string& name, bool default_value,
                       const std::string& help) {
  bool_storage_.push_back(std::make_unique<bool>(default_value));
  Flag f;
  f.kind = Kind::kBool;
  f.help = help;
  f.default_text = default_value ? "true" : "false";
  f.bool_value = bool_storage_.back().get();
  flags_[name] = f;
  return f.bool_value;
}

std::string* FlagSet::AddString(const std::string& name,
                                const std::string& default_value,
                                const std::string& help) {
  string_storage_.push_back(std::make_unique<std::string>(default_value));
  Flag f;
  f.kind = Kind::kString;
  f.help = help;
  f.default_text = default_value;
  f.string_value = string_storage_.back().get();
  flags_[name] = f;
  return f.string_value;
}

Status FlagSet::SetFromText(const std::string& name, Flag& flag,
                            const std::string& text) {
  // strtoll/strtod accept leading garbage tolerance we don't want: require a
  // non-empty value that parses in full, so `--workers=` and `--workers=8x`
  // are errors instead of silently becoming 0 / 8.
  char* end = nullptr;
  switch (flag.kind) {
    case Kind::kInt: {
      if (text.empty()) {
        return Status::InvalidArgument("empty value for --" + name);
      }
      errno = 0;
      const int64_t v = std::strtoll(text.c_str(), &end, 10);
      if (end != text.c_str() + text.size() || errno == ERANGE) {
        return Status::InvalidArgument("bad integer value for --" + name + ": " +
                                       text);
      }
      *flag.int_value = v;
      break;
    }
    case Kind::kDouble: {
      if (text.empty()) {
        return Status::InvalidArgument("empty value for --" + name);
      }
      errno = 0;
      const double v = std::strtod(text.c_str(), &end);
      if (end != text.c_str() + text.size() || errno == ERANGE) {
        return Status::InvalidArgument("bad numeric value for --" + name + ": " +
                                       text);
      }
      *flag.double_value = v;
      break;
    }
    case Kind::kBool:
      if (text == "true" || text == "1") {
        *flag.bool_value = true;
      } else if (text == "false" || text == "0") {
        *flag.bool_value = false;
      } else {
        return Status::InvalidArgument("bad boolean value for --" + name + ": " +
                                       text);
      }
      break;
    case Kind::kString:
      *flag.string_value = text;
      break;
  }
  return Status::OK();
}

Status FlagSet::TryParse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return Status::InvalidArgument("help requested");
    }
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string value_text;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value_text = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    bool negated = false;
    if (!flags_.count(arg) && StartsWith(arg, "no-")) {
      negated = true;
      arg = arg.substr(3);
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) {
      return Status::InvalidArgument("Unknown flag --" + arg);
    }
    Flag& flag = it->second;
    if (flag.kind == Kind::kBool && !has_value) {
      *flag.bool_value = !negated;
      continue;
    }
    if (negated) {
      return Status::InvalidArgument("--no- prefix is only valid for boolean flags: --no-" +
                                     arg);
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + arg + " expects a value");
      }
      value_text = argv[++i];
    }
    DIAL_RETURN_IF_ERROR(SetFromText(arg, flag, value_text));
  }
  return Status::OK();
}

void FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help" || std::string(argv[i]) == "-h") {
      std::fprintf(stderr, "%s", Usage(argv[0]).c_str());
      std::exit(0);
    }
  }
  const Status s = TryParse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n%s", s.message().c_str(),
                 Usage(argv[0]).c_str());
    std::exit(2);
  }
}

void CheckFlag(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "error: %s\n", status.message().c_str());
  std::exit(2);
}

std::string FlagSet::Usage(const std::string& program) const {
  std::string out = "Usage: " + program + " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out += StrFormat("  --%-24s %s (default: %s)\n", name.c_str(), flag.help.c_str(),
                     flag.default_text.c_str());
  }
  return out;
}

}  // namespace dial::util

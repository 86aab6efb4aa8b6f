#include "util/argparse.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace emmark {
namespace {

template <typename Number, typename Parse>
Number parse_strict(const std::string& text, const std::string& what,
                    const char* expects, Parse parse) {
  try {
    size_t consumed = 0;
    const Number value = parse(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument(what + " expects " + expects + ", got: " + text);
}

}  // namespace

int64_t parse_int(const std::string& text, const std::string& what) {
  return parse_strict<int64_t>(text, what, "an integer",
                               [](auto& s, size_t* n) { return std::stoll(s, n); });
}

uint64_t parse_uint(const std::string& text, const std::string& what,
                    uint64_t max) {
  const std::string expects =
      max == UINT64_MAX ? "an unsigned integer"
                        : "an unsigned integer at most " + std::to_string(max);
  return parse_strict<uint64_t>(text, what, expects.c_str(), [max](auto& s, size_t* n) {
    if (s.find('-') != std::string::npos) throw std::out_of_range("negative");
    const uint64_t value = std::stoull(s, n);
    if (value > max) throw std::out_of_range("above max");
    return value;
  });
}

double parse_double(const std::string& text, const std::string& what) {
  return parse_strict<double>(text, what, "a number",
                              [](auto& s, size_t* n) { return std::stod(s, n); });
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_option(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  order_.push_back(name);
  options_[name] = Option{default_value, help, /*is_flag=*/false};
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  order_.push_back(name);
  options_[name] = Option{"false", help, /*is_flag=*/true};
}

void ArgParser::add_command(const std::string& name, const std::string& help) {
  command_order_.push_back(name);
  commands_[name] = help;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  args.reserve(argc > 0 ? static_cast<size_t>(argc - 1) : 0);
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return parse(args);
}

bool ArgParser::parse(const std::vector<std::string>& args) {
  values_.clear();
  command_.clear();
  command_args_.clear();
  for (size_t i = 0; i < args.size(); ++i) {
    std::string arg = args[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      if (!commands_.empty()) {
        // Subcommand mode: the first positional selects the command; the
        // per-command parser owns everything after it.
        if (commands_.find(arg) == commands_.end()) {
          std::fprintf(stderr, "unknown command: %s\n%s", arg.c_str(),
                       usage().c_str());
          return false;
        }
        command_ = arg;
        command_args_.assign(args.begin() + static_cast<ptrdiff_t>(i) + 1,
                             args.end());
        return true;
      }
      std::fprintf(stderr, "unexpected positional argument: %s\n%s", arg.c_str(),
                   usage().c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = options_.find(arg);
    if (it == options_.end()) {
      std::fprintf(stderr, "unknown option: --%s\n%s", arg.c_str(), usage().c_str());
      return false;
    }
    if (it->second.is_flag) {
      values_[arg] = has_value ? value : "true";
    } else {
      if (!has_value) {
        if (i + 1 >= args.size()) {
          std::fprintf(stderr, "option --%s expects a value\n", arg.c_str());
          return false;
        }
        value = args[++i];
      }
      values_[arg] = value;
    }
  }
  if (!commands_.empty()) {
    std::fprintf(stderr, "expected a command\n%s", usage().c_str());
    return false;
  }
  return true;
}

std::string ArgParser::get(const std::string& name) const {
  const auto opt = options_.find(name);
  if (opt == options_.end()) throw std::invalid_argument("unregistered option: " + name);
  const auto val = values_.find(name);
  return val == values_.end() ? opt->second.default_value : val->second;
}

int64_t ArgParser::get_int(const std::string& name) const {
  return parse_int(get(name), "option --" + name);
}

uint64_t ArgParser::get_uint(const std::string& name, uint64_t max) const {
  return parse_uint(get(name), "option --" + name, max);
}

double ArgParser::get_double(const std::string& name) const {
  return parse_double(get(name), "option --" + name);
}

bool ArgParser::get_flag(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes";
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << program_ << " - " << description_ << "\n";
  if (!command_order_.empty()) {
    out << "\nusage: " << program_ << " <command> [options]\n\ncommands:\n";
    for (const auto& name : command_order_) {
      out << "  " << name << "\n      " << commands_.at(name) << "\n";
    }
    if (options_.empty()) {
      out << "  (run `" << program_ << " <command> --help` for command options)\n";
      return out.str();
    }
  }
  out << "\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    out << "  --" << name;
    if (!opt.is_flag) out << " <value>";
    out << "\n      " << opt.help;
    if (!opt.is_flag) out << " (default: " << opt.default_value << ")";
    out << "\n";
  }
  out << "  --help\n      show this message\n";
  return out.str();
}

}  // namespace emmark

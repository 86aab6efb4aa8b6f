// Tiny command-line parser for the example and CLI binaries.
//
// Supports `--flag`, `--key value` and `--key=value`. Unknown options are
// an error so typos do not silently fall back to defaults, and numeric
// getters reject values that are not wholly a number of their type.
//
// Subcommand mode (emmark_cli): register commands with add_command(); parse
// then treats the first positional as the command name, stops there, and
// leaves the remaining argv in command_args() for a per-command ArgParser.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace emmark {

/// Strict number parsing, shared with the protocol codec (cli/protocol.h):
/// only a fully-consumed string counts, where std::stoll/std::stod would
/// silently stop at "3abc" or "95percent". Anything else throws
/// std::invalid_argument("<what> expects <kind>, got: <text>").
int64_t parse_int(const std::string& text, const std::string& what);
/// Also rejects negatives, which std::stoull would wrap, overflow, and
/// values above the inclusive `max`.
uint64_t parse_uint(const std::string& text, const std::string& what,
                    uint64_t max = UINT64_MAX);
double parse_double(const std::string& text, const std::string& what);

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Registers an option with a default value; `help` is shown by usage().
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Registers a boolean flag (default false).
  void add_flag(const std::string& name, const std::string& help);
  /// Registers a subcommand; any number may be added. Once one is
  /// registered, parse() expects `program <command> [args...]`.
  void add_command(const std::string& name, const std::string& help);

  /// Parses argv; returns false (after printing usage) on --help or error.
  bool parse(int argc, const char* const* argv);
  /// Same, over pre-split arguments (argv[0]/program name NOT included).
  bool parse(const std::vector<std::string>& args);

  /// Selected subcommand ("" when none was parsed).
  const std::string& command() const { return command_; }
  /// Arguments following the subcommand, for the per-command parser.
  const std::vector<std::string>& command_args() const { return command_args_; }

  std::string get(const std::string& name) const;
  /// Numeric getters parse strictly (see parse_int); the error names the
  /// option. get_uint also rejects values above the inclusive `max`, so a
  /// narrower field (a port, a millisecond count) never wraps.
  int64_t get_int(const std::string& name) const;
  uint64_t get_uint(const std::string& name, uint64_t max = UINT64_MAX) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  std::string usage() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  std::string program_;
  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> command_order_;
  std::map<std::string, std::string> commands_;
  std::string command_;
  std::vector<std::string> command_args_;
};

}  // namespace emmark

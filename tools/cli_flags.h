#ifndef GPUPERF_TOOLS_CLI_FLAGS_H_
#define GPUPERF_TOOLS_CLI_FLAGS_H_

/**
 * @file
 * The gpuperf command table: one entry per subcommand, one row per flag.
 * Parsing, bound checks, `--help`, the top-level command list and the
 * unknown-flag check are all generated from it, so a flag's name,
 * default, bound and help text are written exactly once. Checks that
 * need several flags or outside state (the pool, the zoo, a bundle)
 * stay in the command bodies.
 */

#include <cmath>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gpuperf::cli {

enum class FlagKind { kBool, kString, kList, kChoice, kInt, kDouble };

/** A numeric range; each end inclusive unless marked exclusive. */
struct Bound {
  double min = -HUGE_VAL;
  bool min_exclusive = false;
  double max = HUGE_VAL;
  bool max_exclusive = false;
};

/** One flag row. Integer rows parse as 64-bit, then check `bound`. */
struct Flag {
  const char* name;     // without the leading "--"
  const char* metavar;  // "" for bool rows
  FlagKind kind;
  const char* fallback;  // the default, as typed on the command line
  Bound bound;           // kInt and kDouble rows
  std::vector<std::string> choices;  // kChoice rows
  const char* help;
  bool required = false;
};

/** One subcommand entry. */
struct Command {
  const char* name;
  const char* summary;      // one line for the top-level list
  const char* positionals;  // e.g. "<network> <gpu> [batch]"; [] = optional
  const char* prose;        // paragraph printed before the flag list
  std::vector<Flag> flags;
};

/**
 * The largest batch any subcommand accepts, on every `--batch` row and
 * every positional batch. Predictors and lowering multiply a batch by
 * per-sample driver values and launch-grid sizes in int64; this bound
 * keeps each such product over the zoo within int64 (pinned by
 * `CliTest.BatchBoundKeepsZooProductsInInt64`).
 */
inline constexpr long long kMaxBatch = 1LL << 20;

/**
 * Parses a positional batch argument against the `--batch` rows' bound.
 * The error message is the single usage line.
 */
StatusOr<long long> ParseBatch(const std::string& text);

/** Every subcommand, in `gpuperf --help` order. */
const std::vector<Command>& Commands();

/** The entry named `name`, or nullptr. */
const Command* FindCommand(std::string_view name);

/** `gpuperf <command> --help`: synopsis, prose, then one line per row. */
std::string Help(const Command& command);

/** `gpuperf --help`: the command list. */
std::string Usage();

/** One invocation's validated values: every row, given or defaulted. */
class Flags {
 public:
  /**
   * Parses the arguments after the subcommand name. The error message
   * is the single usage line, naming the offending flag or argument.
   * `--help` anywhere wins over every other check.
   */
  static StatusOr<Flags> Parse(const Command& command,
                               const std::vector<std::string>& argv);

  const Command& command() const { return *command_; }
  bool help() const { return help_; }
  const std::vector<std::string>& args() const { return args_; }

  bool Bool(std::string_view name) const;
  /** The raw text of a string, list or choice row. */
  const std::string& String(std::string_view name) const;
  std::vector<std::string> List(std::string_view name) const;
  long long Int(std::string_view name) const;
  double Double(std::string_view name) const;

 private:
  struct Value {
    FlagKind kind;
    std::string text;
    long long integer = 0;
    double number = 0;
  };
  static StatusOr<Value> Check(const Flag& flag, const std::string& text);
  const Value& Get(std::string_view name) const;

  const Command* command_ = nullptr;
  bool help_ = false;
  std::vector<std::string> args_;
  std::map<std::string, Value, std::less<>> values_;
};

}  // namespace gpuperf::cli

#endif  // GPUPERF_TOOLS_CLI_FLAGS_H_

/**
 * @file
 * Minimal command-line flag parser for the bench and example binaries.
 *
 * Supports "--name value" and "--name=value" forms plus boolean
 * switches. Unknown flags, positional arguments, and malformed
 * numeric values are user errors: parse() prints the problem plus the
 * usage text and exits nonzero (never an uncaught exception, never a
 * silently ignored flag); tryParse()/tryGetInt()/tryGetDouble()
 * surface the same problems as structured Status/Result values for
 * callers (and tests) that want to recover.
 */

#ifndef GPUECC_COMMON_CLI_HPP
#define GPUECC_COMMON_CLI_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace gpuecc {

/** Exit code of a command-line usage error (BSD EX_USAGE). */
constexpr int kUsageExitCode = 64;

/**
 * Largest value a duration flag accepts, in seconds. Durations become
 * int milliseconds or clock durations downstream, and int
 * milliseconds overflow past ~2.1e6 s.
 */
constexpr double kMaxDurationSeconds = 1e6;

/** Parsed command line with typed accessors and defaults. */
class Cli
{
  public:
    /**
     * Declare a flag before parsing.
     *
     * @param name flag name without the leading dashes
     * @param def  default value as text
     * @param help one-line description for --help output
     */
    void addFlag(const std::string& name, const std::string& def,
                 const std::string& help);

    /**
     * Parse argv. On --help/-h prints usage and exits 0; on an
     * unknown flag or positional argument prints the error and the
     * usage text to stderr and exits kUsageExitCode.
     *
     * @param program_desc one-line description printed by --help
     */
    void parse(int argc, char** argv, const std::string& program_desc);

    /**
     * Parse argv without printing or exiting: an unknown flag or
     * positional argument is an invalidArgument error. --help/-h
     * only sets helpRequested() — the caller decides what to do.
     */
    Status tryParse(int argc, char** argv);

    /** Whether the last tryParse/parse saw --help or -h. */
    bool helpRequested() const { return help_requested_; }

    /** The --help text: program description plus the flag table. */
    std::string usageText(const std::string& program_desc) const;

    /** Value of a declared flag as a string. */
    std::string getString(const std::string& name) const;

    /** Value of a declared flag as a 64-bit integer; fatal if the
     *  value isn't a (possibly hex) integer. */
    std::int64_t getInt(const std::string& name) const;

    /**
     * Value of a declared flag as a finite double; fatal if malformed,
     * NaN or infinite.
     */
    double getDouble(const std::string& name) const;

    /**
     * Value of a declared duration flag, in seconds: >= 0 (> 0 when
     * @p positive) and at most kMaxDurationSeconds; fatal otherwise,
     * naming the flag.
     */
    double getDuration(const std::string& name, bool positive) const;

    /** Value of a declared flag as a boolean ("1"/"true" are true). */
    bool getBool(const std::string& name) const;

    /** getInt with a structured error instead of fatal. */
    Result<std::int64_t> tryGetInt(const std::string& name) const;

    /** getDouble with a structured error instead of fatal. */
    Result<double> tryGetDouble(const std::string& name) const;

  private:
    struct Flag
    {
        std::string value;
        std::string help;
    };
    std::map<std::string, Flag> flags_;
    bool help_requested_ = false;
};

} // namespace gpuecc

#endif // GPUECC_COMMON_CLI_HPP

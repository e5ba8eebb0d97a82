#include "common/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"

namespace gpuecc {

void
Cli::addFlag(const std::string& name, const std::string& def,
             const std::string& help)
{
    flags_[name] = {def, help};
}

std::string
Cli::usageText(const std::string& program_desc) const
{
    std::string out = program_desc + "\n\nflags:\n";
    for (const auto& [name, flag] : flags_) {
        char line[256];
        std::snprintf(line, sizeof(line), "  --%-20s %s (default: %s)\n",
                      name.c_str(), flag.help.c_str(),
                      flag.value.c_str());
        out += line;
    }
    return out;
}

Status
Cli::tryParse(int argc, char** argv)
{
    help_requested_ = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            help_requested_ = true;
            continue;
        }
        if (arg.rfind("--", 0) != 0) {
            return Status::invalidArgument(
                "unexpected positional argument: " + arg);
        }
        arg = arg.substr(2);
        std::string name = arg, value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
            value = argv[++i];
        } else {
            value = "true"; // boolean switch form
        }
        const auto it = flags_.find(name);
        if (it == flags_.end()) {
            return Status::invalidArgument("unknown flag --" + name);
        }
        it->second.value = value;
    }
    return {};
}

void
Cli::parse(int argc, char** argv, const std::string& program_desc)
{
    const Status status = tryParse(argc, argv);
    if (help_requested_) {
        std::printf("%s", usageText(program_desc).c_str());
        std::exit(0);
    }
    if (!status.ok()) {
        std::fprintf(stderr, "error: %s (try --help)\n\n%s",
                     status.message().c_str(),
                     usageText(program_desc).c_str());
        std::exit(kUsageExitCode);
    }
}

std::string
Cli::getString(const std::string& name) const
{
    const auto it = flags_.find(name);
    require(it != flags_.end(), "undeclared flag: " + name);
    return it->second.value;
}

Result<std::int64_t>
Cli::tryGetInt(const std::string& name) const
{
    const std::string text = getString(name);
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 0);
    if (text.empty() || end != text.c_str() + text.size()) {
        return Status::invalidArgument("--" + name + ": '" + text +
                                       "' is not an integer");
    }
    if (errno == ERANGE) {
        return Status::invalidArgument("--" + name + ": '" + text +
                                       "' overflows 64 bits");
    }
    return static_cast<std::int64_t>(v);
}

Result<double>
Cli::tryGetDouble(const std::string& name) const
{
    const std::string text = getString(name);
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size()) {
        return Status::invalidArgument("--" + name + ": '" + text +
                                       "' is not a number");
    }
    if (!std::isfinite(v)) {
        return Status::invalidArgument("--" + name + ": '" + text +
                                       "' is not finite");
    }
    return v;
}

std::int64_t
Cli::getInt(const std::string& name) const
{
    Result<std::int64_t> v = tryGetInt(name);
    if (!v.ok())
        fatal(v.status().message());
    return v.value();
}

double
Cli::getDouble(const std::string& name) const
{
    Result<double> v = tryGetDouble(name);
    if (!v.ok())
        fatal(v.status().message());
    return v.value();
}

double
Cli::getDuration(const std::string& name, bool positive) const
{
    const double seconds = getDouble(name);
    if (positive && seconds <= 0)
        fatal("--" + name + " must be positive");
    if (seconds < 0)
        fatal("--" + name + " must be >= 0");
    if (seconds > kMaxDurationSeconds) {
        fatal("--" + name + " must be at most " +
              std::to_string(static_cast<long>(kMaxDurationSeconds)) +
              " seconds");
    }
    return seconds;
}

bool
Cli::getBool(const std::string& name) const
{
    const std::string v = getString(name);
    return v == "1" || v == "true" || v == "yes";
}

} // namespace gpuecc

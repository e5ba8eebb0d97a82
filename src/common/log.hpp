/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a library bug), fatal() is for unrecoverable user error
 * (bad configuration or arguments), warn()/inform() are non-fatal
 * notices.
 *
 * Emission is atomic: each message is formatted into one buffer and
 * written with a single fwrite under logMutex(), so concurrent shard
 * warnings never interleave mid-line on stderr. Set GPUECC_LOG_TIDS
 * (or call setLogThreadIds) to prefix each line with a small stable
 * per-thread id. A pre-line hook lets a live status line (the progress
 * reporter) clear itself before any log line lands.
 */

#ifndef GPUECC_COMMON_LOG_HPP
#define GPUECC_COMMON_LOG_HPP

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace gpuecc {

/** Serializes every stderr line the library emits. */
inline std::mutex&
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

/**
 * Called under logMutex() immediately before each log line is written.
 * Must write straight to stderr without taking logMutex() again.
 */
using LogHook = void (*)();

namespace logdetail {

inline std::atomic<LogHook>&
preLineHook()
{
    static std::atomic<LogHook> hook{nullptr};
    return hook;
}

inline std::atomic<bool>&
threadIdsFlag()
{
    static std::atomic<bool> flag{
        std::getenv("GPUECC_LOG_TIDS") != nullptr};
    return flag;
}

/** Small, stable, first-use-ordered id for the calling thread. */
inline int
threadLogId()
{
    static std::atomic<int> next{0};
    thread_local const int id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

/** Format and write one complete line with a single fwrite. */
inline void
emitLine(const char* severity, const std::string& msg)
{
    std::string line;
    line.reserve(msg.size() + 24);
    if (threadIdsFlag().load(std::memory_order_relaxed)) {
        line += "[t";
        line += std::to_string(threadLogId());
        line += "] ";
    }
    line += severity;
    line += ": ";
    line += msg;
    line += '\n';
    std::lock_guard<std::mutex> lock(logMutex());
    if (LogHook hook =
            preLineHook().load(std::memory_order_acquire))
        hook();
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

} // namespace logdetail

/** Install (or with nullptr remove) the pre-line hook. */
inline void
setLogPreLineHook(LogHook hook)
{
    logdetail::preLineHook().store(hook, std::memory_order_release);
}

/** Enable or disable the per-thread id prefix on every line. */
inline void
setLogThreadIds(bool enabled)
{
    logdetail::threadIdsFlag().store(enabled,
                                     std::memory_order_relaxed);
}

/** Print an internal-bug message and abort. Never returns. */
[[noreturn]] inline void
panic(const std::string& msg)
{
    logdetail::emitLine("panic", msg);
    std::abort();
}

/** Print a user-error message and exit(1). Never returns. */
[[noreturn]] inline void
fatal(const std::string& msg)
{
    logdetail::emitLine("fatal", msg);
    std::exit(1);
}

/** Print a non-fatal warning to stderr. */
inline void
warn(const std::string& msg)
{
    logdetail::emitLine("warn", msg);
}

/** Print an informational status message to stderr. */
inline void
inform(const std::string& msg)
{
    logdetail::emitLine("info", msg);
}

/** Abort with a message unless cond holds. Enabled in all build types. */
inline void
require(bool cond, const std::string& msg)
{
    if (!cond)
        panic(msg);
}

/**
 * require() for a literal message: the string is built only when the
 * check fails, so a passing check on a hot path costs one branch and
 * no allocation.
 */
inline void
require(bool cond, const char* msg)
{
    if (!cond)
        panic(msg);
}

} // namespace gpuecc

#endif // GPUECC_COMMON_LOG_HPP

/**
 * @file
 * POSIX child-process and pipe helpers for the fleet dispatcher.
 *
 * The fleet execution mode forks one worker process per requested
 * worker and talks newline-delimited JSON over a pipe pair. These
 * helpers wrap the raw fork/pipe/waitpid surface with Status-based
 * errors so the dispatcher can degrade gracefully (a dead worker is
 * a requeued work unit, not a crashed campaign): EINTR is retried,
 * EPIPE/EOF surface as structured errors, and SIGPIPE is disabled so
 * a write to a dead worker's pipe fails instead of killing the
 * parent. On non-POSIX platforms every entry point reports
 * unavailable, which the campaign runner maps to "fleet mode not
 * supported here".
 */

#ifndef GPUECC_COMMON_SUBPROCESS_HPP
#define GPUECC_COMMON_SUBPROCESS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace gpuecc {

/** Whether this build can fork worker processes (POSIX only). */
bool subprocessSupported();

/**
 * Turn SIGPIPE off process-wide (idempotent). Call before writing to
 * pipes whose reader may die: the write then fails with an ioError
 * instead of terminating the process.
 */
void ignoreSigpipe();

/** One forked worker and the parent's ends of its pipes. */
struct ChildProcess
{
    std::int64_t pid = -1;
    /** Parent writes work units here (child's stdin side). */
    int to_child = -1;
    /** Parent reads results here (child's stdout side). */
    int from_child = -1;
};

/**
 * Fork a child that runs child_main(read_fd, write_fd) and _exit()s
 * with its return value. The child closes every fd listed in
 * inherited_fds first — pipe ends of previously forked siblings,
 * which would otherwise keep a dead sibling's pipe open and mask its
 * EOF. Call only while the process is single-threaded (fork() in a
 * threaded process may copy a held allocator lock into the child).
 */
Result<ChildProcess>
spawnChild(const std::function<int(int read_fd, int write_fd)>& child_main,
           const std::vector<int>& inherited_fds);

/** Write all of data to fd, retrying on EINTR/short writes. */
Status writeAllFd(int fd, const std::string& data);

/**
 * writeAllFd with a poll-based deadline: every chunk must become
 * writable within the remaining budget or the write fails with the
 * deadline Status (isDeadlineExpired). Handles non-blocking fds
 * (EAGAIN waits on poll). deadline_ms < 0 means no deadline.
 */
Status writeAllFd(int fd, const std::string& data, int deadline_ms);

/**
 * Whether a Status is a read/write deadline expiry — the liveness
 * signal the fleet liaisons act on (kill the hung worker, requeue its
 * unit) as opposed to EOF (notFound) or a broken pipe (ioError).
 */
bool isDeadlineExpired(const Status& status);

/**
 * Default cap on one wire line. Generous — a result line carries one
 * checkpoint entry per shard task of its unit — but bounded, so a
 * corrupt or malicious peer cannot grow the read buffer without
 * limit.
 */
constexpr std::size_t kDefaultMaxLineBytes = std::size_t{64} << 20;

/**
 * Buffered line reader over a pipe or socket fd. readLine() returns
 * the next '\n'-terminated line without the terminator; end-of-stream
 * (the peer closed the pipe) is a notFound Status, a read failure an
 * ioError. A final unterminated line is dataLoss — the peer died
 * mid-write. A line longer than max_line_bytes is dataLoss too, and
 * poisons the stream (framing is unrecoverable past an oversized
 * line). The deadline overload polls instead of blocking; an expired
 * deadline (isDeadlineExpired) leaves buffered partial data intact,
 * so the read can be retried.
 */
class LineReader
{
  public:
    explicit LineReader(int fd,
                        std::size_t max_line_bytes = kDefaultMaxLineBytes)
        : fd_(fd), max_line_bytes_(max_line_bytes)
    {
    }

    Result<std::string> readLine();

    /** readLine with a poll deadline; deadline_ms < 0 blocks, 0
        takes only what is ready now. */
    Result<std::string> readLine(int deadline_ms);

  private:
    int fd_;
    std::size_t max_line_bytes_;
    std::string buffer_;
    bool eof_ = false;
    bool poisoned_ = false;
};

/** close() wrapper tolerating already-closed fds (idempotent). */
void closeFd(int& fd);

/**
 * Wait for the child to exit and return its encoded status: the
 * exit code for a normal exit, 128 + signal for a signalled death
 * (the shell convention, so reports read naturally).
 */
Result<int> waitForExit(std::int64_t pid);

/** Send a signal (default SIGKILL) to the child; ok if already dead. */
Status killChild(std::int64_t pid);

} // namespace gpuecc

#endif // GPUECC_COMMON_SUBPROCESS_HPP

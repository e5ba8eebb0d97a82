#include "common/subprocess.hpp"

#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define GPUECC_HAS_SUBPROCESS 1
#include <csignal>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define GPUECC_HAS_SUBPROCESS 0
#endif

#include <chrono>

namespace gpuecc {

namespace {

/** The one deadline message isDeadlineExpired keys on. */
constexpr const char* kDeadlineMessage = "io deadline expired";

} // namespace

bool
subprocessSupported()
{
    return GPUECC_HAS_SUBPROCESS != 0;
}

bool
isDeadlineExpired(const Status& status)
{
    return status.code() == ErrorCode::unavailable &&
           status.message() == kDeadlineMessage;
}

#if GPUECC_HAS_SUBPROCESS

void
ignoreSigpipe()
{
    std::signal(SIGPIPE, SIG_IGN);
}

Result<ChildProcess>
spawnChild(
    const std::function<int(int read_fd, int write_fd)>& child_main,
    const std::vector<int>& inherited_fds)
{
    int to_child[2];   // parent writes [1], child reads [0]
    int from_child[2]; // child writes [1], parent reads [0]
    if (pipe(to_child) != 0) {
        return Status::ioError(std::string("pipe: ") +
                               std::strerror(errno));
    }
    if (pipe(from_child) != 0) {
        const int err = errno;
        close(to_child[0]);
        close(to_child[1]);
        return Status::ioError(std::string("pipe: ") +
                               std::strerror(err));
    }

    const pid_t pid = fork();
    if (pid < 0) {
        const int err = errno;
        close(to_child[0]);
        close(to_child[1]);
        close(from_child[0]);
        close(from_child[1]);
        return Status::ioError(std::string("fork: ") +
                               std::strerror(err));
    }
    if (pid == 0) {
        // Child: drop the parent ends of our own pipes and every
        // inherited sibling fd — holding a sibling's write end open
        // would hide that sibling's death from the parent (no EOF).
        close(to_child[1]);
        close(from_child[0]);
        for (const int fd : inherited_fds)
            close(fd);
        const int code = child_main(to_child[0], from_child[1]);
        // _exit, not exit: no atexit handlers, no stdio flush of
        // buffers duplicated from the parent.
        _exit(code);
    }

    close(to_child[0]);
    close(from_child[1]);
    ChildProcess child;
    child.pid = pid;
    child.to_child = to_child[1];
    child.from_child = from_child[0];
    return child;
}

namespace {

using DeadlineClock = std::chrono::steady_clock;

/**
 * Milliseconds left until @p end, clamped to [0, INT_MAX]; -1 when no
 * deadline is armed (poll's "block forever").
 */
int
remainingMs(bool armed, DeadlineClock::time_point end)
{
    if (!armed)
        return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        end - DeadlineClock::now());
    if (left.count() <= 0)
        return 0;
    if (left.count() > 60 * 60 * 1000)
        return 60 * 60 * 1000;
    return static_cast<int>(left.count());
}

/**
 * Wait until fd is ready for @p events or the budget runs out.
 * ok = ready; the deadline Status = budget exhausted; ioError = poll
 * failed. POLLERR/POLLHUP count as ready — the following read/write
 * surfaces the real condition (EOF or EPIPE).
 */
Status
pollFd(int fd, short events, bool armed, DeadlineClock::time_point end)
{
    for (;;) {
        struct pollfd p;
        p.fd = fd;
        p.events = events;
        p.revents = 0;
        // An exhausted budget still checks readiness once (a zero
        // poll), so a zero deadline means "only what is ready now".
        const int r = poll(&p, 1, remainingMs(armed, end));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return Status::ioError(std::string("poll: ") +
                                   std::strerror(errno));
        }
        if (r == 0) {
            if (armed)
                return Status::unavailable(kDeadlineMessage);
            continue;
        }
        return {};
    }
}

} // namespace

Status
writeAllFd(int fd, const std::string& data)
{
    return writeAllFd(fd, data, -1);
}

Status
writeAllFd(int fd, const std::string& data, int deadline_ms)
{
    const bool armed = deadline_ms >= 0;
    const auto end =
        DeadlineClock::now() + std::chrono::milliseconds(
                                   armed ? deadline_ms : 0);
    std::size_t off = 0;
    while (off < data.size()) {
        // A blocking fd would park in write() past the budget, so
        // wait for writability first whenever a deadline is armed.
        if (armed) {
            if (Status s = pollFd(fd, POLLOUT, true, end); !s.ok())
                return s;
        }
        const ssize_t n =
            write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                if (Status s = pollFd(fd, POLLOUT, armed, end); !s.ok())
                    return s;
                continue;
            }
            return Status::ioError(std::string("pipe write: ") +
                                   std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    return {};
}

Result<std::string>
LineReader::readLine()
{
    return readLine(-1);
}

Result<std::string>
LineReader::readLine(int deadline_ms)
{
    if (poisoned_) {
        return Status::dataLoss(
            "line stream poisoned by an earlier oversized line");
    }
    const bool armed = deadline_ms >= 0;
    const auto end =
        DeadlineClock::now() + std::chrono::milliseconds(
                                   armed ? deadline_ms : 0);
    for (;;) {
        const std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos && nl <= max_line_bytes_) {
            std::string line = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            return line;
        }
        // No frame boundary within the bound: an oversized line is
        // over the limit whether or not its terminator has arrived
        // yet (a fast peer can deliver both in one read).
        if (nl != std::string::npos || buffer_.size() > max_line_bytes_) {
            // Past the bound there is no way to find the next frame
            // boundary again, so the whole stream is condemned.
            poisoned_ = true;
            buffer_.clear();
            return Status::dataLoss(
                "wire line exceeds the " +
                std::to_string(max_line_bytes_) + "-byte bound");
        }
        if (eof_) {
            if (!buffer_.empty()) {
                buffer_.clear();
                return Status::dataLoss(
                    "pipe closed mid-line (peer died writing)");
            }
            return Status::notFound("end of stream");
        }
        // A blocking fd would park in read() past the budget, so wait
        // for readability first whenever a deadline is armed.
        if (armed) {
            if (Status s = pollFd(fd_, POLLIN, true, end); !s.ok())
                return s;
        }
        char chunk[4096];
        const ssize_t n = read(fd_, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                if (Status s = pollFd(fd_, POLLIN, armed, end);
                    !s.ok())
                    return s;
                continue;
            }
            return Status::ioError(std::string("pipe read: ") +
                                   std::strerror(errno));
        }
        if (n == 0) {
            eof_ = true;
            continue;
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

void
closeFd(int& fd)
{
    if (fd >= 0) {
        close(fd);
        fd = -1;
    }
}

Result<int>
waitForExit(std::int64_t pid)
{
    int status = 0;
    for (;;) {
        const pid_t r = waitpid(static_cast<pid_t>(pid), &status, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return Status::ioError(std::string("waitpid: ") +
                                   std::strerror(errno));
        }
        break;
    }
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return Status::internalError("waitpid: unexpected status " +
                                 std::to_string(status));
}

Status
killChild(std::int64_t pid)
{
    if (kill(static_cast<pid_t>(pid), SIGKILL) != 0 &&
        errno != ESRCH) {
        return Status::ioError(std::string("kill: ") +
                               std::strerror(errno));
    }
    return {};
}

#else // !GPUECC_HAS_SUBPROCESS

namespace {
Status
unsupported()
{
    return Status::unavailable(
        "child processes are not supported on this platform");
}
} // namespace

void
ignoreSigpipe()
{
}

Result<ChildProcess>
spawnChild(const std::function<int(int, int)>&,
           const std::vector<int>&)
{
    return unsupported();
}

Status
writeAllFd(int, const std::string&)
{
    return unsupported();
}

Status
writeAllFd(int, const std::string&, int)
{
    return unsupported();
}

Result<std::string>
LineReader::readLine()
{
    return unsupported();
}

Result<std::string>
LineReader::readLine(int)
{
    return unsupported();
}

void
closeFd(int& fd)
{
    fd = -1;
}

Result<int>
waitForExit(std::int64_t)
{
    return unsupported();
}

Status
killChild(std::int64_t)
{
    return unsupported();
}

#endif // GPUECC_HAS_SUBPROCESS

} // namespace gpuecc

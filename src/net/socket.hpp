/**
 * @file
 * Minimal TCP primitives for the observability endpoint.
 *
 * Status-based wrappers over the POSIX socket surface: a listener
 * that polls for connections with a timeout (so the endpoint's accept
 * loop can also watch its stop flag), and a blocking IPv4 connect for
 * a client of it. Everything stays at the fd level — framing,
 * deadlines, and bounded reads come from common/subprocess's
 * LineReader/writeAllFd, which work on any stream fd. On non-POSIX
 * platforms every entry point reports unavailable, mirroring the
 * subprocess helpers.
 */

#ifndef GPUECC_NET_SOCKET_HPP
#define GPUECC_NET_SOCKET_HPP

#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace gpuecc::net {

/** Whether this build can open sockets (POSIX only). */
bool socketsSupported();

/**
 * An address as "host:port". Host may be empty or "*" (any
 * interface); port 0 asks the OS for an ephemeral port.
 */
struct SocketAddress
{
    std::string host;
    int port = 0;
};

/** Parse "host:port" ("127.0.0.1:7077", ":0", "*:7077"). */
Result<SocketAddress> parseSocketAddress(const std::string& text);

/** A bound, listening TCP socket (IPv4). Closes on destruction. */
class TcpListener
{
  public:
    TcpListener() = default;
    ~TcpListener();
    TcpListener(TcpListener&& other) noexcept;
    TcpListener& operator=(TcpListener&& other) noexcept;
    TcpListener(const TcpListener&) = delete;
    TcpListener& operator=(const TcpListener&) = delete;

    /**
     * Bind and listen on @p address (SO_REUSEADDR so a restarted
     * campaign reclaims its port without waiting out TIME_WAIT).
     */
    static Result<TcpListener> listen(const SocketAddress& address);

    /** The bound port — the ephemeral one when address.port was 0. */
    int port() const { return port_; }

    /** The listening fd (for a forked child's close list). */
    int fd() const { return fd_; }

    /**
     * Wait up to @p timeout_ms for a connection and accept it:
     * the connected fd on success, unavailable with the deadline
     * message (isDeadlineExpired) when nothing arrived in time.
     */
    Result<int> accept(int timeout_ms);

    /** Stop accepting (idempotent); pending connects see a reset. */
    void close();

  private:
    int fd_ = -1;
    int port_ = 0;
};

/**
 * Blocking IPv4 TCP connect; resolves numeric or name hosts. An
 * empty host means loopback. Returns the connected fd.
 */
Result<int> connectTcp(const SocketAddress& address);

} // namespace gpuecc::net

#endif // GPUECC_NET_SOCKET_HPP

/**
 * @file
 * Read-only HTTP exposition endpoint for a live fleet campaign.
 *
 * A deliberately tiny HTTP/1.1 server (GET only, one request per
 * connection, Connection: close) that serves whatever the registered
 * handler renders — the campaign service mounts /metrics (Prometheus
 * text) and /status (JSON) on it. It reuses net/socket's RAII and
 * the LineReader's bounded, deadline-guarded reads, so a slow or
 * hostile client can never hold the thread: every read and write
 * carries a ~2 s deadline and the request line is capped at 8 KiB (an
 * oversized or unparsable request just closes the connection).
 */

#ifndef GPUECC_NET_OBS_HTTP_HPP
#define GPUECC_NET_OBS_HTTP_HPP

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/status.hpp"
#include "net/socket.hpp"

namespace gpuecc::net {

/** What a handler returns for one GET path. */
struct ObsResponse
{
    bool found = false; //!< false renders a 404
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
};

/** Renders one GET path; called on the server thread, must be
    thread-safe against the campaign it samples. */
using ObsHandler = std::function<ObsResponse(const std::string& path)>;

class ObsHttpServer
{
  public:
    /** Bind the endpoint (no thread yet — bind before forking and add
        fd() to the children's close list). */
    static Result<std::unique_ptr<ObsHttpServer>>
    create(const SocketAddress& address);

    ~ObsHttpServer();

    ObsHttpServer(const ObsHttpServer&) = delete;
    ObsHttpServer& operator=(const ObsHttpServer&) = delete;

    /** The bound port (ephemeral when the address said 0). */
    int port() const { return listener_.port(); }

    /** The listening fd, for a forked child's close list. */
    int fd() const { return listener_.fd(); }

    /** Start serving @p handler on a background thread. */
    void serve(ObsHandler handler);

    /** Stop accepting and join the thread (idempotent). */
    void stop();

  private:
    ObsHttpServer() = default;
    void acceptLoop();

    TcpListener listener_;
    ObsHandler handler_;
    std::atomic<bool> stopping_{false};
    std::thread thread_;
    bool serving_ = false;
};

} // namespace gpuecc::net

#endif // GPUECC_NET_OBS_HTTP_HPP

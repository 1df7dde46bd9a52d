#pragma once

/**
 * @file
 * The load generator: jobs driven at cosad over HTTP/1.1. A job is
 * POST /v1/jobs, then a wait on GET /v1/jobs/{id}/events until the
 * daemon ends the stream, then GET /v1/jobs/{id} for the result bytes;
 * it is timed from when it was due to be sent until those bytes
 * arrive. Waiting on the event stream rather than polling keeps the
 * generator off the solver's cores. Each generator thread holds one
 * keep-alive connection, so the generator never has more connections
 * than threads and the kernel never piles up closed sockets.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "server/http.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace cosabench {

/** One keep-alive connection to the daemon on 127.0.0.1. Not
 *  thread-safe: one per generator thread. */
class Connection
{
  public:
    explicit Connection(int port) : port_(port) {}
    ~Connection() { close(); }

    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /** Send one request and read its whole response (a chunked body
     *  arrives de-chunked). Connects on first use; any transport error
     *  drops the connection, and the next call reconnects. */
    cosa::StatusOr<cosa::server::HttpResponseParser::Response> exchange(
        const std::string& method, const std::string& target,
        const std::string& body = "");

  private:
    void close();

    int port_ = 0;
    int fd_ = -1;
    cosa::server::HttpResponseParser parser_;
};

/** One job as the generator saw it. Times are seconds from the
 *  window's origin. */
struct JobRecord
{
    std::int64_t index = -1; //!< position in its request stream
    bool batch = false;
    double due = 0.0;  //!< when it should have been sent
    double sent = 0.0; //!< when the POST started
    double done = 0.0; //!< when the result bytes had arrived
    bool ok = false;
    std::string error;   //!< why it failed (empty when ok)
    double submit_ms = 0.0; //!< POST round trip
    double wait_ms = 0.0;   //!< event stream until done
    double result_ms = 0.0; //!< GET round trip
    std::string body;    //!< kept only when asked for
    std::string results; //!< canonical result bytes, when kept

    double latencyMs() const { return (done - due) * 1000.0; }
};

/** The "results" array of a GET /v1/jobs/{id} body, byte for byte as
 *  the daemon spliced it in; empty when absent. */
std::string extractResults(const std::string& status_body);

/** Run one job on @p connection; fills @p record (ok, error, times,
 *  sizes). */
void runJob(Connection& connection, const std::string& body,
            Clock::time_point origin, bool keep, JobRecord* record);

using RequestFn = std::function<Request(std::int64_t)>;
using KeepFn = std::function<bool(std::int64_t)>;

/** How a loop paces its requests. Each thread holds one connection and
 *  claims the next stream index from one shared counter. */
struct Pacing
{
    int threads = 1;
    /** Open loop when > 0: request i is due at i / rate seconds and is
     *  sent then, or late if every thread is busy; its latency still
     *  counts from its due time. The loop stops at the first request
     *  due at or after the end. When 0, a closed loop: a thread sends
     *  its next request as soon as its previous one returns, until the
     *  end has passed and at least @ref min_jobs were sent. */
    double rate = 0.0;
    std::int64_t min_jobs = 0;
};

/** Drive @p gen's requests for @p end seconds from @p origin, paced by
 *  @p pacing; records come back in index order, with the body and
 *  results kept for indices @p keep selects. */
std::vector<JobRecord> driveLoop(int port, const Pacing& pacing,
                                 const RequestFn& gen,
                                 Clock::time_point origin, double end,
                                 const KeepFn& keep);

} // namespace cosabench

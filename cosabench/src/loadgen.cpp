#include "loadgen.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/json.hpp"

namespace cosabench {

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** True when a result array reports a layer or network unscheduled. */
bool
anyNotFound(const std::string& results)
{
    return results.find("\"found\":false") != std::string::npos ||
           results.find("\"all_found\":false") != std::string::npos;
}

std::vector<JobRecord>
sortedByIndex(std::vector<JobRecord> records)
{
    std::sort(records.begin(), records.end(),
              [](const JobRecord& a, const JobRecord& b) {
                  return a.index < b.index;
              });
    return records;
}

} // namespace

void
Connection::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    parser_ = cosa::server::HttpResponseParser();
}

cosa::StatusOr<cosa::server::HttpResponseParser::Response>
Connection::exchange(const std::string& method, const std::string& target,
                     const std::string& body)
{
    const auto fail = [this](const std::string& why) {
        close();
        return cosa::Status{cosa::ErrorCode::kIoError, why};
    };
    const auto failErrno = [&](const char* call) {
        return fail(std::string(call) + ": " + std::strerror(errno));
    };
    if (fd_ < 0) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return failErrno("socket");
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port_));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0)
            return failErrno("connect");
    }
    std::string out =
        method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!body.empty())
        out += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
    out += "\r\n";
    out += body;
    for (std::size_t sent = 0; sent < out.size();) {
        const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0)
            return failErrno("send");
        sent += static_cast<std::size_t>(n);
    }
    char buffer[64 * 1024];
    for (;;) {
        cosa::server::HttpResponseParser::Response response;
        const auto parsed = parser_.next(&response);
        if (parsed == cosa::server::HttpResponseParser::Result::Ok) {
            if (response.header("Connection") == "close")
                close();
            return response;
        }
        if (parsed == cosa::server::HttpResponseParser::Result::Error)
            return fail("bad response: " + parser_.errorText());
        const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
        if (n == 0)
            return fail("connection closed mid-response");
        if (n < 0)
            return failErrno("recv");
        parser_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    }
}

std::string
extractResults(const std::string& status_body)
{
    static const std::string kResults = ",\"results\":";
    static const std::string kProvenance = ",\"provenance\":";
    const auto begin = status_body.find(kResults);
    const auto end = status_body.rfind(kProvenance);
    if (begin == std::string::npos || end == std::string::npos ||
        end < begin + kResults.size())
        return "";
    return status_body.substr(begin + kResults.size(),
                              end - begin - kResults.size());
}

void
runJob(Connection& connection, const std::string& body,
       Clock::time_point origin, bool keep, JobRecord* record)
{
    const Clock::time_point t0 = Clock::now();
    record->sent = std::chrono::duration<double>(t0 - origin).count();
    if (keep)
        record->body = body;
    const auto fail = [&](std::string why) {
        record->ok = false;
        record->error = std::move(why);
        record->done = secondsSince(origin);
    };

    auto submitted = connection.exchange("POST", "/v1/jobs", body);
    const Clock::time_point t1 = Clock::now();
    record->submit_ms = msBetween(t0, t1);
    if (!submitted.ok())
        return fail("submit: " + submitted.status().message());
    if (submitted.value().status != 202)
        return fail("submit answered " +
                    std::to_string(submitted.value().status) + ": " +
                    submitted.value().body);
    auto parsed = cosa::json::Value::parse(submitted.value().body);
    if (!parsed.ok() || !parsed.value().find("id"))
        return fail("submit: no job id in " + submitted.value().body);
    const auto id =
        static_cast<std::uint64_t>(parsed.value().getInt("id", 0));

    const std::string job = "/v1/jobs/" + std::to_string(id);
    auto streamed = connection.exchange("GET", job + "/events");
    const Clock::time_point t2 = Clock::now();
    record->wait_ms = msBetween(t1, t2);
    if (!streamed.ok())
        return fail("events: " + streamed.status().message());
    if (streamed.value().status != 200)
        return fail("events answered " +
                    std::to_string(streamed.value().status));

    auto status = connection.exchange("GET", job);
    const Clock::time_point t3 = Clock::now();
    record->result_ms = msBetween(t2, t3);
    record->done = std::chrono::duration<double>(t3 - origin).count();
    if (!status.ok())
        return fail("result: " + status.status().message());
    if (status.value().status != 200)
        return fail("result answered " +
                    std::to_string(status.value().status));
    std::string results = extractResults(status.value().body);
    if (results.empty())
        return fail("result: job " + std::to_string(id) +
                    " has no results");
    if (anyNotFound(results)) {
        record->results = std::move(results);
        return fail("result: a layer was not found");
    }
    record->ok = true;
    if (keep)
        record->results = std::move(results);
}

std::vector<JobRecord>
driveLoop(int port, const Pacing& pacing, const RequestFn& gen,
          Clock::time_point origin, double end, const KeepFn& keep)
{
    const bool open = pacing.rate > 0.0;
    std::atomic<std::int64_t> next{0};
    std::mutex mutex;
    std::vector<JobRecord> records;
    const auto thread_body = [&] {
        Connection connection(port);
        std::vector<JobRecord> mine;
        for (;;) {
            const std::int64_t i = next.fetch_add(1);
            double due = open ? static_cast<double>(i) / pacing.rate : 0.0;
            if (open ? due >= end
                     : i >= pacing.min_jobs && secondsSince(origin) >= end)
                break;
            const Request request = gen(i);
            if (open)
                std::this_thread::sleep_until(
                    origin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due)));
            else
                due = secondsSince(origin);
            JobRecord record;
            record.index = i;
            record.batch = request.batch;
            record.due = due;
            runJob(connection, request.body, origin, keep(i), &record);
            mine.push_back(std::move(record));
        }
        std::lock_guard<std::mutex> lock(mutex);
        for (JobRecord& record : mine)
            records.push_back(std::move(record));
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < pacing.threads; ++t)
        threads.emplace_back(thread_body);
    for (std::thread& thread : threads)
        thread.join();
    return sortedByIndex(std::move(records));
}

} // namespace cosabench

#include "daemon_proc.hpp"

#include <chrono>
#include <csignal>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "server/client.hpp"

extern char** environ;

namespace cosabench {

namespace {

/** Line "cosad ready on HOST:PORT" of @p log_path, or 0. */
int
readyPort(const std::string& log_path)
{
    std::ifstream in(log_path);
    std::string line;
    const std::string marker = "cosad ready on ";
    while (std::getline(in, line)) {
        const auto at = line.find(marker);
        if (at == std::string::npos)
            continue;
        const auto colon = line.rfind(':');
        if (colon == std::string::npos || colon < at)
            continue;
        return std::atoi(line.c_str() + colon + 1);
    }
    return 0;
}

} // namespace

std::string
DaemonProcess::start(const std::string& cosad, const std::string& cache_dir,
                     const std::string& log_path)
{
    stop();
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd < 0)
        return "cannot open " + log_path;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(log_fd);
        return "fork failed";
    }
    if (pid == 0) {
        // The daemon must not outlive a benchmark that is killed.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        ::close(log_fd);
        const char* argv[] = {cosad.c_str(), "--port",      "0",
                              "--cache-dir", cache_dir.c_str(), nullptr};
        ::execve(cosad.c_str(), const_cast<char**>(argv), environ);
        ::_exit(127);
    }
    ::close(log_fd);
    pid_ = pid;

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return "cosad exited during start-up (see " + log_path + ")";
        }
        if (port_ == 0)
            port_ = readyPort(log_path);
        if (port_ != 0) {
            auto health = cosa::server::Client("127.0.0.1", port_).healthz();
            if (health.ok() && health.value().status == 200)
                return "";
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop();
    return "cosad did not become healthy within 60 s";
}

void
DaemonProcess::stop()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGTERM);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    port_ = 0;
}

double
DaemonProcess::cpuMs() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const auto close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int f = 3; f <= 15 && fields >> field; ++f) {
        if (f >= 14)
            ticks += std::stod(field);
    }
    return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
DaemonProcess::peakRssMb() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

} // namespace cosabench

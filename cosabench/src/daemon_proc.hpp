#pragma once

/**
 * @file
 * The cosad child process: spawned on an ephemeral port with a given
 * --cache-dir, its output sent to a log file, stopped with SIGTERM and
 * waited for. The child's environment is the benchmark's own, which
 * main() has already cleared of every COSA* variable.
 */

#include <string>
#include <sys/types.h>

namespace cosabench {

class DaemonProcess
{
  public:
    DaemonProcess() = default;
    ~DaemonProcess() { stop(); }

    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    /** Spawn @p cosad and block until it prints its ready line and
     *  answers GET /healthz. Empty string on success, else the error. */
    std::string start(const std::string& cosad, const std::string& cache_dir,
                      const std::string& log_path);

    /** SIGTERM, then wait (SIGKILL after 20 s). Idempotent. */
    void stop();

    int port() const { return port_; }

    /** utime + stime of the child so far, in ms. */
    double cpuMs() const;
    /** Peak resident set (VmHWM) of the child, in MiB. */
    double peakRssMb() const;

  private:
    pid_t pid_ = -1;
    int port_ = 0;
};

} // namespace cosabench

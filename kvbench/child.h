// Server processes under benchmark: `kvmatch_cli serve` and `coord` run as
// children of the load generator, exactly as they are deployed, with their
// output in a log file. The helpers below spawn them, find the port they
// listen on, read their /proc counters and stop them.
#ifndef KVBENCH_CHILD_H_
#define KVBENCH_CHILD_H_

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace kvbench {

using kvmatch::Result;
using kvmatch::Status;

/// Counters of one process, read from /proc/<pid>.
struct ProcCounters {
  uint64_t write_bytes = 0;   // io: bytes dirtied towards storage
  double cpu_ms = 0.0;        // stat: utime + stime, all threads
  uint64_t ctx_switches = 0;  // task/*/status: voluntary + involuntary
  uint64_t threads = 0;
  uint64_t hwm_kb = 0;        // status: VmHWM (peak resident set)

  void Add(const ProcCounters& o) {
    write_bytes += o.write_bytes;
    cpu_ms += o.cpu_ms;
    ctx_switches += o.ctx_switches;
    threads += o.threads;
    hwm_kb += o.hwm_kb;
  }
};

/// "Key:   123 kB" lines of a /proc status file; 0 when absent.
inline uint64_t ProcStatusField(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtoull(line.c_str() + len, nullptr, 10);
    }
  }
  return 0;
}

inline ProcCounters ReadProcCounters(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid);
  ProcCounters c;
  c.write_bytes = ProcStatusField(dir + "/io", "write_bytes:");
  c.threads = ProcStatusField(dir + "/status", "Threads:");
  c.hwm_kb = ProcStatusField(dir + "/status", "VmHWM:");
  {
    // Fields 14 and 15 (utime, stime) follow the parenthesised command
    // name, which may itself contain spaces.
    std::ifstream in(dir + "/stat");
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    const size_t close = all.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields(all.substr(close + 2));
      std::string f;
      double ticks = 0.0;
      for (int i = 3; i <= 15 && fields >> f; ++i) {
        if (i >= 14) ticks += std::strtod(f.c_str(), nullptr);
      }
      c.cpu_ms = ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
    }
  }
  // Context switches are per task; sum the live threads.
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(dir + "/task", ec)) {
    const std::string status = task.path().string() + "/status";
    c.ctx_switches += ProcStatusField(status, "voluntary_ctxt_switches:");
    c.ctx_switches += ProcStatusField(status, "nonvoluntary_ctxt_switches:");
  }
  return c;
}

class ChildProcess {
 public:
  /// Starts `argv` (argv[0] is a path) with stdout and stderr appended to
  /// `log_path`. The child is killed if this process dies first.
  static Result<std::unique_ptr<ChildProcess>> Spawn(
      const std::vector<std::string>& argv, const std::string& log_path) {
    std::vector<char*> cargv;
    for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
    if (log_fd < 0) return Status::IOError("cannot open " + log_path);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(log_fd);
      return Status::IOError("fork failed");
    }
    if (pid == 0) {
      // Only async-signal-safe calls between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) _exit(127);
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::execv(cargv[0], cargv.data());
      _exit(127);
    }
    ::close(log_fd);
    return std::unique_ptr<ChildProcess>(new ChildProcess(pid, log_path));
  }

  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess() { Stop(); }

  pid_t pid() const { return pid_; }

  /// Waits for the log line announcing the listening address and returns
  /// the port printed after "127.0.0.1:".
  Result<int> WaitForPort(double timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(
                              static_cast<int64_t>(timeout_ms * 1000.0));
    while (std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(log_path_);
      std::string line;
      while (std::getline(in, line)) {
        const size_t at = line.find(" on 127.0.0.1:");
        if (at != std::string::npos) {
          return std::atoi(line.c_str() + at + std::strlen(" on 127.0.0.1:"));
        }
      }
      int wstatus = 0;
      if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        reaped_ = true;
        return Status::IOError("server exited before listening; see " +
                               log_path_);
      }
      // Short: a small server starts in a few milliseconds, and the wait
      // is part of the set-up time.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return Status::DeadlineExceeded("server did not listen; see " +
                                    log_path_);
  }

  /// SIGTERM (the server drains and exits), SIGKILL after 20 s; reaps.
  /// Returns the exit status, or -1 when the process did not exit cleanly.
  int Stop() {
    if (reaped_) return exit_status_;
    ::kill(pid_, SIGTERM);
    int wstatus = 0;
    for (int i = 0; i < 2000; ++i) {
      if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        reaped_ = true;
        exit_status_ = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
        return exit_status_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &wstatus, 0);
    reaped_ = true;
    exit_status_ = -1;
    return exit_status_;
  }

 private:
  ChildProcess(pid_t pid, std::string log_path)
      : pid_(pid), log_path_(std::move(log_path)) {}

  pid_t pid_;
  std::string log_path_;
  bool reaped_ = false;
  int exit_status_ = -1;
};

}  // namespace kvbench

#endif  // KVBENCH_CHILD_H_

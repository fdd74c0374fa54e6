/// \file spawn.cpp
/// \brief Runs one program and reports its wall time and peak RSS.
///
///   spawn REPORT PROGRAM [ARGS...]
///
/// Forks, execs PROGRAM, waits for it, and writes `<wall_ns> <maxrss_kb>`
/// to REPORT; exits with PROGRAM's exit code (128 + signal if killed).
///
/// The benchmark starts every measured program through this launcher
/// because Linux carries a process's peak RSS across exec: a program
/// forked from the Python script would report the script's size when it
/// is the larger one. Forked from this small process instead, the
/// program's ru_maxrss is its own.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: spawn REPORT PROGRAM [ARGS...]\n");
    return 64;
  }
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("spawn: fork");
    return 71;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror("spawn: exec");
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("spawn: wait4");
    return 71;
  }
  const auto wall = std::chrono::steady_clock::now() - start;
  std::FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr ||
      std::fprintf(report, "%lld %ld\n",
                   static_cast<long long>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(wall)
                           .count()),
                   usage.ru_maxrss) < 0 ||
      std::fclose(report) != 0) {
    std::perror("spawn: report");
    return 74;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

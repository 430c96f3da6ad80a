// perfbench_spawn — runs one command and measures it from outside.
//
//   perfbench_spawn <result-file> <program> [args...]
//
// Forks, execs <program> with the inherited stdin/stdout/stderr, waits for
// it with wait4, and writes "<exit> <wall seconds> <peak RSS KiB>" to
// <result-file>. <exit> is the program's exit code, or -N when signal N
// ended it (127 when it could not be executed). The wall time runs from
// just before the fork to the return of wait4.
//
// The benchmark spawns every timed command through this small process
// rather than straight from its Python interpreter because a forked child
// starts with its parent's resident pages, and ru_maxrss keeps that
// high-water mark across exec: a command smaller than the interpreter
// would report the interpreter's size.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: perfbench_spawn <result-file> <program> [args...]\n");
    return 2;
  }
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror(argv[2]);
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("wait4");
    return 1;
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  const int code =
      WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror(argv[1]);
    return 1;
  }
  std::fprintf(out, "%d %.9f %ld\n", code, wall.count(), usage.ru_maxrss);
  return std::fclose(out) == 0 ? 0 : 1;
}

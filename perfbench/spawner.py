"""Spawns and reaps the benchmark's CLI processes, one request at a time.

Run as ``python3 -S perfbench/spawner.py``.  Reads marshal records on stdin:
first the environment for every child, then one ``(argv, traced, timeout)``
per command.  For each it spawns ``argv`` in its own process group, with
stdout, stderr and (when traced) file descriptor 3 on anonymous memory
files, reaps it with ``wait4`` and writes back ``(exit code, stdout,
stderr, trace, wall seconds, cpu seconds, max RSS in KiB)``.

``wait4`` gives the child's own usage together with that of the fork-pool
workers it reaped.  Linux counts the memory of the spawning process in a
child's max RSS, so this process imports only built-in modules and skips
``site``: about 9 MB, below any CLI process.
"""

import marshal
import os
import signal
import sys
import time


def spawn(argv, env, traced, timeout):
    fds = [os.memfd_create(name) for name in ("stdout", "stderr", "trace")]
    actions = [(os.POSIX_SPAWN_DUP2, fds[0], 1),
               (os.POSIX_SPAWN_DUP2, fds[1], 2)]
    if traced:
        actions.append((os.POSIX_SPAWN_DUP2, fds[2], 3))
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions,
                             setpgroup=0)

        def kill(signum, frame):
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        signal.signal(signal.SIGALRM, kill)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
        out, err, trace = (os.pread(fd, os.fstat(fd).st_size, 0) for fd in fds)
    finally:
        for fd in fds:
            os.close(fd)
    return (os.waitstatus_to_exitcode(status), out, err, trace, wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def main():
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    env = marshal.load(stdin)
    while True:
        try:
            argv, traced, timeout = marshal.load(stdin)
        except EOFError:
            return
        marshal.dump(spawn(argv, env, traced, timeout), stdout)
        stdout.flush()


if __name__ == "__main__":
    main()

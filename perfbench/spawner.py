"""Start benchmark children from a small process and report their usage.

    python3 -S perfbench/spawner.py

A child's ``ru_maxrss`` also counts the memory of the process that forked
it, because the kernel carries the pre-exec high-water mark over into the
new program.  The benchmark runner holds its answers and reports, so its
children are started from this process instead, which imports nothing
beyond ``os``, ``signal`` and ``time`` and stays below any child's peak.

Each request is one line on stdin, fields separated by tabs:
``timeout  stdin_path  stdout_path  stderr_path  argv...``.  The reply is
one line: ``exit_code  wall_s  cpu_s  maxrss_kb``, with an exit code of
``killed`` when the child was killed at the timeout.
"""

import os
import signal
import sys
import time


def serve() -> None:
    child = {"pid": None, "killed": False}

    def on_alarm(signum, frame):
        if child["pid"] is not None:
            os.kill(child["pid"], signal.SIGKILL)
            child["killed"] = True

    signal.signal(signal.SIGALRM, on_alarm)
    for line in sys.stdin:
        fields = line.rstrip("\n").split("\t")
        timeout, paths, argv = float(fields[0]), fields[1:4], fields[4:]
        fds = [
            os.open(paths[0], os.O_RDONLY),
            os.open(paths[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            os.open(paths[2], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        child["killed"] = False
        start = time.perf_counter()
        child["pid"] = os.posix_spawnp(
            argv[0], argv, os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, fd, i) for i, fd in enumerate(fds)],
        )
        for fd in fds:
            os.close(fd)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        # Wait without reaping first, so the alarm never signals a reused pid.
        os.waitid(os.P_PID, child["pid"], os.WEXITED | os.WNOWAIT)
        signal.setitimer(signal.ITIMER_REAL, 0)
        pid, child["pid"] = child["pid"], None
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        killed = child["killed"] and os.WIFSIGNALED(status)
        code = "killed" if killed else str(os.waitstatus_to_exitcode(status))
        sys.stdout.write("%s\t%r\t%r\t%d\n" % (
            code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
        ))
        sys.stdout.flush()


if __name__ == "__main__":
    serve()

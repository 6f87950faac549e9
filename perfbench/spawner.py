"""Launch benchmark child processes from a process that stays small.

On Linux a child's peak RSS (``ru_maxrss`` from ``wait4``) starts at the
resident high-water mark of the process that spawned it, because the spawn
shares that process's memory until ``exec``. The benchmark process holds
whole graphs, so it launches every measured child through this helper,
which imports nothing beyond the standard library core.

Protocol: one JSON request per line on standard input,
``{"argv": [...], "stdout": PATH, "stderr": PATH, "timeout_s": T}``, and one
JSON reply per line on standard output,
``{"wall_s": W, "maxrss_kb": K, "exit_code": C, "killed": B}``. The helper
exits when its standard input closes.
"""

import json
import os
import select
import sys
import time


def run(argv, stdout, stderr, timeout_s):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, timeout_s))
    finally:
        os.close(pidfd)
    if not ready:
        os.kill(pid, 9)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
        "killed": not ready,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["stdout"], req["stderr"], req["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

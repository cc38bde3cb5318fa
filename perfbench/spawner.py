"""A small helper process that runs the benchmark's children, for honest peak RSS.

Linux folds memory of the spawning process into a child's ru_maxrss: with
vfork (posix_spawn) the spawner's peak RSS, with fork its current RSS. The
harness imports numpy and parses 23 MB outputs, so a child it spawned
itself would report the harness's memory whenever that is the larger. This
process imports nothing heavy, so what it adds (about 10 MB) stays below
any fiberspin child, which imports numpy.

It reads one JSON request per line on stdin, runs the child to completion,
and answers with one JSON line on stdout:

    {"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}
    -> {"wall_s": float, "code": int, "rss_mib": float}

A child still running after `timeout` seconds is killed and reported with
exit code -SIGKILL. The helper exits at end of input.
"""

import contextlib
import json
import os
import select
import signal
import sys
import time


def run(request: dict) -> dict:
    argv = request["argv"]
    with (
        open(os.devnull, "rb") as nul,
        open(request["stdout"], "wb") as out,
        open(request["stderr"], "wb") as err,
    ):
        actions = [
            (os.POSIX_SPAWN_DUP2, nul.fileno(), 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], request["timeout"])[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "code": os.waitstatus_to_exitcode(status), "rss_mib": usage.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

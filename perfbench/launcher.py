"""Spawns the benchmark's child processes and reports how each one ran.

Started once per run by ``run.py`` as ``python -I -S launcher.py``.  It reads
one JSON request per line on stdin, ``{"cmd": [...], "env": {...},
"timeout": seconds}``, runs that command to exit, and writes one JSON result
per line on stdout: spawn and exit times (``time.perf_counter``, the same
clock as every other process on the host), exit code, stdout sha256 and
size, the head of stderr, and CPU time and peak RSS from ``os.wait4``.

Children are spawned from this small, separate process because Linux carries
the spawning process's peak RSS over into the child's ``ru_maxrss``; from
here that floor is this interpreter's few MB, not the harness's.
"""

import hashlib
import json
import os
import select
import signal
import sys
import time

STDERR_KEEP = 4096


def spawn(cmd, env, timeout):
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    devnull = os.open(os.devnull, os.O_RDONLY)
    actions = [
        (os.POSIX_SPAWN_DUP2, devnull, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    t_spawn = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    for fd in (out_w, err_w, devnull):
        os.close(fd)
    digest = hashlib.sha256()
    nbytes = 0
    stderr = b""
    open_fds = [out_r, err_r]
    timed_out = False
    deadline = t_spawn + timeout
    try:
        while open_fds:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select(open_fds, [], [], remaining)
            for fd in ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    open_fds.remove(fd)
                elif fd == out_r:
                    digest.update(chunk)
                    nbytes += len(chunk)
                elif len(stderr) < STDERR_KEEP:
                    stderr += chunk
    finally:
        _, status, usage = os.wait4(pid, 0)
        t_exit = time.perf_counter()
        os.close(out_r)
        os.close(err_r)
    return {
        "t_spawn": t_spawn,
        "t_exit": t_exit,
        "wall_s": t_exit - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit": os.waitstatus_to_exitcode(status),
        "sha256": digest.hexdigest(),
        "stdout_bytes": nbytes,
        "timed_out": timed_out,
        "stderr": stderr[:STDERR_KEEP].decode(errors="replace"),
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        res = spawn(req["cmd"], req["env"], req["timeout"])
        sys.stdout.write(json.dumps(res) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

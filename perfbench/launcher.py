"""Spawns one child at a time and times it from outside.

Run as ``python -S -I launcher.py`` with the work dir as its working
directory.  Each line on stdin is a JSON request ``{"argv": [...],
"env": {...}, "timeout_s": ..., "stdout_path": ...}``; each reply on stdout is
one JSON line with the child's spawn-to-exit time, spawn-to-first-stdout-byte
time, ``ru_maxrss`` from ``os.wait4``, exit status and the tail of its stderr.
The child's stdout goes to ``stdout_path``.

A child's ``ru_maxrss`` starts at the high-water mark of the process that
spawned it, so the children are spawned from this small process (no site
packages, few imports) rather than from the benchmark, whose peak would
otherwise be what every child reports.
"""
import json
import os
import select
import signal
import sys
import time

STDERR_KEEP = 4096


def run(request):
    argv = request["argv"]
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    err = b""
    first = None
    timed_out = False
    with open(request["stdout_path"], "wb") as sink:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out_w, 1),
            (os.POSIX_SPAWN_DUP2, err_w, 2),
        ])
        os.close(out_w)
        os.close(err_w)
        deadline = start + request["timeout_s"]
        poller = select.poll()
        poller.register(out_r, select.POLLIN)
        poller.register(err_r, select.POLLIN)
        open_fds = {out_r, err_r}
        while open_fds:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            for fd, _ in poller.poll(remaining * 1000):
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    poller.unregister(fd)
                    open_fds.discard(fd)
                elif fd == out_r:
                    if first is None:
                        first = time.perf_counter()
                    sink.write(chunk)
                else:
                    err = (err + chunk)[-STDERR_KEEP:]
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
    os.close(out_r)
    os.close(err_r)
    return {
        "wall_s": end - start,
        "first_byte_s": (first if first is not None else end) - start,
        "maxrss_kib": usage.ru_maxrss,
        "returncode": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "stderr": err.decode(errors="replace"),
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

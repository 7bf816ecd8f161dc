"""Run one command and report its wall time, exit status and resource use.

Usage: python3 launch.py OUTPUT PROGRAM [ARG ...]

PROGRAM is an absolute path. The command's standard output goes to the
file OUTPUT, not to a pipe, so that its speed does not depend on how fast
a reader on another CPU drains the pipe; it inherits standard input and
error. When it has ended, one line is appended to standard error:

    bench-launch {"wall_s": ..., "ref_s": ..., "probe_s": ..., "exit": ...,
                  "maxrss_kb": ..., "cpu_s": ...}

Reference speed. The speed of a virtual CPU shared with other tenants can
swing by a factor of two within a second, so a raw wall time says as much
about the neighbours as about the program. The launcher therefore pins
itself and the command to one CPU and, while the command runs, wakes every
PROBE_PERIOD_S to time a fixed piece of interpreter work (the probe) on that
CPU. Each stretch of wall time between two probes is scaled by
REFERENCE_PROBE_S over the mean of the two probe times. The sum, ``ref_s``,
is the command's wall time at the reference speed: the speed at which the
probe takes REFERENCE_PROBE_S. The probes take about 3% of that CPU, in
every run alike.

Peak resident size. Linux carries the peak resident size of the process
that starts a program over into the program (the child shares or copies
that memory until exec), so a command started straight from the benchmark
process, which holds whole outputs in memory, would report the
benchmark's peak as its own. The launcher is a fresh interpreter that
imports little; its own peak is the floor below which a command's peak
cannot be seen.
"""

import json
import os
import select
import sys
import time

MARKER = "bench-launch "
PROBE_LOOPS = 3000
PROBE_PERIOD_S = 0.03
REFERENCE_PROBE_S = 0.0005


def probe() -> float:
    """Seconds this interpreter takes for a fixed piece of dict and tuple work."""
    start = time.perf_counter()
    counts = {}
    for i in range(PROBE_LOOPS):
        key = (i % 7, i & 3)
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def main() -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe()  # the first call warms the probe's own code
    # probes[i] ends at marks[i]; the stretch marks[i]..marks[i+1] runs at
    # the speed of the mean of probes[i] and probes[i + 1]
    probes = [probe()]
    start = time.perf_counter()
    marks = [start]
    output, argv = sys.argv[1], sys.argv[2:]
    with open(output, "wb") as out:
        to_output = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1)]
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=to_output)
    exited = select.poll()
    exited.register(os.pidfd_open(pid), select.POLLIN)
    while not exited.poll(PROBE_PERIOD_S * 1000):
        probes.append(probe())
        marks.append(time.perf_counter())
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    marks.append(end)
    probes.append(probe())
    ref = sum(
        (marks[i + 1] - marks[i]) * 2 * REFERENCE_PROBE_S / (probes[i] + probes[i + 1])
        for i in range(len(marks) - 1)
    )
    record = {
        "wall_s": end - start,
        "ref_s": ref,
        "probe_s": sorted(probes)[len(probes) // 2],
        "exit": os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    sys.stderr.write(MARKER + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

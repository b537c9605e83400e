"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Workloads are ``build``, ``query-batch`` and ``serve-stream`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is the separate traced run that prints per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any check failed.

The command supervises: it runs the workload in a child process and,
once that ends, waits for every process the workload left behind (the
multiprocessing resource tracker, lane workers), killing what outlives a
grace period.  As the child subreaper it inherits those orphans, so it
can wait for each one; it gives up and kills the workload after
``--seconds`` plus ``WATCHDOG_S``.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import subprocess
import sys
import time

# One thread per numeric pool: the box has two CPUs and the serving
# workload runs two lane processes beside the event loop.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build", "query-batch", "serve-stream")
#: Set in the workload process's environment; its absence marks the supervisor.
CHILD_ENV = "PERFBENCH_WORKLOAD_PROCESS"
#: Seconds a workload may run beyond ``--seconds`` (set-up and checks).
WATCHDOG_S = 150.0
#: Seconds left-behind processes get to end on their own before a kill.
GRACE_S = 10.0
_PR_SET_CHILD_SUBREAPER = 36


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if os.environ.get(CHILD_ENV) != "1":
        return supervise(sys.argv[1:] if argv is None else list(argv), args.seconds)

    source = os.path.join(ROOT, "src")
    sys.path[:0] = [HERE, source]
    try:
        import repro  # the program under test, from this checkout's source
    except ImportError as error:
        print(f"error: cannot import the program from {source}: {error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"error: imported repro from {repro.__file__}, not from {source}", file=sys.stderr)
        return 2

    from common import PER_LAYER, Run

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if run.trace:
        run.metrics.update({name: 0.0 for name, _ in PER_LAYER})
    if args.workload == "build":
        import wl_build as workload
    elif args.workload == "query-batch":
        import wl_query_batch as workload
    else:
        import wl_serve_stream as workload
    workload.run(run)
    return run.emit()


def supervise(argv, seconds: float) -> int:
    """Run the workload in a child; return its exit code once every
    process it started, directly or not, has ended."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("error: cannot become the child subreaper, so processes the workload "
              "leaves behind could not be waited for", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    grace = 0.0
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv],
                             env={**os.environ, CHILD_ENV: "1"})
    try:
        code = child.wait(timeout=seconds + WATCHDOG_S)
        grace = GRACE_S
    except subprocess.TimeoutExpired:
        print(f"error: the workload ran over {seconds + WATCHDOG_S:g} s and was killed",
              file=sys.stderr)
        code = 3
    finally:
        left = reap_all(grace)
    if left:
        print(f"note: {left} process(es) outlived the workload by {grace:g} s and were killed",
              file=sys.stderr)
    return code


def reap_all(grace: float) -> int:
    """Wait for every child (orphans re-parented here included), killing
    those still alive after *grace* seconds; return how many were killed."""
    deadline = time.monotonic() + grace
    killed = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no children left
            return len(killed)
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children() - killed:
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                killed.add(child)
        time.sleep(0.01)


def _children() -> set:
    """Pids whose parent is this process, read from /proc."""
    me, found = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.add(int(entry))
    return found


if __name__ == "__main__":
    sys.exit(main())

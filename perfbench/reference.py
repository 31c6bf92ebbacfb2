"""Reference work that tracks the host's speed.

On a shared host the speed of this program drifts by up to a factor of
two over tens of seconds, with the load of other tenants on the cores,
caches and memory.  The benchmark times a fixed reference beside every
timed operation and set-up probe and reports their times at reference
speed:

    t_reported = t_measured / factor,
    factor = sqrt(t_loop / LOOP_NOMINAL_S * t_copy / COPY_NOMINAL_S)

where ``t_loop`` is a pure-Python integer loop (interpreter speed) and
``t_copy`` a 64 MiB array copy into fresh memory (cache, memory and
page-fault speed), and the factor is the smaller of two such samples.  Together they follow the program's own drift more
closely than either alone.  The reference is part of the benchmark, not
of the program, so a change to the program moves ``t_measured`` only;
measured times are printed and stored beside the reported ones.

The reference runs in a helper process (``Reference``) so that its
buffers do not count in the benchmark process's peak memory; it runs
only between operations, never beside one.

    python3 perfbench/reference.py      # helper: one factor per input line
"""

import subprocess
import sys
import time

LOOPS = 300_000
COPY_DOUBLES = 8 * 1024 * 1024
#: reported times are expressed at a host speed where the loop and the
#: copy take these times
LOOP_NOMINAL_S = 0.020
COPY_NOMINAL_S = 0.020


def loop_time() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def copy_time(source) -> float:
    t0 = time.perf_counter()
    source.copy()
    return time.perf_counter() - t0


class Reference:
    """The helper process; ``factor()`` runs the reference once."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def factor(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference helper exited")
        return float(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def sample(source) -> float:
    return (loop_time() / LOOP_NOMINAL_S
            * copy_time(source) / COPY_NOMINAL_S) ** 0.5


def serve() -> None:
    import numpy as np
    source = np.ones(COPY_DOUBLES)
    sample(source)
    for _ in sys.stdin:
        # the first sample right after an operation often reads slow
        # (the operation's memory being returned, its threads winding
        # down); the smaller of two back-to-back samples does not
        factor = min(sample(source), sample(source))
        sys.stdout.write(f"{factor!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()

"""The machine's speed, sampled between the benchmark's calls.

On a shared host the speed of a core drifts: a fixed Python loop averaged
over 50 s windows minutes apart had a quartile spread of about 0.2 of its
median, and so had a fixed mix of pairsel calls.  The two drift together, so
the benchmark states every timing at a fixed reference speed.

A child interpreter, which imports nothing from pairsel and so cannot be
slowed or sped up by a change to it, times a fixed pure-Python loop each
time it is asked.  The runner asks it before the first command of a round
and after every command, off the clock, and scales each command's wall
seconds by ``REFERENCE_S`` over the mean of the two samples around it.  A
scaled second is a second on a machine where the loop takes ``REFERENCE_S``
seconds; the wall seconds are printed next to them.
"""

from __future__ import annotations

import subprocess
import sys

# Seconds the loop takes on a quiet 2-vCPU Xeon host (its fastest samples).
REFERENCE_S = 0.08

CHILD = """
import sys, time

def loop():
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return total

for _ in sys.stdin:
    start = time.perf_counter()
    loop()
    print(repr(time.perf_counter() - start), flush=True)
"""


class Speed:
    """A running reference loop; ``sample()`` returns its seconds now.

    Use it as a context manager so the child ends on every way out.
    """

    def __init__(self):
        self.child = subprocess.Popen(
            [sys.executable, "-c", CHILD], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.samples: list[float] = []

    def sample(self) -> float:
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError(f"reference loop exited with code {self.child.wait()}")
        self.samples.append(float(line))
        return self.samples[-1]

    def close(self) -> None:
        if self.child.poll() is None:
            self.child.stdin.close()
            try:
                self.child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        self.child.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time at the reference speed, given the loop's
    seconds sampled just before and just after them."""
    return seconds * REFERENCE_S / ((before + after) / 2)

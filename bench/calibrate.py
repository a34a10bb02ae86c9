"""Host-speed reference for the end-to-end timings.

The benchmark runs on a shared host whose speed drifts: for stretches of a
fraction of a second to tens of seconds every computation takes 1.3 to 1.9
times as long as in the stretch before, with no scheduler wait or steal
time to show for it (CPU time rises with wall time).  A run of the same
code can land anywhere in that range.

`reference()` times a fixed computation of the benchmark's own, made of the
two kinds of work that dominate the program: array arithmetic and
reductions over a 68,921-matrix stack of 3x3 matrices (the size of a 41^3
grid), and formatting and parsing floats as CSV text.  The end-to-end
timings bracket every command (and every set-up probe) with reference
samples and rescale it to a host on which the reference takes `NOMINAL_S`:

    t_reported = t_measured * NOMINAL_S / t_reference

A change to the program changes t_measured only, so it shows in full; a
slow phase of the host stretches both and cancels out.  The reference is
part of the benchmark, not of the program, and `NOMINAL_S` is a constant,
so the figures of two commits are comparable.

The reference runs in a helper process of its own (`Helper`, which serves
this file's `main`), so its arrays never count towards the peak memory of
the process that runs the commands.  run.py pins itself and its children to
one CPU, so the helper measures the same CPU the commands ran on.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: reference time of the nominal host, in seconds (about the median of
#: `reference()` on a 2-vCPU x86-64 VM at its usual speed)
NOMINAL_S = 0.050

_rng = np.random.default_rng(20070723)
_M = _rng.standard_normal((68921, 3, 3))
_V = _rng.standard_normal((68921, 3))
_X = [float(x) for x in _rng.standard_normal(6000)]


def _work() -> float:
    a = _M @ _M.transpose(0, 2, 1)
    b = np.sqrt(np.abs(a)) / (1.0 + a * a)
    c = (b * _V[:, None, :]).sum(axis=2)
    total = float(c.max() + np.hypot(c[:, 0], c[:, 1]).min())
    text = "\n".join(",".join(repr(x) for x in _X[k : k + 4]) for k in range(0, len(_X), 4))
    return total + sum(float(cell) for line in text.splitlines()[::3] for cell in line.split(","))


def reference() -> float:
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` rescaled to the nominal host, from the reference samples
    taken just before and just after it was measured."""
    return seconds * NOMINAL_S / ((ref_before + ref_after) / 2.0)


class Helper:
    """A child process that runs `reference()` whenever asked."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def reference(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference helper exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def main() -> int:
    reference()  # first touch of the arrays, not a sample
    for _ in sys.stdin:
        print(repr(reference()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

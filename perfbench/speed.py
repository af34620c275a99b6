"""Machine-speed references timed next to every measurement.

The benchmark's host shares its cores with other tenants, and the speed of a
core drifts by 30% or more over tens of seconds; process CPU time drifts with
wall time, so the slowdown is slower execution, not descheduling.  A run's
median operation time therefore follows the host as much as the program.

Every timed operation is bracketed by passes of ``kernel``, fixed work that
does not touch rcpolar.  The operation's wall time is reported scaled to the
speed at which one kernel pass takes ``REFERENCE_S`` seconds:

    scaled = wall * REFERENCE_S / mean(kernel pass before, kernel pass after)

A change to rcpolar moves the wall time and not the kernel, so it moves the
scaled time by the same share.  The kernel mixes what rcpolar spends its time
on: elementwise transcendental numpy calls on batches, many calls on short
arrays, and interpreter arithmetic.

Set-up time is mostly starting an interpreter and importing numpy and scipy,
which the state of the host's page cache and memory moves more than core
speed does.  Set-up samples are therefore bracketed by ``imports``, a fresh
interpreter that imports rcpolar's dependencies and nothing of rcpolar, and
scaled in the same way to ``IMPORTS_REFERENCE_S``.
"""

import subprocess
import sys
import time

import numpy as np

# Seconds one kernel pass takes on the reference machine (a 2-vCPU
# "Intel(R) Xeon(R) Processor" guest) at its typical speed; it only sets
# the scale, so scaled times read close to wall times there.
REFERENCE_S = 0.24
_ROUNDS = 160
# Seconds ``imports`` takes on the same machine, typically.
IMPORTS_REFERENCE_S = 0.43


def _work():
    rng = np.random.default_rng(12345)
    # Small blocks, reused, so that the kernel leaves the process's memory
    # high-water mark where the workload's first operation put it.
    a = rng.standard_normal((8, 1024))
    b = rng.standard_normal((8, 1024))
    short_a, short_b = a[0, :64].copy(), b[0, :64].copy()
    acc = 0.0
    for _ in range(_ROUNDS):
        for _ in range(8):
            x = (np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
                 + np.log1p(np.exp(-np.abs(a + b)))
                 - np.log1p(np.exp(-np.abs(a - b))))
            acc += float(x[x < 0.0].sum())
        for _ in range(25):
            y = np.where(short_a > 0.0, np.exp(short_a),
                         np.log1p(np.abs(short_b)))
            acc += float(y.sum())
        s = 0
        for i in range(2000):
            s += i * i % 7
        acc += s
    return acc


def kernel():
    """Wall seconds of one pass of the fixed kernel."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def imports(cwd):
    """Seconds until a fresh interpreter has imported numpy and scipy.special.

    Timed like a set-up sample: from before the start to the child's own
    clock reading after its imports.
    """
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import time, numpy, scipy.special; print(time.monotonic())"],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) - start


def scaled(wall_s, before_s, after_s, reference_s=REFERENCE_S):
    """``wall_s`` at the speed where one reference pass takes reference_s."""
    return wall_s * reference_s * 2.0 / (before_s + after_s)

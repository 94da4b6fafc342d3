"""Machine pace: fixed reference work, timed between tasks or while a child runs.

On a shared machine the same code runs at different speeds from one
second to the next, because of what else runs on the host.  The
benchmark times a fixed slice of reference work (about 10 ms) between
tasks, and scales each task's time by ``REF_SLICE_S / slice time``.  A
gated time is therefore the time the task would take when the slice
takes ``REF_SLICE_S``.  The slice calls nothing in ``sheardisp``, so a
change to the package moves the scaled times exactly as it moves the
raw ones.

The slow state does not slow all code alike: interpreter-bound code
(Python loops, numpy calls on small arrays) slows about 1.5x, numpy on
arrays of 20k elements about 1.25x.  So there are two slices, and each
workload names the one its tasks resemble, or both.

Nor does it slow both CPUs of a 2-CPU VM alike, so ``run.py`` pins itself,
and so every child it starts, to one CPU.  Even then the pace changes
within the life of one child process (1-3 s), so a child is not scaled
by marks taken before and after it: ``run_sampled`` runs a tenth of an
interpreter slice every ``SAMPLE_PERIOD_S`` while the child runs, on the
same CPU, and times it in thread CPU time, which waiting for the CPU
does not count.  Over 32 CLI commands the log of a child's wall time
followed the mean sample with correlation 0.86-0.90, against 0.30-0.56
for the mean of the marks around it.
"""

from __future__ import annotations

import statistics
import subprocess
import time

import numpy as np

# slice time on an Intel Xeon 2-core VM (Python 3.11, numpy 2.4) in its
# fast state; any fixed value serves, since runs compare against each other
REF_SLICE_S = 0.010
MIN_GAP_S = 0.25     # least time between marks inside a timed phase
SLICES_PER_MARK = 3  # a mark is the median of this many slices
SAMPLE_PERIOD_S = 0.05   # between samples while a child process runs

_X = np.linspace(0.0, 1.0, 2048)
_G = np.linspace(0.0, 1.0, 513)
_Y = np.random.default_rng(0).random(20_000)


def interpreter_slice(tenths: int = 10) -> None:
    """A Python loop and numpy calls on small arrays."""
    acc = 0.0
    for i in range(13 * tenths):
        acc += float(np.sum(np.interp(_X * 0.7, _X, _X) * np.cos(_X * i)))
    s = 0
    for i in range(5_000 * tenths):
        s += i * i % 7


def array_slice() -> None:
    """Reflected random steps and a grid lookup on 20k-element arrays."""
    rng = np.random.default_rng(1)
    y = _Y.copy()
    for _ in range(4):
        y = np.abs(y + 0.1 * rng.standard_normal(y.size))
        y = np.where(y > 1.0, 2.0 - y, y)
        np.interp(y, _G, _G - 0.5)
        y = np.clip(y, 0.0, 1.0)


SLICES = {"interpreter": (interpreter_slice,), "arrays": (array_slice,),
          "both": (interpreter_slice, array_slice)}


def slice_seconds(kind: str) -> float:
    """Wall time of one slice of ``kind``, per slice function (``both`` runs two)."""
    fns = SLICES[kind]
    t0 = time.perf_counter()
    for fn in fns:
        fn()
    return (time.perf_counter() - t0) / len(fns)


def mark_seconds(kind: str) -> float:
    """Median slice time of ``SLICES_PER_MARK`` slices in a row."""
    return statistics.median(slice_seconds(kind) for _ in range(SLICES_PER_MARK))


def scale(before: float, after: float) -> float:
    """Factor that turns a raw time between two slices into reference time."""
    return 2.0 * REF_SLICE_S / (before + after)


class Pacer:
    """Marks taken between tasks, at most one per ``MIN_GAP_S``."""

    def __init__(self, kind: str):
        self.kind = kind
        self.marks: list = []          # (perf_counter after the mark, mark seconds)
        mark_seconds(kind)             # the first mark after set-up reads up to 2x slow
        self.take()

    def take(self) -> None:
        s = mark_seconds(self.kind)
        self.marks.append((time.perf_counter(), s))

    def maybe_take(self) -> None:
        if time.perf_counter() - self.marks[-1][0] >= MIN_GAP_S:
            self.take()

    def scale_at(self, t: float) -> float:
        """Scale for a task that ended at ``t``: the marks just before and
        just after it (a mark is taken at the end of every phase)."""
        before = after = None
        for when, s in self.marks:
            if when <= t:
                before = s
            elif after is None:
                after = s
        return scale(before, after if after is not None else before)


def run_sampled(args: list, timeout: float, **popen) -> tuple:
    """Run a child process to the end, sampling the pace while it runs.

    Returns ``(CompletedProcess, wall seconds, scale)``: the scale turns
    the wall time into reference time, ``REF_SLICE_S / 10`` over the mean
    thread CPU time of a tenth of an interpreter slice.
    """
    samples = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **popen)
    while True:
        c0 = time.thread_time()
        interpreter_slice(1)
        samples.append(time.thread_time() - c0)
        try:
            out, err = proc.communicate(timeout=SAMPLE_PERIOD_S)
            break
        except subprocess.TimeoutExpired:
            if time.perf_counter() - t0 > timeout:
                proc.kill()
                proc.communicate()
                raise
    wall = time.perf_counter() - t0
    done = subprocess.CompletedProcess(args, proc.returncode, out, err)
    return done, wall, REF_SLICE_S / 10.0 / statistics.fmean(samples)

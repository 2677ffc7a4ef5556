"""A fixed piece of work, independent of the program under test, that tracks
how fast the machine is running right now.

On a shared 2-vCPU virtual machine the same `vibrancy run` child takes from
1.1 s to 2.3 s depending on what the neighbours are doing, in phases that
last longer than one benchmark run. The benchmark times this calibration
right before and right after every child and scales the child's times by
``REF_S / calibration``: the result reads as seconds on the reference box
when it is quiet, and most of the neighbours' effect cancels out. Raw times
are reported alongside. The work mixes what `vibrancy run` spends its time
on: row-by-row CSV and timestamp parsing in Python, and numpy pairwise
differences.
"""

from __future__ import annotations

import csv
import io
import time
from datetime import datetime

import numpy as np

# About what the calibration takes on the 2-vCPU box the bounds were set on,
# in a quiet phase; it only sets the scale of the reported times.
REF_S = 0.03

_TEXT = "".join(
    f"{i % 97},{i % 89},2019-03-18T{(i // 4) % 24:02d}:{15 * (i % 4):02d},svc-{i % 7},"
    f"downlink,{i * 0.37:.3f}\n"
    for i in range(6000)
)
_POINTS = np.random.default_rng(0).standard_normal((300, 48))


def calibrate() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    total = 0.0
    for row in csv.reader(io.StringIO(_TEXT)):
        total += float(row[5]) + datetime.fromisoformat(row[2]).hour
    diff = _POINTS[:, None, :] - _POINTS[None, :, :]
    total += float(np.einsum("ijk,ijk->ij", diff, diff).sum())
    return time.perf_counter() - t0

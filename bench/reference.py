"""Fixed reference work that measures how fast the host runs right now.

The benchmark host is shared. Other tenants slow its vCPUs by up to 1.7x,
for stretches from under a second to many minutes, and a run cannot wait
that out. ``run.py`` therefore runs this block before and after every timed
call and scales the call's time by ``REF_S`` over the mean of the two block
times. A change to the package leaves the block unchanged, so the scaled
time moves with the package's speed and not with the host's.

The block mixes the kinds of work the package does: an integer loop,
frozen-dataclass and ``math`` arithmetic, small NumPy arrays, and JSON
encoding and decoding. On a 2-vCPU Xeon with Python 3.11 and NumPy 2.4 it
takes about 0.03 s when no other tenant slows the host, so scaled times
read close to the wall times of a quiet host there. Changing the block, or
``REF_S``, changes every benchmark time.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

# Scaled times are seconds on a host where one block takes REF_S.
REF_S = 0.03


@dataclass(frozen=True)
class _Pose:
    x: float
    y: float
    h: float
    v: float


def _integers() -> None:
    s = 0
    for i in range(40_000):
        s += i * i % 7


def _poses() -> None:
    p = _Pose(0.0, 0.0, 0.1, 5.0)
    for _ in range(6_000):
        c, s = math.cos(p.h), math.sin(p.h)
        p = _Pose(p.x + p.v * c * 0.1, p.y + p.v * s * 0.1,
                  (p.h + 0.01) % 6.28, p.v)


def _arrays() -> None:
    a = np.linspace(0.0, 1.0, 64)
    b = np.ones((50, 50))
    for _ in range(800):
        a = np.hypot(a, 0.5) * 0.9
        b = b @ b * 0.02


def _json() -> None:
    doc = {"a": [i * 1.1 for i in range(300)],
           "b": {str(i): i for i in range(100)}}
    for _ in range(60):
        json.loads(json.dumps(doc))


def reference_block() -> float:
    """Seconds one pass of the reference work took."""
    t0 = time.perf_counter()
    _integers()
    _poses()
    _arrays()
    _json()
    return time.perf_counter() - t0

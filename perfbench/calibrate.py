"""A fixed piece of pure-Python work that shows how fast the host runs right now.

The benchmark shares a 2-vCPU virtual machine whose speed moves by 20–50%
from one second to the next as other tenants load it.  The timed loop runs
this kernel after every ~0.1 s of library calls, and scales each call by
how fast the kernel ran just before and just after it: a reported time is
in "reference seconds", the seconds the call would take on a host where
one kernel run takes ``REF_S``.  The kernel does the same kind of work as
the library — a breadth-first product construction over dicts, tuples and
lists, much like a square build — so it slows down with the library when
the host does.  It never calls the library.
"""

from __future__ import annotations

import random
import time

#: kernel time that defines one reference second
REF_S = 0.03

_N = 160
_rng = random.Random(_N)
_GRAPH = [[_rng.randrange(_N) for _ in range(3)] for _ in range(_N)]


def _product() -> int:
    """Pairs of graph nodes reachable from (0, 0), stepping both in lockstep."""
    index = {(0, 0): 0}
    queue = [(0, 0)]
    arcs = []
    for x, y in queue:
        src = index[(x, y)]
        for a in _GRAPH[x]:
            for b in _GRAPH[y]:
                if (a ^ b) % 3:
                    continue
                key = (a, b)
                dst = index.get(key)
                if dst is None:
                    dst = index[key] = len(queue)
                    queue.append(key)
                arcs.append((src, dst))
    return len(arcs)


#: the kernel's answer, fixed by the graph; checked on every run
EXPECTED = _product()


def kernel_seconds(repeats: int = 2) -> float:
    """Wall time of one kernel run: `repeats` product builds."""
    start = time.perf_counter()
    for _ in range(repeats):
        if _product() != EXPECTED:
            raise RuntimeError("calibration kernel gave a different answer")
    return time.perf_counter() - start


class Scaler:
    """Turns host seconds into reference seconds, one slice of work at a time.

    ``close()`` runs the kernel and returns the factor for the work done
    since the previous ``close()`` (or since the scaler was made): REF_S over
    the mean of the kernel times on either side of it.
    """

    def __init__(self) -> None:
        self._before = kernel_seconds()

    def close(self) -> float:
        after = kernel_seconds()
        factor = REF_S / ((self._before + after) / 2)
        self._before = after
        return factor

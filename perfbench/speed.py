"""Host speed, read off a fixed pure-Python reference task.

On a shared host the speed of plain Python code drifts by up to 2x, in
phases from seconds to minutes, and all kinds of Python work slow down
together.  The benchmark times this task, which calls nothing of the
program, right before and right after each timed interval and scales the
interval by it: `nominal(seconds, before, after)` is the time the interval
would have taken on a host where the task takes `NOMINAL_S`.  A change to
the program moves nominal seconds in full; the task itself never changes.
"""

from __future__ import annotations

import random
import time

from instances import stacked

# Wall seconds of `reference_s()` on a quiet 2-vCPU Xeon host (Python 3.11).
NOMINAL_S = 0.016
_REPS = 8
_SPHERE = stacked(random.Random("perfbench/reference"), 40)


def _task() -> int:
    """Breadth-first search from every vertex and triangle count of a fixed sphere."""
    adj: dict[str, set[str]] = {}
    for face in _SPHERE.faces:
        for i, u in enumerate(face):
            v = face[(i + 1) % len(face)]
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    total = 0
    for s in sorted(adj):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for w in sorted(adj[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(dist.values())
        total += len({frozenset((a, b)) for a in adj[s] for b in adj[s] if b in adj[a]})
    return total


_EXPECT = _task()


def reference_s() -> float:
    """Wall seconds the reference task takes now."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        if _task() != _EXPECT:
            raise AssertionError("the reference task changed its result")
    return time.perf_counter() - t0


def nominal(seconds: float, before: float, after: float) -> float:
    """`seconds` scaled to the nominal host, by the reference times around them."""
    return seconds * 2 * NOMINAL_S / (before + after)

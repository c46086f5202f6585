"""Times scaled to a reference machine speed.

The machine this benchmark runs on is shared: over a few seconds its speed
for pure-Python code drifts by up to a third.  So the benchmark runs a small
fixed kernel next to every problem and scales each measured time by
REFERENCE_S over the kernel's local time, the median of the kernel runs
around it.  A drift slows the kernel and the problem alike and cancels; a
change to hsk moves only the problem.  The kernel imports nothing from hsk,
so no change to hsk can move it.  Raw times are reported next to the scaled
ones.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

# About the kernel's median time on the machine the baseline was measured on
# (a shared 2-vCPU cloud VM, Python 3.11); scaled times are in seconds of that
# machine at that speed.
REFERENCE_S = 0.0012

WINDOW = 5  # kernel runs on each side of a problem that set its local speed


@dataclass(frozen=True)
class _Node:
    head: str
    args: tuple


def kernel() -> int:
    """Allocation-, hashing-, dict- and dispatch-heavy pure Python, the mix
    of hsk's inner loops (term construction, congruence closure)."""
    layer = [_Node(f"c{i}", ()) for i in range(8)]
    seen: dict = {}
    for _ in range(4):
        layer = [_Node("f", (a, b)) for a, b in zip(layer, layer[1:] + layer[:1])] + layer[:4]
        for node in layer:
            seen[node] = seen.get(node, 0) + 1
    parent = list(range(300))
    for i in range(600):
        a, b = (i * 7919) % 300, (i * 104729) % 300
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
        key = frozenset(((i % 13, True), (i % 7, False)))
        seen[key] = isinstance(key, frozenset)
    return len(seen)


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """Scale times[i], measured between kernels[i] and kernels[i + 1], by the
    median kernel time of the WINDOW runs on each side."""
    assert len(kernels) == len(times) + 1
    out = []
    for i, t in enumerate(times):
        local = statistics.median(kernels[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
        out.append(t * REFERENCE_S / local)
    return out

"""Naive brute-force ground truth for small instances.

Deliberately shares only the instance types, Hypergraph and VectorFunction,
with the main code path: degeneracy is re-checked here by enumerating
vertex subsets, not by peeling, so a bug in one implementation cannot hide
in the other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .hypergraph import Hypergraph, VectorFunction


def brute_strictly_degenerate(H: Hypergraph, h: Mapping[str, int]) -> bool:
    """Check every non-empty induced vertex subset for a low-degree vertex."""
    if H.order > 12:
        raise ValueError(f"brute_strictly_degenerate guard: {H.order} > 12 vertices")
    vs = sorted(H.vertices)
    edges = list(H.edges().values())
    for r in range(1, len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            subset = frozenset(sub)
            ok = False
            for v in sub:
                d = sum(1 for m in edges if v in m and m <= subset)
                if d < h[v]:
                    ok = True
                    break
            if not ok:
                return False
    return True


@dataclass(frozen=True)
class OracleVerdict:
    partitionable: bool
    witness: dict[str, int] | None  # vertex -> class index 1..p


def brute_partitionable(H: Hypergraph, f: VectorFunction) -> OracleVerdict:
    """Try all p^n class assignments in lexicographic vertex order."""
    p = f.p
    n = H.order
    if n > 10 or p**n > 10**7:
        raise ValueError(f"brute_partitionable guard exceeded (n={n}, p={p})")
    vs = sorted(H.vertices)
    for assignment in itertools.product(range(1, p + 1), repeat=n):
        classes: dict[int, set[str]] = {i: set() for i in range(1, p + 1)}
        for v, i in zip(vs, assignment):
            classes[i].add(v)
        if all(
            brute_strictly_degenerate(H.induced(X), {v: f[v][i - 1] for v in X})
            for i, X in classes.items()
        ):
            return OracleVerdict(True, dict(zip(vs, assignment)))
    return OracleVerdict(False, None)

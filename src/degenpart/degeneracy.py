"""Strict degeneracy testing with witnesses, and the coloring number.

A hypergraph is strictly h-degenerate when every non-empty subhypergraph
has a vertex of degree below h(v).  It suffices to check induced
subhypergraphs (dropping edges only lowers degrees), which greedy peeling
does: repeatedly delete any vertex whose current degree is below its
bound.  Peeling never discards a solution, and the stuck core is the same
whatever the peel order, so it serves as a canonical failure witness.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Mapping

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class DegeneracyWitness:
    """Either a removal order proving degeneracy, or the stuck core refuting it."""

    removal_order: tuple[str, ...] | None
    core: frozenset[str] | None

    @property
    def degenerate(self) -> bool:
        return self.removal_order is not None

    def __bool__(self) -> bool:
        return self.degenerate


def is_strictly_degenerate(H: Hypergraph, h: Mapping[str, int]) -> DegeneracyWitness:
    """Peel vertices with degree < h(v), smallest name first.

    Returns a removal order if H empties, else the maximal stuck core.
    """
    missing = H.vertices - h.keys()
    if missing:
        raise ValueError(f"bound function misses vertices {sorted(missing)}")
    alive = set(H.vertices)
    deg = {v: H.degree(v) for v in alive}
    dead: set[str] = set()
    order: list[str] = []
    ready = [v for v in alive if deg[v] < h[v]]
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)
        alive.discard(v)
        order.append(v)
        # deleting v kills every edge it touches (induced-subhypergraph semantics)
        for e in H.edges_at(v):
            if e in dead:
                continue
            dead.add(e)
            for u in H.incidence(e):
                if u not in alive:
                    continue
                deg[u] -= 1
                if deg[u] == h[u] - 1:  # the one moment u's degree falls below its bound
                    heapq.heappush(ready, u)
    if alive:
        return DegeneracyWitness(None, frozenset(alive))
    return DegeneracyWitness(tuple(order), None)


def col(H: Hypergraph) -> int:
    """Coloring number: least k with H strictly k-degenerate (0 for empty H).

    Strict k-degeneracy is monotone in k and holds once k exceeds the
    maximum degree, so the least such k is found by bisecting
    0..max_degree + 1 with `is_strictly_degenerate`.
    """
    return bisect.bisect_left(
        range(H.max_degree() + 2),
        True,
        key=lambda k: bool(is_strictly_degenerate(H, dict.fromkeys(H.vertices, k))),
    )

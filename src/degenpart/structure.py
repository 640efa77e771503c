"""Connectivity, separating vertices, blocks and the block tree.

Blocks are computed on the skeleton graph, in which each distinct
incidence set becomes a ring: a cycle through its members in sorted order
(a 2-member set is one skeleton edge).  A cycle is 2-connected, so every
hyperedge lands in exactly one biconnected component of the skeleton, and
the block vertex sets of the hypergraph coincide with the skeleton's.
Shrinking v away cuts each ring through v to a path, so the separating
vertices are the skeleton's cut vertices: the vertices lying in two or
more skeleton blocks.  The skeleton has at most 2 * sum |e| entries, and
one Hopcroft-Tarjan DFS per component finds the blocks, and with them the
separating vertices, in time linear in sum |e|.

`rooted_blocks` gives each block's edges as an edge multiset: each
distinct incidence set mapped to the number of parallel edges on it, the
form in which the hard-pair layer reads a block.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .hypergraph import Hypergraph


def components(H: Hypergraph) -> list[frozenset[str]]:
    """Vertex sets of the connected components, sorted by smallest vertex."""
    incidence = H.edges()
    seen: set[str] = set()
    out: list[frozenset[str]] = []
    for start in H.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for e in H.edges_at(v):
                for u in incidence.pop(e, ()):
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
        seen |= comp
        out.append(frozenset(comp))
    out.sort(key=min)
    return out


def is_connected(H: Hypergraph) -> bool:
    return len(components(H)) == 1


def separating_vertices(H: Hypergraph) -> frozenset[str]:
    """Vertices v whose component C has H[C] / v non-empty and disconnected.

    These are the vertices lying in two or more blocks of the skeleton.
    """
    adj = _skeleton_adjacency(H.vertices, set(H.edges().values()))
    disc: dict[str, int] = {}
    vsets: list[frozenset[str]] = []
    for root in adj:
        if root not in disc:
            vsets += (b for _, b in _biconnected_vertex_sets(adj, root, disc))
    return _in_two_or_more(vsets)


@dataclass(frozen=True)
class BlockTree:
    """Blocks, sorted by their smallest vertex, and the separating vertices.

    Among the blocks whose smallest vertex is m, those that hang below m
    (seen from the smallest vertex of H) come first, by m's smallest
    skeleton neighbour in each, and the one through which m is reached
    comes last: the order of a depth-first search from the smallest vertex
    that visits neighbours in sorted order.  m is the smallest member of
    each edge of b at m, so m's ring neighbours in it include the second
    smallest: m's smallest skeleton neighbour in b is that of a clique.
    """

    blocks: tuple[frozenset[str], ...]
    cut_vertices: frozenset[str]


def _skeleton_adjacency(vertices: Iterable[str], distinct: Iterable[frozenset[str]]) -> dict[str, set[str]]:
    """One ring per incidence set in distinct, which holds each set once."""
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for m in distinct:
        if len(m) == 2:
            u, w = m
            adj[u].add(w)
            adj[w].add(u)
            continue
        ring = sorted(m)
        prev = ring[-1]
        for u in ring:
            adj[prev].add(u)
            adj[u].add(prev)
            prev = u
    return adj


def _in_two_or_more(vsets: list[frozenset[str]]) -> frozenset[str]:
    seen: set[str] = set()
    out: set[str] = set()
    for b in vsets:
        out |= seen & b
        seen |= b
    return frozenset(out)


def _biconnected_vertex_sets(
    adj: dict[str, set[str]], root: str, disc: dict[str, int]
) -> list[tuple[str, frozenset[str]]]:
    """(entry, vertex set) of each biconnected component reachable from root
    (iterative Hopcroft-Tarjan); the entry is the component's vertex
    nearest root, through which every path from root reaches the others.

    Records the discovery time of every vertex reached in disc, which may
    already hold the vertices of other components.  Neither the vertex
    sets nor the entries depend on the order in which neighbours are
    visited, so adjacency sets are walked in their own order.
    """
    low: dict[str, int] = {}
    comps: list[tuple[str, frozenset[str]]] = []
    timer = len(disc)
    disc[root] = low[root] = timer
    # vertices reached but not yet placed in a component, in discovery order
    pending = [root]
    # stack holds (vertex, parent, iterator over neighbors, index in pending)
    stack = [(root, None, iter(adj[root]), 0)]
    while stack:
        v, parent, it, _ = stack[-1]
        for u in it:
            if u not in disc:
                timer += 1
                disc[u] = low[u] = timer
                stack.append((u, v, iter(adj[u]), len(pending)))
                pending.append(u)
                break
            if u != parent and disc[u] < low[v]:
                low[v] = disc[u]
        else:
            _, _, _, at = stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    # v's subtree hangs off p: with p it forms a component
                    comps.append((p, frozenset(pending[at:]) | {p}))
                    del pending[at:]
    return comps


def _dfs_blocks(
    H: Hypergraph, distinct: Iterable[frozenset[str]]
) -> tuple[list[tuple[str, frozenset[str]]], list[int], dict[str, int]]:
    """The blocks of a connected non-empty H, whose distinct incidence sets
    are given, as (entry, vertex set) in the order a depth-first search from
    the smallest vertex completes them, their indices in BlockTree order,
    and the discovery times."""
    if H.is_empty:
        raise ValueError("blocks: empty hypergraph")
    adj = _skeleton_adjacency(H.vertices, distinct)
    disc: dict[str, int] = {}
    root = min(H.vertices)
    found = _biconnected_vertex_sets(adj, root, disc) or [(root, H.vertices)]
    if len(disc) < H.order:
        raise ValueError("blocks: disconnected hypergraph (iterate components)")

    def order(k: int) -> tuple:
        entry, b = found[k]
        m = min(b)
        return (m, 0, min(adj[m] & b, default=m)) if m == entry else (m, 1)

    return found, sorted(range(len(found)), key=order), disc


def blocks(H: Hypergraph) -> BlockTree:
    """Block decomposition of a connected non-empty hypergraph."""
    found, rank, _ = _dfs_blocks(H, set(H.edges().values()))
    vsets = [found[k][1] for k in rank]
    return BlockTree(tuple(vsets), _in_two_or_more(vsets))


def rooted_blocks(H: Hypergraph) -> tuple[list[tuple[str, frozenset[str], dict[frozenset[str], int]]], list[int]]:
    """(entry, vertex set, edge multiset) of each block of a connected
    non-empty H, in the order a depth-first search from the smallest vertex
    completes them (each block after the blocks hanging below it, a block
    holding that root last), and the blocks' indices in BlockTree order.
    The edge multiset maps each distinct incidence set of the block's edges
    to the number of edges of H on it.

    An edge lies in the block of its last discovered member w: the last
    completed block holding w, where w is not the entry.
    """
    multiset = Counter(H.edges().values())
    found, rank, disc = _dfs_blocks(H, multiset)
    owner = {v: k for k, (_, b) in enumerate(found) for v in b}
    edges: list[dict[frozenset[str], int]] = [{} for _ in found]
    for m, t in multiset.items():
        if len(m) == 2:
            u, w = m
            last = u if disc[u] > disc[w] else w
        else:
            last = max(m, key=disc.__getitem__)
        edges[owner[last]][m] = t
    return [(c, b, es) for (c, b), es in zip(found, edges)], rank

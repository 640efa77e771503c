"""Connectivity, separating vertices, blocks and the block tree.

Blocks are computed on the skeleton graph (each incidence set replaced by a
clique): a clique is 2-connected, so every hyperedge lands in exactly one
biconnected component of the skeleton, and the block vertex sets of the
hypergraph coincide with the skeleton's.  Shrinking v away leaves the
skeleton minus v, so the separating vertices are the skeleton's cut
vertices: the vertices lying in two or more skeleton blocks.  One
Hopcroft-Tarjan DFS per component finds the blocks, and with them the
separating vertices, in time linear in the size of the skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Hypergraph


def components(H: Hypergraph) -> list[frozenset[str]]:
    """Vertex sets of the connected components, sorted by smallest vertex."""
    seen: set[str] = set()
    out: list[frozenset[str]] = []
    for start in sorted(H.vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for e in H.edges_at(v):
                for u in H.incidence(e):
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
        seen |= comp
        out.append(frozenset(comp))
    return out


def is_connected(H: Hypergraph) -> bool:
    return len(components(H)) == 1


def separating_vertices(H: Hypergraph) -> frozenset[str]:
    """Vertices v whose component C has H[C] / v non-empty and disconnected.

    These are the vertices lying in two or more blocks of the skeleton.
    """
    adj = _skeleton_adjacency(H)
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
    that visits neighbours in sorted order.
    """

    blocks: tuple[frozenset[str], ...]
    cut_vertices: frozenset[str]


def _skeleton_adjacency(H: Hypergraph) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in H.vertices}
    for e in H.edge_ids:
        m = H.incidence(e)
        for u in m:
            adj[u] |= m
    for v, nbrs in adj.items():
        nbrs.discard(v)
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


def blocks(H: Hypergraph) -> BlockTree:
    """Block decomposition of a connected non-empty hypergraph."""
    if H.is_empty:
        raise ValueError("blocks: empty hypergraph")
    adj = _skeleton_adjacency(H)
    disc: dict[str, int] = {}
    found = _biconnected_vertex_sets(adj, min(H.vertices), disc)
    if len(disc) < H.order:
        raise ValueError("blocks: disconnected hypergraph (iterate components)")
    if H.order == 1:
        return BlockTree((H.vertices,), frozenset())

    def order(entry_and_block: tuple[str, frozenset[str]]) -> tuple:
        entry, b = entry_and_block
        m = min(b)
        return (m, 0, min(adj[m] & b)) if m == entry else (m, 1)

    vsets = [b for _, b in sorted(found, key=order)]
    return BlockTree(tuple(vsets), _in_two_or_more(vsets))

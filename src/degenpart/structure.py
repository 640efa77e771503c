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

Every connectivity query runs one search, `_dfs_forest`, rooted at the
smallest vertex left undiscovered, so components come out sorted by
smallest vertex.  `components` (the union of each component's blocks),
`separating_vertices` and `_is_one_block` (the one-block test of
`classify_block` and of make_hard's monoblocks) read its blocks through
`_skeleton_forest`.
`block_forest` gives, from one pass, every component's vertex set and
blocks, each block with its entry and its edges as an edge multiset: each
distinct incidence set mapped to the number of parallel edges on it, the
form in which the hard-pair layer reads a block.
`block_trees` reads the same pass as one BlockTree per component;
`rooted_blocks` and `blocks` are the connected cases of the two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, TypeVar

from .hypergraph import Hypergraph


def components(H: Hypergraph) -> list[frozenset[str]]:
    """Vertex sets of the connected components, sorted by smallest vertex."""
    return [frozenset().union(*(b for _, b in found)) for found in _skeleton_forest(H)]


def is_connected(H: Hypergraph) -> bool:
    return len(components(H)) == 1


def separating_vertices(H: Hypergraph) -> frozenset[str]:
    """Vertices v whose component C has H[C] / v non-empty and disconnected.

    These are the vertices lying in two or more blocks of the skeleton.
    """
    return _in_two_or_more([b for found in _skeleton_forest(H) for _, b in found])


def _skeleton_forest(H: Hypergraph) -> list[list[tuple[str, frozenset[str]]]]:
    """`_dfs_forest`'s blocks of H's skeleton, built from each distinct
    incidence set once: the one search behind `components` and
    `separating_vertices`."""
    forest, _ = _dfs_forest(_skeleton_adjacency(H.vertices, set(H._incidence.values())))
    return forest


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


def _skeleton_adjacency(vertices: Iterable[str], distinct: Iterable[frozenset[str]]) -> dict[str, list[str]]:
    """One ring per incidence set in distinct, which holds each set once.

    Two sets may give the same pair, which then appears twice in a list:
    a parallel skeleton edge changes no block, so it is kept.
    """
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for m in distinct:
        if len(m) == 2:
            u, w = m
            adj[u].append(w)
            adj[w].append(u)
            continue
        ring = sorted(m)
        prev = ring[-1]
        for u in ring:
            adj[prev].append(u)
            adj[u].append(prev)
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
    adj: dict[str, list[str]], root: str, disc: dict[str, int]
) -> list[tuple[str, frozenset[str]]]:
    """(entry, vertex set) of each biconnected component reachable from root
    (iterative Hopcroft-Tarjan); the entry is the component's vertex
    nearest root, through which every path from root reaches the others.

    Records the discovery time of every vertex reached in disc, which may
    already hold the vertices of other components.  Neither the vertex
    sets nor the entries depend on the order in which neighbours are
    visited, so adjacency lists are walked in their own order.
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
        v, parent, it, at = stack[-1]
        for u in it:
            d = disc.get(u)
            if d is None:
                timer += 1
                disc[u] = low[u] = timer
                stack.append((u, v, iter(adj[u]), len(pending)))
                pending.append(u)
                break
            if u != parent and d < low[v]:
                low[v] = d
        else:
            stack.pop()
            if parent is not None:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    # v's subtree hangs off its parent: with it, a component
                    block = pending[at:]
                    del pending[at:]
                    block.append(parent)
                    comps.append((parent, frozenset(block)))
    return comps


def _dfs_forest(adj: dict[str, list[str]]) -> tuple[list[list[tuple[str, frozenset[str]]]], dict[str, int]]:
    """One depth-first search per component of the skeleton adj, and the
    discovery times.  For each component, sorted by smallest vertex, the
    (entry, vertex set) of its blocks in the order the search from that
    smallest vertex completes them; an isolated vertex is one block,
    entered through itself.

    The first search starts at the smallest vertex; the other vertices are
    sorted only when that search leaves some of them undiscovered.
    """
    forest: list[list[tuple[str, frozenset[str]]]] = []
    disc: dict[str, int] = {}

    def search(root: str) -> None:
        forest.append(_biconnected_vertex_sets(adj, root, disc) or [(root, frozenset((root,)))])

    if adj:
        search(min(adj))
    if len(disc) < len(adj):
        for v in sorted(adj.keys() - disc.keys()):
            if v not in disc:
                search(v)
    return forest, disc


def _block_order(found: list[tuple[str, frozenset[str]]], adj: dict[str, list[str]]) -> list[int]:
    """The indices of one component's blocks in BlockTree order."""

    def key(k: int) -> tuple:
        entry, b = found[k]
        m = min(b)
        return (m, 0, min((u for u in adj[m] if u in b), default=m)) if m == entry else (m, 1)

    return sorted(range(len(found)), key=key)


T = TypeVar("T")


def _one_tree(forest: list[T]) -> T:
    """The only component's entry of a forest; ValueError for an empty or disconnected H."""
    if not forest:
        raise ValueError("blocks: empty hypergraph")
    if len(forest) > 1:
        raise ValueError("blocks: disconnected hypergraph (iterate components)")
    return forest[0]


RootedBlock = tuple[str, frozenset[str], dict[frozenset[str], int]]


def block_forest(H: Hypergraph) -> list[tuple[frozenset[str], list[RootedBlock], list[int]]]:
    """Every component's blocks, from one skeleton and one depth-first
    search per component.

    For each component, sorted by smallest vertex: its vertex set; the
    (entry, vertex set, edge multiset) of each of its blocks, in the order
    the search from the component's smallest vertex completes them (each
    block after the blocks hanging below it, a block holding that root
    last); and the blocks' indices in BlockTree order.  The edge multiset
    maps each distinct incidence set of the block's edges to the number of
    edges of H on it.

    An edge lies in the block of its last discovered member w: the last
    completed block holding w, where w is not the entry.
    """
    multiset = Counter(H._incidence.values())
    adj = _skeleton_adjacency(H.vertices, multiset)
    forest, disc = _dfs_forest(adj)
    ranks = [_block_order(found, adj) for found in forest]
    del adj  # the skeleton is freed before the edges are assigned
    parts = [[(c, b, {}) for c, b in found] for found in forest]
    # each vertex's last completed block: the one it is not the entry of
    owner = {v: es for found in parts for _, b, es in found for v in b}
    for m, t in multiset.items():
        if len(m) == 2:
            u, w = m
            owner[u if disc[u] > disc[w] else w][m] = t
        else:
            owner[max(m, key=disc.__getitem__)][m] = t
    # one component is the whole vertex set
    comps = [H.vertices] if len(forest) == 1 else [frozenset().union(*(b for _, b in found)) for found in forest]
    return list(zip(comps, parts, ranks))


def rooted_blocks(H: Hypergraph) -> tuple[list[RootedBlock], list[int]]:
    """`block_forest`'s one entry for a connected non-empty H: its rooted
    blocks, in completion order, and their indices in BlockTree order."""
    _, parts, rank = _one_tree(block_forest(H))
    return parts, rank


def block_trees(H: Hypergraph) -> list[BlockTree]:
    """Every component's BlockTree, sorted by smallest vertex, from one
    `block_forest` pass."""
    out = []
    for _, parts, rank in block_forest(H):
        vsets = [parts[k][1] for k in rank]
        out.append(BlockTree(tuple(vsets), _in_two_or_more(vsets)))
    return out


def _is_one_block(H: Hypergraph) -> bool:
    """Whether a connected non-empty H has no separating vertex, from one
    skeleton search; ValueError, as from `blocks`, for an empty or
    disconnected H."""
    return len(_one_tree(_skeleton_forest(H))) == 1


def blocks(H: Hypergraph) -> BlockTree:
    """Block decomposition of a connected non-empty hypergraph: the
    connected case of `block_trees`."""
    return _one_tree(block_trees(H))

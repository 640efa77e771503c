"""Recognition, generation and verification of non-partitionable pairs.

The pair's types and domain check live in `hypergraph`; this module holds
the block type tags, the certificate, recognition, verification and construction.

A pair (H, f) with f a p-coordinate vector function admits no partition
into strictly f_i-degenerate classes exactly when it belongs to a
recursive family built from three kinds of base blocks -- monoblocks (all
of f on one coordinate, equal to the degree), uniformly multiplied
complete graphs, and odd uniformly multiplied cycles -- glued together at
single vertices with f adding up at the glue point.

Each base type is defined once: `block_function` gives the share of f
that a block with a given tag carries (None when the tag's parameters are
invalid), and `_has_shape` tests the block against tK_n or tC_n.  Both
read a block as its vertex set and its edge multiset, each distinct
incidence set mapped to its number of parallel edges, so no block is
built as a `Hypergraph` and a t-fold edge is read once, not t times.
Recognition (`hard_components`, `is_hard`, `classify_block`),
verification (`verify_certificate`) and construction (`make_hard`) all
read these two.

`hard_components` is the one decider: from one `structure.block_forest`
pass it decides every component, each by `_strip_blocks`, which
recognises each block straight from its edge multiset and strips the
blocks in the order a depth-first search completes them: the value of f
on a block's vertices other than the one it was entered through pins
down that block's tag and share, and the shares must add up exactly at
the shared vertices.  The strip is total: it needs no sum f = d at the
vertices, as a strip that succeeds proves it.  `is_hard` is the connected
case, and `partition.solve` and the CLI's is-hard call `hard_components`.

`make_hard` walks a plan of base blocks and merges (the paper's merging of
a vertex) once, in post-order with an explicit stack, so any depth works.
It builds no `Hypergraph` per base block.  Each distinct block is named
once per plan: tK_n and tC_n straight from their parameters, with the
names the stock constructions give, and a monoblock's own hypergraph
after one skeleton search shows it is one block; `block_function` checks
each distinct base node once.  Block k's vertices become "b<k>.<v>", one
string each, which its edges share; each merge glues two vertices into a
new one, and the valid parts are stored once, at the end.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import add, itemgetter, sub
from typing import Collection, Mapping

from .hypergraph import (Hypergraph, VectorFunction, _check_domain, _complete, _complete_shape, _cycle,
                         _cycle_shape, _fold, complete_uniform, cycle, t_fold)
from .structure import RootedBlock, _is_one_block, block_forest, rooted_blocks


# -- block type tags ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class MTag:
    """Monoblock: f concentrated on coordinate j and equal to the degree."""

    j: int


@dataclass(frozen=True, slots=True)
class KTag:
    """t-fold complete block tK_n with constant f = t * counts, sum(counts) = n - 1."""

    t: int
    counts: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class CTag:
    """t-fold odd cycle tC_n (n >= 5) with constant f = t * (e_k + e_l)."""

    t: int
    k: int
    l: int


BlockTypeTag = MTag | KTag | CTag


@dataclass(frozen=True)
class HardPairCertificate:
    """Per-block classification: vertex sets, type tags, and block functions.

    block_functions[i] maps each vertex of blocks[i] to its share of f;
    the shares sum to f at every vertex.
    """

    blocks: tuple[frozenset[str], ...]
    tags: tuple[BlockTypeTag, ...]
    block_functions: tuple[dict[str, tuple[int, ...]], ...]


def block_function(
    vertices: Collection[str], edges: Mapping[frozenset[str], int], tag: BlockTypeTag, p: int
) -> dict[str, tuple[int, ...]] | None:
    """The share of f that the block with these vertices and this edge
    multiset carries under tag, or None when the tag's parameters are
    invalid for p and the order of the block.

    M gives d_B(v) * e_j; K gives t * counts with sum(counts) = |B| - 1 and
    two non-zero counts; C gives t * (e_k + e_l) with |B| odd and >= 5.
    t >= 1 is left to `_has_shape`, as the shape tests never return less.
    """
    n = len(vertices)
    if isinstance(tag, MTag):
        if not 1 <= tag.j <= p:
            return None
        degree = dict.fromkeys(vertices, 0)
        for m, t in edges.items():
            for v in m:
                degree[v] += t
        before, after = (0,) * (tag.j - 1), (0,) * (p - tag.j)
        vecs = {d: before + (d,) + after for d in set(degree.values())}  # one vector per degree
        return {v: vecs[d] for v, d in degree.items()}
    if isinstance(tag, KTag):
        counts = tag.counts
        if len(counts) != p or min(counts) < 0 or sum(map(bool, counts)) < 2 or sum(counts) != n - 1:
            return None
        vec = tuple([tag.t * c for c in counts])
    elif isinstance(tag, CTag):
        if tag.k == tag.l or not (1 <= tag.k <= p and 1 <= tag.l <= p) or n < 5 or n % 2 == 0:
            return None
        entries = [0] * p
        entries[tag.k - 1] = entries[tag.l - 1] = tag.t
        vec = tuple(entries)
    else:
        return None
    return dict.fromkeys(vertices, vec)


def _has_shape(vertices: Collection[str], edges: Mapping[frozenset[str], int], tag: BlockTypeTag) -> bool:
    """K needs the block to be tK_n and C needs tC_n; a monoblock may be any block."""
    if isinstance(tag, KTag):
        return _complete_shape(vertices, edges) == (tag.t, len(vertices))
    if isinstance(tag, CTag):
        return _cycle_shape(vertices, edges) == (tag.t, len(vertices))
    return True


def _recognize(
    vertices: Collection[str], edges: Mapping[frozenset[str], int], residual: Mapping[str, tuple[int, ...]],
    entry: str | None, p: int,
) -> tuple[BlockTypeTag, dict[str, tuple[int, ...]]] | None:
    """The tag of the block with these vertices and this edge multiset, and
    its share, agreeing with residual at every vertex but entry (the pinned
    vertices; all of them when entry is None).

    Any pinned vertex's vector g allows the tags: M when g has at most one
    non-zero coordinate; otherwise K, with t read off the block's shape,
    and C when g's two non-zero entries are equal.  A share that matches
    every pinned vertex has a tag that each pinned vector allows, so the
    choice of g cannot change the answer.  K and C shares are constant, so
    with two non-zero coordinates every pinned vector must equal g, and the
    share, equal to g by construction of the tag, then matches them all.
    """
    for v in vertices:
        if v != entry:
            g = residual[v]
            break
    zeros = g.count(0)
    if zeros >= p - 1:
        tag: BlockTypeTag = MTag(g.index(max(g)) + 1)  # the non-zero coordinate, or 1
        share = block_function(vertices, edges, tag, p)  # not None: j lies in 1..p
        for v in vertices:
            if v != entry and share[v] != residual[v]:
                return None
        return tag, share
    for v in vertices:
        if v != entry and residual[v] != g:
            return None
    shape = _complete_shape(vertices, edges)
    if shape is not None and not any([x % shape[0] for x in g]):
        tag = KTag(shape[0], tuple([x // shape[0] for x in g]))
        share = block_function(vertices, edges, tag, p)
        if share is not None:
            return tag, share
    t = max(g)
    if zeros == p - 2 and g.count(t) == 2 and _cycle_shape(vertices, edges) == (t, len(vertices)):
        k = g.index(t) + 1
        tag = CTag(t, k, g.index(t, k) + 1)
        share = block_function(vertices, edges, tag, p)
        if share is not None:
            return tag, share
    return None


def classify_block(B: Hypergraph, fB: VectorFunction) -> BlockTypeTag | None:
    """The base type of one block: is_hard's single tag, or None if no match."""
    if not _is_one_block(B):
        raise ValueError("classify_block expects a connected block without separating vertices")
    cert = is_hard(B, fB)
    return cert.tags[0] if cert else None


def is_hard(H: Hypergraph, f: VectorFunction) -> HardPairCertificate | None:
    """Certificate of non-partitionability of a connected non-empty pair, or
    None: the connected case of `hard_components`.

    Raises ValueError when f is not defined on exactly V(H), and when H is
    empty or disconnected.
    """
    certs = list(hard_components(H, f).values())
    if len(certs) != 1:
        raise ValueError(f"is_hard: {'disconnected' if certs else 'empty'} hypergraph (use hard_components)")
    return certs[0]


def hard_components(H: Hypergraph, f: VectorFunction) -> dict[frozenset[str], HardPairCertificate | None]:
    """Each component's vertex set, sorted by smallest vertex, mapped to the
    certificate that H and f on it form a hard pair, or to None when they
    do not.

    Raises ValueError when f is not defined on exactly V(H).  One
    `structure.block_forest` pass gives every component's blocks, and
    `_strip_blocks` decides each component on one shared residual.
    """
    _check_domain(H, f)
    residual = dict(f.items())
    return {comp: _strip_blocks(parts, rank, residual, f.p) for comp, parts, rank in block_forest(H)}


def _strip_blocks(
    parts: list[RootedBlock], rank: list[int], residual: dict[str, tuple[int, ...]], p: int
) -> HardPairCertificate | None:
    """Certificate that the component with these rooted blocks (as
    `structure.block_forest` gives them) is hard, or None.  residual holds
    f on the component; it is lowered at the entries as the blocks are
    stripped, so disjoint components may share one residual.

    Strips the blocks in the order a depth-first search from the smallest
    vertex completes them, so every block goes after the blocks hanging
    below it, and a block holding the root goes last.  The residual f at a
    block's vertices other than its entry pins the block's tag and share,
    read straight from the block's vertex set and edges; the share is
    subtracted from the residual at the entry, which must stay
    non-negative.  The last block has every vertex pinned.

    The order cannot change the answer.  A leaf's pinned values force its
    tag and share: M needs at most one non-zero coordinate and K at least
    two, and tK_n != tC_n for n >= 5.  So a hard pair gives the same shares
    in every order, and any order that succeeds yields a valid certificate.

    No test of sum f = d is needed: a strip that succeeds proves it.  Each
    vertex is pinned in exactly one block, the one the search reached it
    through (the last block for the root), after every block it is the
    entry of, and a pinned share equals the residual there.  So f(v) is the
    sum of v's shares, and a base block's share sums to d_B(v) at each of
    its vertices: d_B(v) for M, t(n - 1) for tK_n and 2t for tC_n.  As
    every edge lies in one block, these add up to d(v).
    """
    last = len(parts) - 1
    tags: list[BlockTypeTag | None] = [None] * len(parts)
    fns: list[dict[str, tuple[int, ...]] | None] = [None] * len(parts)
    for k, (c, bset, edges) in enumerate(parts):
        if k == last:
            c = None
        found = _recognize(bset, edges, residual, c, p)
        if found is None:
            return None
        tags[k], fns[k] = found
        if c is not None:
            left = tuple(map(sub, residual[c], fns[k][c]))
            if min(left) < 0:  # early exit: no share could match c when it is pinned
                return None
            residual[c] = left
    return HardPairCertificate(
        tuple(parts[k][1] for k in rank), tuple(tags[k] for k in rank), tuple(fns[k] for k in rank)  # type: ignore[misc]
    )


def verify_certificate(H: Hypergraph, f: VectorFunction, cert: HardPairCertificate) -> bool:
    """Re-check every certificate invariant from scratch; False on any violation."""
    try:
        _check_domain(H, f)
        parts, rank = rooted_blocks(H)
    except ValueError:
        return False
    if cert.blocks != tuple(parts[k][1] for k in rank):
        return False
    if len(cert.tags) != len(cert.blocks) or len(cert.block_functions) != len(cert.blocks):
        return False
    total = dict.fromkeys(H.vertices, (0,) * f.p)
    for k, tag, fB in zip(rank, cert.tags, cert.block_functions):
        _, bset, edges = parts[k]
        if fB != block_function(bset, edges, tag, f.p) or not _has_shape(bset, edges, tag):
            return False
        for v, vec in fB.items():
            total[v] = tuple(map(add, total[v], vec))
    return all(total[v] == f[v] for v in H.vertices)


# -- construction of hard pairs -----------------------------------------

# A build plan is a nested tuple:
#   ("M", H, j)            arbitrary single-block hypergraph, f = d_H * e_j
#   ("K", t, counts)       tK_n with n = sum(counts) + 1, f constant t * counts
#   ("C", t, n, k, l)      tC_n, n >= 5 odd, f constant t * (e_k + e_l)
#   ("merge", left, right) glue two plans at a random vertex of each
# t, n, k, l, j and the counts are ints; a bool or a float is a malformed plan.


def make_hard(plan, p: int, seed: int = 0) -> tuple[Hypergraph, VectorFunction]:
    """Build a non-partitionable pair from a plan; merge points come from seed.

    Plan nodes are numbered k = 1, 2, ... in post-order: base block k names
    its vertices "b<k>.<v>", and merge k glues one vertex drawn from each
    part's sorted vertex names into "m<k>".
    """
    rng = random.Random(seed)
    values: dict[str, tuple[int, ...]] = {}
    named: dict[tuple, _Block] = {}  # see _base_block
    shares: dict[tuple, tuple[_Block, list[tuple[int, ...]]]] = {}
    built: list[tuple[str, list[str], list[tuple[list[str], itemgetter]]]] = []  # prefix, names, edges
    glued: dict[str, str] = {}
    parts: list[list[str]] = []  # sorted vertex names of each finished part
    k = 0
    stack = [(plan, False)]
    while stack:
        node, expanded = stack.pop()
        if not isinstance(node, tuple) or not node:
            raise ValueError(f"plan node {node!r} is not a non-empty tuple")
        if node[0] == "merge" and not expanded:
            _, left, right = node
            stack += [(node, True), (right, False), (left, False)]
            continue
        k += 1
        if expanded:
            right_vs, left_vs = parts.pop(), parts.pop()
            v1 = rng.choice(left_vs)
            v2 = rng.choice(right_vs)
            vstar = f"m{k}"
            glued[v1] = glued[v2] = vstar
            values[vstar] = tuple(map(add, values.pop(v1), values.pop(v2)))
            del left_vs[bisect_left(left_vs, v1)]
            del right_vs[bisect_left(right_vs, v2)]
            small, large = (right_vs, left_vs) if len(right_vs) < len(left_vs) else (left_vs, right_vs)
            for v in small + [vstar]:  # a merge costs the smaller part, not both
                insort(large, v)
            parts.append(large)
            continue
        try:
            (vs, _, edges), vecs = _base_block(node, p, named, shares)
        except (TypeError, AttributeError) as exc:  # a parameter of the wrong type
            raise ValueError(f"malformed {node[0]} plan {node!r}: {exc}") from None
        prefix = f"b{k}."
        names = [prefix + v for v in vs]  # one string per name, shared by the edges
        values.update(zip(names, vecs))
        built.append((prefix, names, edges))
        parts.append(names.copy())
    # a name glued into m<k> was recorded before m<k> itself was glued, so
    # resolving in reverse order meets each m<k>'s final name first
    for old, new in reversed(glued.items()):
        glued[old] = glued.get(new, new)
    final: dict[str, frozenset[str]] = {}
    for prefix, names, edges in built:
        names = [glued.get(v, v) for v in names]
        for ids, members in edges:
            m = frozenset(members(names))  # one set for the parallel edges
            for e in ids:
                final[prefix + e] = m
    return Hypergraph._of(frozenset(values), final), VectorFunction._of(p, values)


# A base block under its own names: its sorted vertex names, its edge
# multiset, and for each distinct incidence set the names of its parallel
# edges with a getter of its members from a list of names in the vertex
# names' order.
_Block = tuple[list[str], dict[frozenset[str], int], list[tuple[list[str], itemgetter]]]


def _base_block(
    node, p: int, named: dict[tuple, _Block], shares: dict[tuple, tuple[_Block, list[tuple[int, ...]]]]
) -> tuple[_Block, list[tuple[int, ...]]]:
    """The block of an M, K or C plan node and its share of f in its vertex
    order; ValueError when the node is invalid for p, and TypeError, which
    make_hard reports as a malformed plan, when a parameter has the wrong type.

    named holds each distinct block named so far, and shares each distinct
    node's block and share, checked by `block_function`, so that one plan
    names and checks each once.
    """
    kind = node[0]
    if kind == "M":
        _, B, j = node
        params = (B, j)
        ints = (j,)
    elif kind == "K":
        _, t, counts = node
        counts = tuple(counts)
        params = ints = (t, *counts)
    elif kind == "C":
        _, t, n, k, l = node
        params = ints = (t, n, k, l)
    else:
        raise ValueError(f"unknown plan kind {kind!r}")
    if any(type(x) is not int for x in ints):  # 1.0 or True would end up in f or fail elsewhere
        raise TypeError("t, n, k, l, j and the counts must be ints, not bools or floats")
    key = (kind, *params)
    found = shares.get(key)
    if found is None:
        if kind == "M":
            shape, tag = ("M", B), MTag(j)
        elif kind == "K":
            shape, tag = ("K", sum(counts) + 1, t), KTag(t, counts)
        else:
            shape, tag = ("C", n, t), CTag(t, k, l)
        block = named.get(shape)
        if block is None:
            block = named[shape] = _named_block(shape)
        vs, edges, _ = block
        share = block_function(vs, edges, tag, p)
        if share is None:
            raise ValueError(f"{kind} plan parameters are invalid for p = {p}")
        found = shares[key] = block, [share[v] for v in vs]
    return found


def _named_block(shape: tuple) -> _Block:
    """The block of an ("M", B), ("K", n, t) or ("C", n, t) shape: B, which
    must be one block, or tK_n or tC_n under the stock constructions' names."""
    if shape[0] == "M":
        B = shape[1]
        if not _is_one_block(B):
            raise ValueError("M plan block must be connected without separating vertices")
        vs, edges = B.vertices, B.edges()
    else:
        kind, n, t = shape
        vs, edges = _complete(n, 2) if kind == "K" else _cycle(n)
        edges = _fold(edges, t)
    vs = sorted(vs)
    at = {v: i for i, v in enumerate(vs)}
    parallel: dict[frozenset[str], list[str]] = {}
    for e, m in edges.items():
        parallel.setdefault(m, []).append(e)
    multiset = {m: len(ids) for m, ids in parallel.items()}
    return vs, multiset, [(ids, itemgetter(*[at[v] for v in m])) for m, ids in parallel.items()]


def random_hard_plan(seed: int, max_blocks: int = 4, p: int = 2):
    """Seeded random build plan with 1..max_blocks base blocks."""
    if max_blocks < 1 or p < 1:
        raise ValueError(f"random_hard_plan needs max_blocks >= 1 and p >= 1, got {max_blocks} and {p}")
    rng = random.Random(seed)
    nblocks = rng.randint(1, max_blocks)
    plan = _random_base(rng, p)
    for _ in range(nblocks - 1):
        plan = ("merge", plan, _random_base(rng, p))
    return plan


def _random_base(rng: random.Random, p: int):
    kind = rng.choice(["M", "K", "C"] if p >= 2 else ["M"])
    if kind == "M":
        shape = rng.choice(["cycle", "complete", "hyperedge", "multiedge"])
        if shape == "cycle":
            B = cycle(rng.randint(3, 6))
        elif shape == "complete":
            B = complete_uniform(rng.randint(2, 4), 2)
        elif shape == "hyperedge":
            n = rng.randint(3, 4)
            B = complete_uniform(n, n)
        else:
            B = t_fold(complete_uniform(2, 2), rng.randint(2, 3))
        return ("M", B, rng.randint(1, p))
    if kind == "K":
        n = rng.randint(3, 5)
        counts = [0] * p
        slots = rng.sample(range(p), 2)
        for s in slots:
            counts[s] = 1
        for _ in range(n - 3):
            counts[rng.randrange(p)] += 1
        return ("K", rng.randint(1, 2), tuple(counts))
    n = rng.choice([5, 7])
    k, l = rng.sample(range(1, p + 1), 2)
    return ("C", rng.randint(1, 2), n, k, l)

"""Shared corpora for the test suite.

The "sweep" fixture drives several tests: a seeded sample of small
connected multihypergraphs, each paired with vector functions that match
the degrees pointwise, together with the recognizer/solver/oracle
verdicts computed once per session.
"""

from __future__ import annotations

import heapq
import importlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass

import pytest

import degenpart as dp
from degenpart.hardpair import CTag, KTag, MTag, _has_shape, block_function
from degenpart.hypergraph import _check_domain, _check_lists
from degenpart.instancefile import Instance, ParseError, _check_names
from degenpart.partition import _Residual, _slack

SWEEP_SEED = 20260823
SWEEP_INSTANCES = 2000
FS_PER_INSTANCE = 6  # per p, when full enumeration is too large
F_CAP = 3


def compositions(d: int, p: int, cap: int):
    """All ways to write d as p ordered non-negative parts, each <= cap."""
    if p == 1:
        if d <= cap:
            yield (d,)
        return
    for x in range(min(d, cap) + 1):
        for rest in compositions(d - x, p - 1, cap):
            yield (x,) + rest


def degree_matched_fs(H: dp.Hypergraph, p: int, rng: random.Random, limit: int):
    """Vector functions with sum f_i(v) = d(v), entries <= F_CAP."""
    vs = sorted(H.vertices)
    per_vertex = [list(compositions(H.degree(v), p, F_CAP)) for v in vs]
    if any(not opts for opts in per_vertex):
        return
    total = 1
    for opts in per_vertex:
        total *= len(opts)
    if total <= limit:
        for combo in itertools.product(*per_vertex):
            yield dp.VectorFunction(p, dict(zip(vs, combo)))
    else:
        for _ in range(limit):
            yield dp.VectorFunction(p, {v: rng.choice(opts) for v, opts in zip(vs, per_vertex)})


@dataclass
class SweepRecord:
    H: dp.Hypergraph
    f: dp.VectorFunction
    hard: bool  # is_hard verdict
    oracle_partitionable: bool
    partition: dict[str, int] | None  # solve's partition when partitionable
    verify_calls: int  # verify_partition calls made inside this solve


@dataclass
class Sweep:
    records: list[SweepRecord]
    instances: int


@pytest.fixture(scope="session")
def sweep() -> Sweep:
    rng = random.Random(SWEEP_SEED)
    partition_module = importlib.import_module("degenpart.partition")
    verify_partition = partition_module.verify_partition
    calls = [0]

    def counting_verify_partition(*args):
        calls[0] += 1
        return verify_partition(*args)

    records: list[SweepRecord] = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition_module, "verify_partition", counting_verify_partition)
        for _ in range(SWEEP_INSTANCES):
            n = rng.randint(2, 5)
            m = rng.randint(1, 8)
            H = dp.random_hypergraph(
                n, m, max_arity=3, max_mult=2, seed=rng.randrange(2**32), connected=True
            )
            for p in (2, 3):
                for f in degree_matched_fs(H, p, rng, FS_PER_INSTANCE):
                    hard = dp.is_hard(H, f) is not None
                    verdict = dp.brute_partitionable(H, f)
                    calls[0] = 0
                    res = dp.solve(H, f)
                    records.append(
                        SweepRecord(H, f, hard, verdict.partitionable, res.partition, calls[0])
                    )
    return Sweep(records, SWEEP_INSTANCES)


def count_calls(monkeypatch, counts, owner, name):
    """Count the calls to owner.name in counts[name] for the rest of the test."""
    original = getattr(owner, name)
    counts[name] = 0

    def counting(*args):
        counts[name] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counting)


def balanced_plan(parts):
    """Glue make_hard plans pairwise into a balanced merge tree."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return ("merge", balanced_plan(parts[:mid]), balanced_plan(parts[mid:]))


def reference_make_hard(plan, p: int, seed: int = 0) -> tuple[dp.Hypergraph, dp.VectorFunction]:
    """Reference: build each part of a valid plan recursively and glue the
    parts with `merge`, numbering blocks b<k>. and merged vertices m<k> in
    post-order, with each merge point drawn from a part's sorted vertices.
    """
    rng = random.Random(seed)
    counter = [0]

    def build(plan):
        if plan[0] == "merge":
            H1, f1 = build(plan[1])
            H2, f2 = build(plan[2])
            v1 = rng.choice(sorted(H1.vertices))
            v2 = rng.choice(sorted(H2.vertices))
            counter[0] += 1
            vstar = f"m{counter[0]}"
            values = {v: f1[v] for v in H1.vertices if v != v1}
            values.update({v: f2[v] for v in H2.vertices if v != v2})
            values[vstar] = tuple(a + b for a, b in zip(f1[v1], f2[v2]))
            return dp.merge(H1, v1, H2, v2, vstar), dp.VectorFunction(p, values)
        counter[0] += 1
        if plan[0] == "M":
            _, B, j = plan
            f = dp.VectorFunction.from_degrees(B, j, p)
        elif plan[0] == "K":
            _, t, counts = plan
            B = dp.t_fold(dp.complete_uniform(sum(counts) + 1, 2), t)
            f = dp.VectorFunction.constant(B.vertices, tuple(t * c for c in counts))
        else:
            _, t, n, k, l = plan
            B = dp.t_fold(dp.cycle(n), t)
            f = dp.VectorFunction.constant(B.vertices, tuple(t * (i in (k, l)) for i in range(1, p + 1)))
        name = {v: f"b{counter[0]}.{v}" for v in B.vertices}
        H = dp.Hypergraph(name.values(), {f"b{counter[0]}.{e}": {name[v] for v in m} for e, m in B.edges().items()})
        return H, dp.VectorFunction(p, {name[v]: vec for v, vec in f.items()})

    return build(plan)


def reference_recognize(vertices, edges: list[frozenset[str]], pinned, p: int):
    """Reference: the block's tag and share, agreeing with pinned, from its
    edge list.  Every tag the first pinned vector g allows is tried: M when
    g has at most one non-zero coordinate; otherwise K with t = |E(B)| /
    C(n, 2), and C when g's two non-zero entries are equal.  A tag is taken
    when `block_function` gives a share holding every pinned vector and the
    block passes the tag's shape test.
    """
    multiset = Counter(edges)
    g = next(iter(pinned.values()))
    nz = [j for j, x in enumerate(g, 1) if x]
    if len(nz) <= 1:
        tags = [MTag(nz[0] if nz else 1)]
    else:
        tags = []
        n = len(vertices)
        pairs = n * (n - 1) // 2
        t = len(edges) // pairs if pairs and len(edges) % pairs == 0 else 0
        if t and all(x % t == 0 for x in g):
            tags.append(KTag(t, tuple(x // t for x in g)))
        if len(nz) == 2 and g[nz[0] - 1] == g[nz[1] - 1]:
            tags.append(CTag(g[nz[0] - 1], nz[0], nz[1]))
    for tag in tags:
        share = block_function(vertices, multiset, tag, p)
        if share is not None and pinned.items() <= share.items() and _has_shape(vertices, multiset, tag):
            return tag, share
    return None


def reference_is_hard(H: dp.Hypergraph, f: dp.VectorFunction) -> dp.HardPairCertificate | None:
    """Reference: strip leaf blocks off the block tree, always the leaf of
    smallest index next, from a min-heap of the remaining blocks with at
    most one vertex shared with another remaining block.
    """
    bt = dp.blocks(H)
    if f.vertices != H.vertices:
        raise ValueError("vector function domain does not match the hypergraph")
    if any(f.sum_at(v) != H.degree(v) for v in H.vertices):
        return None
    nb = len(bt.blocks)
    blocks_of: dict[str, list[int]] = {v: [] for v in H.vertices}
    for i, b in enumerate(bt.blocks):
        for v in b:
            blocks_of[v].append(i)
    # each edge lies in the one block holding all its members
    block_edges: list[list[frozenset[str]]] = [[] for _ in bt.blocks]
    for e in H.edge_ids:
        m = H.incidence(e)
        (i,) = [i for i in blocks_of[min(m)] if m <= bt.blocks[i]]
        block_edges[i].append(m)
    n_shared = [sum(1 for v in b if len(blocks_of[v]) >= 2) for b in bt.blocks]
    leaves = [i for i in range(nb) if n_shared[i] <= 1]
    residual = {v: f[v] for v in H.vertices}
    tags: list = [None] * nb
    fns: list = [None] * nb
    for _ in range(nb):
        leaf = heapq.heappop(leaves)
        bset = bt.blocks[leaf]
        pinned = {v: residual[v] for v in bset if len(blocks_of[v]) == 1}
        found = reference_recognize(bset, block_edges[leaf], pinned, f.p)
        if found is None:
            return None
        tags[leaf], fns[leaf] = found
        for c in bset:
            if len(blocks_of[c]) >= 2:  # the leaf's one shared vertex
                left = tuple(a - b for a, b in zip(residual[c], fns[leaf][c]))
                if min(left) < 0:
                    return None
                residual[c] = left
                blocks_of[c].remove(leaf)
                if len(blocks_of[c]) == 1:
                    (other,) = blocks_of[c]
                    n_shared[other] -= 1
                    if n_shared[other] == 1:
                        heapq.heappush(leaves, other)
    return dp.HardPairCertificate(bt.blocks, tuple(tags), tuple(fns))


def reference_solve(H: dp.Hypergraph, f: dp.VectorFunction) -> dp.SolveResult:
    """Reference: the solver driven one component at a time, as `components`
    lists them.  A component with slack is finished from its smallest slack
    vertex; a tight one is copied with `induced` and `restrict` and handed
    to `reference_is_hard`, and, when not hard, to the tight steps."""
    _check_domain(H, f)
    slack = _slack(H, f)
    assignment: dict[str, int] = {}
    certs = {}
    for comp in dp.components(H):
        if not comp.isdisjoint(slack):
            _Residual(H, f, comp).finish(min(comp & slack), assignment)
            continue
        Hc = H.induced(comp)
        fc = f.restrict(comp)
        cert = reference_is_hard(Hc, fc)
        if cert is not None:
            certs[comp] = cert
            continue
        _Residual(Hc, fc, comp).tight_steps(assignment)
    if certs:
        return dp.SolveResult(None, certs)
    assert dp.verify_partition(H, f, assignment)
    return dp.SolveResult(assignment, None)


def reference_hard_components(H: dp.Hypergraph, f: dp.VectorFunction) -> dict:
    """Reference: `reference_is_hard` on each component, copied with
    `induced` and `restrict`; only the hard components are kept."""
    certs = {}
    for comp in dp.components(H):
        cert = reference_is_hard(H.induced(comp), f.restrict(comp))
        if cert is not None:
            certs[comp] = cert
    return certs


def disjoint_union(parts) -> tuple[dp.Hypergraph, dp.VectorFunction]:
    """The disjoint union of (prefix, H, f) parts with one p, each vertex and
    edge named with its part's prefix."""
    vertices: list[str] = []
    edges: dict[str, list[str]] = {}
    values: dict[str, tuple[int, ...]] = {}
    for prefix, H, f in parts:
        vertices += (prefix + v for v in H.vertices)
        edges.update({prefix + e: [prefix + v for v in m] for e, m in H.edges().items()})
        values.update({prefix + v: vec for v, vec in f.items()})
    return dp.Hypergraph(vertices, edges), dp.VectorFunction(parts[0][2].p, values)


def disconnected_instance(seed: int) -> tuple[dp.Hypergraph, dp.VectorFunction]:
    """Seeded disconnected instance of two to six components, drawn from:
    hard pairs; hard pairs with one coordinate raised at one to three
    vertices (slack); hard pairs with one unit moved between coordinates at
    one vertex (tight, mostly not hard); tight instances that are not hard;
    and isolated vertices with f = 0 (hard) or f > 0 (slack).  The prefixes
    are drawn at random, so the components' smallest vertices interleave."""
    rng = random.Random(seed)
    p = rng.choice((2, 3))
    parts = []
    for i in range(rng.randint(2, 6)):
        kind = rng.choice(("hard", "raised", "raised", "moved", "tight", "isolated"))
        prefix = f"{rng.choice('pqrs')}{i}."
        if kind == "isolated":
            vec = rng.choice(((0,) * p, (1,) + (0,) * (p - 1)))
            parts.append((prefix, dp.Hypergraph(["v"]), dp.VectorFunction(p, {"v": vec})))
            continue
        if kind == "tight":
            parts.append((prefix, *tight_instance(rng.randint(8, 16), p)))
            continue
        plan = dp.random_hard_plan(rng.randrange(2**32), max_blocks=rng.randint(1, 8), p=p)
        H, f = dp.make_hard(plan, p, seed=rng.randrange(2**32))
        if kind == "raised":
            for v in rng.sample(sorted(H.vertices), min(H.order, rng.randint(1, 3))):
                vec = list(f[v])
                vec[rng.randrange(p)] += 1
                f = f.with_value(v, vec)
        elif kind == "moved":
            v = rng.choice(sorted(u for u in H.vertices if any(f[u])))
            vec = list(f[v])
            j = rng.choice([j for j, x in enumerate(vec) if x])
            vec[j] -= 1
            vec[(j + 1) % p] += 1
            f = f.with_value(v, vec)
        parts.append((prefix, H, f))
    return disjoint_union(parts)


def reference_components(H: dp.Hypergraph) -> list[frozenset[str]]:
    """Reference: the hyperedge depth-first search that `structure.components`
    ran before it read the skeleton search's blocks."""
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


def reference_random_hypergraph(
    n: int, m: int, max_arity: int = 3, max_mult: int = 2, seed: int = 0, connected: bool = False
) -> dp.Hypergraph:
    """Reference: `random_hypergraph` as the validating constructor builds
    it, joining each component to the union of the earlier ones by
    re-sorting that union after every join."""
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(1, n + 1)]
    edges: dict[str, frozenset[str]] = {}
    mult: dict[frozenset[str], int] = {}
    eid = 0
    if n >= 2:
        for _ in range(4 * m):
            if len(edges) >= m:
                break
            q = rng.randint(2, min(max_arity, n))
            members = frozenset(rng.sample(vs, q))
            if q == 2 and mult.get(members, 0) >= max_mult:
                continue
            eid += 1
            edges[f"e{eid}"] = members
            if q == 2:
                mult[members] = mult.get(members, 0) + 1
    H = dp.Hypergraph(vs, edges)
    if connected and n >= 2:
        first, *rest = reference_components(H)
        joined = sorted(first)
        for comp in rest:
            members = sorted(comp)
            a = rng.choice(joined)
            b = rng.choice(members)
            eid += 1
            edges[f"e{eid}"] = frozenset((a, b))
            joined = sorted(joined + members)
        H = dp.Hypergraph(vs, edges)
    return H


def reference_peel_order(H: dp.Hypergraph, h: dict[str, int]) -> tuple[tuple[str, ...], frozenset[str]]:
    """Reference: repeatedly remove the smallest vertex whose degree in the
    subhypergraph induced by the vertices left is below h; the removal order
    and the vertices left when none can go."""
    alive = set(H.vertices)
    order: list[str] = []
    while True:
        G = H.induced(alive)
        ready = [v for v in alive if G.degree(v) < h[v]]
        if not ready:
            return tuple(order), frozenset(alive)
        v = min(ready)
        alive.remove(v)
        order.append(v)


def reference_edges_at(H: dp.Hypergraph, v: str) -> tuple[str, ...]:
    """Reference: the ids, in `edge_ids` order, of the edges whose incidence
    set holds v, read from the incidence sets and not from the edge index."""
    return tuple(e for e in H.edge_ids if v in H.incidence(e))


def reference_multiplicity(H: dp.Hypergraph, u: str, v: str) -> int:
    """Reference: the paper's mu(u, v), the number of ordinary edges with incidence set {u, v}."""
    return sum(1 for m in H.edges().values() if m == {u, v})


def reference_reduce_pair(
    H: dp.Hypergraph, f: dp.VectorFunction, z: str, j: int
) -> tuple[dp.Hypergraph, dp.VectorFunction]:
    """Reference: the paper's reduction on whole values, H / z with
    f_j(v) lowered by mu(z, v) and clamped at 0."""
    H2 = H.shrink_away(z)
    values = {}
    for v in H2.vertices:
        vec = list(f[v])
        vec[j - 1] = max(0, vec[j - 1] - reference_multiplicity(H, z, v))
        values[v] = tuple(vec)
    return H2, dp.VectorFunction(f.p, values)


def reference_verify_partition(H: dp.Hypergraph, f: dp.VectorFunction, P: dict[str, int]) -> bool:
    """Reference: P is total on V(H) with classes in 1..p, and each class,
    copied with `induced`, peels as strictly f_i-degenerate on its own."""
    if set(P) != set(H.vertices):
        return False
    if any(not 1 <= i <= f.p for i in P.values()):
        return False
    for i in range(1, f.p + 1):
        X = frozenset(v for v, c in P.items() if c == i)
        if not dp.is_strictly_degenerate(H.induced(X), {v: f[v][i - 1] for v in X}):
            return False
    return True


def reference_partition_weight(H: dp.Hypergraph, f: dp.VectorFunction, P: dict[str, int]) -> int:
    """Reference: W = sum over classes of the class copy's edge count
    minus the sum of f_i on the class."""
    W = 0
    for i in range(1, f.p + 1):
        X = frozenset(v for v, c in P.items() if c == i)
        Hi = H.induced(X)
        W += Hi.size - sum(f[v][i - 1] for v in X)
    return W


def reference_enforce_degree_bounds(
    H: dp.Hypergraph, f: dp.VectorFunction, P: dict[str, int], trace: list[int] | None = None
) -> dict[str, int]:
    """Reference: before every move, rescan the vertices in name order for
    the first v with d_{H_i}(v) > f_i(v), counting each class degree from
    the edges at v, and move v to the smallest class j != i with
    d_{H_j + v}(v) < f_j(v); append the recomputed weight after each move."""

    def class_degree(v, c):
        return sum(1 for e in H.edges_at(v) if all(u == v or P[u] == c for u in H.incidence(e)))

    def find_violation():
        for v in sorted(P):
            i = P[v]
            if class_degree(v, i) <= f[v][i - 1]:
                continue
            for j in range(1, f.p + 1):
                if j != i and class_degree(v, j) < f[v][j - 1]:
                    return v, j
            raise AssertionError("no target class despite degree hypothesis")
        return None

    if not reference_verify_partition(H, f, P):
        raise ValueError("enforce_degree_bounds expects a valid partition")
    for v in sorted(H.vertices):
        if f.sum_at(v) < H.degree(v):
            raise ValueError(f"degree hypothesis violated at {v!r}")
    P = dict(P)
    while True:
        move = find_violation()
        if move is None:
            return P
        v, j = move
        P[v] = j
        if trace is not None:
            trace.append(reference_partition_weight(H, f, P))


def tight_instance(n: int, p: int = 3) -> tuple[dp.Hypergraph, dp.VectorFunction]:
    """Seeded connected n-vertex instance with sum f = d everywhere, not hard.

    A vertex in a 3-edge that separates nothing gets two non-zero
    coordinates, so its block is no base block and the pair is not hard.
    """
    rng = random.Random(n)
    H = dp.random_hypergraph(n, 2 * n, max_arity=3, seed=n, connected=True)
    sep = dp.separating_vertices(H)
    anchor = min(
        v
        for v in H.vertices - sep
        if H.degree(v) >= 2 and any(len(H.incidence(e)) == 3 for e in H.edges_at(v))
    )
    values = {}
    for v in sorted(H.vertices):
        d = H.degree(v) - 2 if v == anchor else H.degree(v)
        vec = [0] * p
        for _ in range(d):
            vec[rng.randrange(p)] += 1
        if v == anchor:
            vec[0] += 1
            vec[1] += 1
        values[v] = tuple(vec)
    return H, dp.VectorFunction(p, values)


def refinement_instances(seeds: int):
    """Connected random instances for enforce_degree_bounds: f = (k, k)
    with k = ceil(Delta / 2) on 7 vertices and 10 edges for each seed below
    seeds, then f = (k1, Delta - k1) for every 0 < k1 < Delta on 12 vertices
    and 24 edges, where about a third of the partitions need moves.
    """
    for seed in range(seeds):
        H = dp.random_hypergraph(7, 10, seed=seed, connected=True)
        k = max(1, (H.max_degree() + 1) // 2)
        yield H, dp.VectorFunction.constant(H.vertices, (k, k))
    for seed in range(60):
        H = dp.random_hypergraph(12, 24, seed=seed, connected=True)
        D = H.max_degree()
        for k1 in range(1, D):
            yield H, dp.VectorFunction.constant(H.vertices, (k1, D - k1))


def layered_wheel_instance() -> dp.Hypergraph:
    """11-vertex hypergraph with maximum degree 6: a centre joined to an
    inner 4-cycle layer, an outer layer, two pendant-side vertices, and
    three hyperedges covering the shaded regions."""
    verts = ["v1", "v2", "v3", "w1", "w2", "w3", "w4", "u1", "u2", "u3", "u4"]
    pairs = [
        ("v1", "w1"), ("v1", "w2"), ("v1", "w3"), ("v1", "w4"),
        ("v2", "u1"), ("v2", "u2"), ("v2", "u3"),
        ("v3", "u1"), ("v3", "u3"), ("v3", "u4"),
        ("u1", "u4"), ("u1", "w1"), ("u1", "w2"),
        ("u2", "u3"), ("u2", "w2"), ("u2", "w3"),
        ("u3", "w3"), ("u3", "w4"),
        ("u4", "w4"), ("u4", "w1"),
    ]
    edges: dict[str, tuple[str, ...]] = {f"e{i}": ab for i, ab in enumerate(pairs, 1)}
    edges["h1"] = ("v2", "u2", "u1")
    edges["h2"] = ("v3", "u4", "u3")
    edges["h3"] = ("v1", "w1", "w2", "w3", "w4")
    return dp.Hypergraph(verts, edges)


def petersen() -> dp.Hypergraph:
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    edges = {f"e{k}": ab for k, ab in enumerate(outer + inner + spokes, 1)}
    verts = [v for ab in edges.values() for v in ab]
    return dp.Hypergraph(set(verts), edges)


# -- reference instance reader --------------------------------------------
#
# The instance reader as it was before it read in one pass: a records list
# from the block splitter, then one check per record, and the validating
# Hypergraph and VectorFunction constructors.  Copied with its splitter and
# integer reader, renamed, so that it shares no parsing code with the reader
# under test.


def reference_parse_instance(text: str) -> Instance:
    (p,), records = _reference_one_block(text, "hg <p>")
    vertices: dict[str, tuple[int, ...] | None] = {}
    lists: dict[str, set[str]] = {}
    edges: dict[str, frozenset[str]] = {}
    for line_no, tok in records:
        kind = tok[0]
        if kind == "v":
            if len(tok) < 2:
                raise ParseError(line_no, "vertex line needs a name")
            name = tok[1]
            if name in vertices:
                raise ParseError(line_no, f"duplicate vertex {name!r}")
            vals = tok[2:]
            if len(vals) != p:
                raise ParseError(line_no, f"expected {p} values for vertex {name!r}, got {len(vals)}")
            vertices[name] = _reference_ints(line_no, vals) if p else None
        elif kind == "l":
            if p != 0:
                raise ParseError(line_no, "list lines require a 'hg 0' header")
            if len(tok) < 3:
                raise ParseError(line_no, "list line needs a vertex and at least one color")
            name = tok[1]
            if name not in vertices:
                raise ParseError(line_no, f"list for unknown vertex {name!r}")
            if name in lists:
                raise ParseError(line_no, f"duplicate list for {name!r}")
            lists[name] = set(tok[2:])
        elif kind == "e":
            if len(tok) < 4:
                raise ParseError(line_no, "edge line needs a name and at least two vertices")
            name = tok[1]
            if name in edges:
                raise ParseError(line_no, f"duplicate edge {name!r}")
            members = tok[2:]
            mset = frozenset(members)
            if len(mset) != len(members):
                raise ParseError(line_no, f"edge {name!r} repeats a vertex (loop)")
            if not vertices.keys() >= mset:
                unknown = [v for v in members if v not in vertices]
                raise ParseError(line_no, f"edge {name!r} mentions unknown vertices {unknown}")
            edges[name] = mset
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")
    if lists and len(lists) != len(vertices):  # every listed vertex is known
        line_no = next(line_no for line_no, tok in records if tok[0] == "v" and tok[1] not in lists)
        raise ParseError(line_no, f"vertices without lists: {sorted(vertices.keys() - lists.keys())}")
    H = dp.Hypergraph(vertices, edges)
    f = dp.VectorFunction(p, vertices) if p else None
    return Instance(H, p, f, lists or None)


def _reference_split(text: str, header: str) -> list[tuple[int, tuple[int, ...], list[tuple[int, list[str]]]]]:
    """(line, numbers, [(line, words) of its records]) for each header line;
    '#' starts a comment."""
    word, *params = header.split()
    blocks: list = []
    records = None
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.partition("#")[0] for raw in lines]
    for line_no, tok in enumerate(map(str.split, lines), 1):
        if not tok:
            continue
        if tok[0] == word:
            if len(tok) != 1 + len(params):
                raise ParseError(line_no, f"header must be {header!r}")
            records = []
            blocks.append((line_no, _reference_ints(line_no, tok[1:]), records))
        elif records is None:
            raise ParseError(line_no, f"missing {header!r} header")
        else:
            records.append((line_no, tok))
    if not blocks:
        raise ParseError(0, f"missing {header!r} header")
    return blocks


def _reference_one_block(text: str, header: str) -> tuple[tuple[int, ...], list[tuple[int, list[str]]]]:
    (_, args, records), *more = _reference_split(text, header)
    if more:
        raise ParseError(more[0][0], "duplicate header")
    return args, records


def _reference_ints(line_no: int, words: list[str]) -> tuple[int, ...]:
    """ASCII decimals; split() yields no empty word, so checking the join checks each."""
    joined = "".join(words)
    if not (joined.isascii() and joined.isdigit()) and words:
        bad = next(w for w in words if not (w.isascii() and w.isdigit()))
        raise ParseError(line_no, f"expected a non-negative integer, got {bad!r}")
    return tuple(map(int, words))


def reference_emit_instance(
    H: dp.Hypergraph,
    f: dp.VectorFunction | None = None,
    lists: dict[str, set[str]] | None = None,
) -> str:
    """Reference: the instance text built line by line, each vector's text
    written anew at every vertex."""
    if f is not None and lists is not None:
        raise ValueError("an instance carries either f-values or lists, not both")
    if f is not None:
        _check_domain(H, f)
    if lists is not None:
        _check_lists(H, lists)
        empty = [v for v, lst in lists.items() if not lst]
        if empty:
            raise ValueError(f"empty list at {min(empty)!r}")
    _check_names(itertools.chain(H.vertices, H.edge_ids, *(lists or {}).values()))
    p = f.p if f is not None else 0
    out = [f"hg {p}"]
    for v in sorted(H.vertices):
        if f is not None:
            out.append("v " + v + " " + " ".join(str(x) for x in f[v]))
        else:
            out.append("v " + v)
    if lists is not None:
        for v in sorted(lists):
            out.append("l " + v + " " + " ".join(sorted(lists[v])))
    for e in H.edge_ids:
        out.append("e " + e + " " + " ".join(sorted(H.incidence(e))))
    return "\n".join(out) + "\n"

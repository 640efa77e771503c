"""Seeded request generators for the three benchmark workloads.

Each generator turns a seed into a fixed list of requests: one instance
file's text, the CLI command to run on it, the exit code known by
construction, and the instance in plain dicts for the answer checker.
The same seed always gives the same requests.

- tight: random connected multihypergraphs with sum f = d at every vertex.
  One vertex that lies in a 3-edge and separates nothing gets f with two
  non-zero coordinates; its block can then be no base block, so the pair
  is not hard and a partition exists.
- hard: make_hard pairs built from balanced merge plans; certificates.
- slack: raised hard pairs, list colouring with a few spare colours, and
  refine-degrees with constant (k1, k2), k1 + k2 = max degree; every one
  has sum f > d at some vertex of each component, so each is partitionable.

The library is imported inside the functions so that each benchmark
set-up uses the copy of degenpart it has just imported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (n, requests) rungs, chosen so that in a pass of over 100 requests p50
# and p90 of the per-request times each fall inside a rung, not on the
# boundary between two, and a pass takes a few seconds.
TIGHT_LADDER = ((12, 30), (16, 45), (24, 20), (32, 15), (80, 1))
# (base blocks, requests) rungs of make_hard plans.
HARD_LADDER = ((12, 44), (30, 52), (80, 18), (250, 5), (1000, 1))
# (kind, size, requests): raised hard pairs are sized in base blocks,
# the random instances in vertices.  The raised pairs' times vary most
# from instance to instance, so they sit above p90, which falls among the
# 40 n = 32 instances; p50 falls among the n = 24 ones.
SLACK_MIX = (
    ("list-color", 16, 20),
    ("refine-degrees", 16, 20),
    ("list-color", 24, 22),
    ("refine-degrees", 24, 22),
    ("list-color", 32, 20),
    ("refine-degrees", 32, 20),
    ("raised", 10, 8),
)
# The number of parts p sets much of a request's cost, so each rung takes
# its p in turn from these cycles instead of at random: every seed then
# has the same mix of p, and a rung of one request always has the middle p.
TIGHT_P = (3, 2, 5)
HARD_P = (4, 2, 6, 3, 5)
RAISED_P = (3, 2, 4)


@dataclass(frozen=True, eq=False)
class Request:
    """One CLI request and what the checker needs to judge its answer."""

    command: str
    text: str
    expect_exit: int  # 0: a partition or colouring, 2: certificates
    edges: dict[str, tuple[str, ...]]
    f: dict[str, tuple[int, ...]] | None
    lists: dict[str, tuple[str, ...]] | None
    useful: int  # reductions a solved instance needs: n minus its components

    @property
    def vertices(self) -> list[str]:
        return sorted(self.f if self.f is not None else self.lists)


def _split(rng: random.Random, d: int, p: int) -> list[int]:
    vec = [0] * p
    for _ in range(d):
        vec[rng.randrange(p)] += 1
    return vec


def _plain_edges(H) -> dict[str, tuple[str, ...]]:
    return {e: tuple(sorted(H.incidence(e))) for e in H.edge_ids}


def _connected_without(vertices, edges, z: str) -> bool:
    """Whether the hypergraph stays connected once z is shrunk away."""
    rest = [v for v in vertices if v != z]
    adj: dict[str, set[str]] = {v: set() for v in rest}
    for m in edges.values():
        kept = [v for v in m if v != z]
        if len(kept) >= 2:
            for v in kept:
                adj[v].update(kept)
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        for u in adj[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == len(rest)


def _random_connected(rng: random.Random, n: int, m: int):
    import degenpart as dp

    return dp.random_hypergraph(
        n, m, max_arity=3, max_mult=2, seed=rng.randrange(2**32), connected=True
    )


def _tight(rng: random.Random, n: int, p: int) -> Request:
    import degenpart as dp

    while True:
        H = _random_connected(rng, n, 2 * n)
        edges = _plain_edges(H)
        vs = sorted(H.vertices)
        anchor = next(
            (
                v
                for v in vs
                if H.degree(v) >= 2
                and any(len(edges[e]) == 3 for e in H.edges_at(v))
                and _connected_without(vs, edges, v)
            ),
            None,
        )
        if anchor is not None:
            break
    f = {v: tuple(_split(rng, H.degree(v), p)) for v in vs}
    vec = _split(rng, H.degree(anchor) - 2, p)
    for j in rng.sample(range(p), 2):
        vec[j] += 1
    f[anchor] = tuple(vec)
    text = dp.emit_instance(H, f=dp.VectorFunction(p, f))
    return Request("partition", text, 0, edges, f, None, n - 1)


def _balanced(parts: list):
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return ("merge", _balanced(parts[:mid]), _balanced(parts[mid:]))


def _hard_pair(rng: random.Random, nblocks: int, p: int):
    """make_hard on a balanced plan of nblocks random base blocks."""
    import degenpart as dp

    bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=p) for _ in range(nblocks)]
    return dp.make_hard(_balanced(bases), p, seed=rng.randrange(2**32))


def _hard(rng: random.Random, nblocks: int, p: int) -> Request:
    import degenpart as dp

    H, f = _hard_pair(rng, nblocks, p)
    values = dict(f.items())
    return Request("partition", dp.emit_instance(H, f=f), 2, _plain_edges(H), values, None, 0)


def _raised(rng: random.Random, nblocks: int, p: int) -> Request:
    """A hard pair with one coordinate at one vertex raised by 1."""
    import degenpart as dp

    H, f = _hard_pair(rng, nblocks, p)
    v = rng.choice(sorted(H.vertices))
    vec = list(f[v])
    vec[rng.randrange(p)] += 1
    f = f.with_value(v, vec)
    values = dict(f.items())
    return Request("partition", dp.emit_instance(H, f=f), 0, _plain_edges(H), values, None, H.order - 1)


def _list_color(rng: random.Random, n: int) -> Request:
    """Lists of size d(v) from a palette of max degree + 1 colours, a few one larger."""
    import degenpart as dp

    H = _random_connected(rng, n, 2 * n)
    vs = sorted(H.vertices)
    palette = [f"c{i}" for i in range(1, H.max_degree() + 2)]
    spare = set(rng.sample(vs, rng.randint(1, 3)))
    lists = {v: tuple(sorted(rng.sample(palette, H.degree(v) + (v in spare)))) for v in vs}
    text = dp.emit_instance(H, lists={v: set(L) for v, L in lists.items()})
    return Request("list-color", text, 0, _plain_edges(H), None, lists, n - 1)


def _refine(rng: random.Random, n: int) -> Request:
    """Constant (k1, k2) with k1 + k2 = max degree on a non-regular instance."""
    import degenpart as dp

    while True:
        H = _random_connected(rng, n, 2 * n)
        if H.min_degree() < H.max_degree():
            break
    k1 = rng.randint(1, H.max_degree() - 1)
    f = dp.VectorFunction.constant(H.vertices, (k1, H.max_degree() - k1))
    values = dict(f.items())
    return Request("refine-degrees", dp.emit_instance(H, f=f), 0, _plain_edges(H), values, None, n - 1)


def _shuffled(rng: random.Random, requests: list[Request]) -> list[Request]:
    """Spread each rung over the whole pass, so that a slow spell of the
    machine touches every rung alike."""
    rng.shuffle(requests)
    return requests


def tight(seed: int) -> list[Request]:
    rng = random.Random(f"tight/{seed}")
    return _shuffled(rng, [_tight(rng, n, TIGHT_P[j % 3]) for n, count in TIGHT_LADDER for j in range(count)])


def hard(seed: int) -> list[Request]:
    rng = random.Random(f"hard/{seed}")
    return _shuffled(rng, [_hard(rng, nb, HARD_P[j % 5]) for nb, count in HARD_LADDER for j in range(count)])


def slack(seed: int) -> list[Request]:
    rng = random.Random(f"slack/{seed}")
    requests = []
    for kind, size, count in SLACK_MIX:
        for j in range(count):
            if kind == "raised":
                requests.append(_raised(rng, size, RAISED_P[j % 3]))
            else:
                requests.append({"list-color": _list_color, "refine-degrees": _refine}[kind](rng, size))
    return _shuffled(rng, requests)


GENERATORS = {"tight": tight, "hard": hard, "slack": slack}

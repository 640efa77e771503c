"""The instance (H, f): immutable multihypergraph values, vector functions,
their domain rules, and the basic construction operators.

Vertices and edges are named by opaque strings.  Parallel edges are stored
as distinct edge records (shrinking can turn distinct hyperedges into
parallel ordinary edges, so multiplicity counters would not survive the
operators).  A hypergraph's one store step sorts its edges by id; the
library's builders hand it valid incidence sets in any order, and only
outside input passes the constructor's checks.  The index of the edges at
each vertex, which `edges_at`, `degree`, `max_degree`, `min_degree` and
`induced` read, is built on the first such call, once, by `_index`; a
reader that needs only the incidence sets never pays for it.  Operations
return new values, or the value itself when they change nothing.  A
Hypergraph's value never changes: the index is an idempotent cache, so a
Hypergraph stays safe to share between threads.

A VectorFunction gives each vertex a length-p vector of non-negative
integers.  `_check_domain` and `_check_lists`, the one copy of each domain
rule, require f or a list assignment to be given on exactly V(H).
"""

from __future__ import annotations

import itertools
import random
from bisect import insort
from collections import Counter
from typing import Collection, Iterable, Mapping, Sequence


class Hypergraph:
    """A finite multihypergraph: vertex set plus a multiset of edges.

    Every edge is incident to at least two distinct vertices (no loops);
    parallel edges are allowed and kept as separate records, stored in
    sorted-id order: `edge_ids`, `edges()` and `edges_at` all follow it.

    One store step, `_store`, sets every field and sorts the edges.  The
    per-vertex edge index is built by `_index` on first use, once, and
    kept: an idempotent cache, so a Hypergraph stays safe to share between
    threads.  The constructor checks outside input and then stores it; the
    library's own builders call `_of` with valid parts.
    """

    __slots__ = ("_vertices", "_incidence", "_at")

    def __init__(self, vertices: Iterable[str], edges: Mapping[str, Iterable[str]] = ()):
        vs = frozenset(vertices)
        incidence: dict[str, frozenset[str]] = {}
        for eid in sorted(edges):
            members = edges[eid]
            if isinstance(members, frozenset):  # a set cannot repeat a vertex
                mset = members
            else:
                members = tuple(members)
                mset = frozenset(members)
                if len(mset) != len(members):
                    raise ValueError(f"edge {eid!r} repeats a vertex (loop)")
            if len(mset) < 2:
                raise ValueError(f"edge {eid!r} has arity {len(mset)} < 2")
            if not mset <= vs:
                raise ValueError(f"edge {eid!r} mentions unknown vertices {sorted(mset - vs)}")
            incidence[eid] = mset
        self._store(vs, incidence)

    def _store(self, vertices: frozenset[str], incidence: dict[str, frozenset[str]]) -> "Hypergraph":
        """Set every field from parts taken as given, in any edge order, and
        return self: the edges go into sorted-id order.  The edge index is
        not built here but on first use, once (`_index`), so a reader that
        needs only the incidence sets never pays for it.

        The caller guarantees what the constructor checks: each incidence
        set is a frozenset of two or more vertices of `vertices`.
        """
        if list(incidence) != (ids := sorted(incidence)):
            incidence = {e: incidence[e] for e in ids}
        self._vertices = vertices
        self._incidence = incidence
        self._at = None
        return self

    def _index(self) -> dict[str, tuple[str, ...]]:
        """Build, keep and return the edge ids at each vertex, in sorted-id
        order: the one index builder.  Its readers call it while `_at` is
        None (or empty, for no vertices, which costs nothing to rebuild).
        Two threads that both find it missing build equal indexes, and
        either one may stay, so no lock is needed."""
        lists: dict[str, list[str]] = {v: [] for v in self._vertices}
        for e, m in self._incidence.items():
            for v in m:
                lists[v].append(e)
        at = self._at = {v: tuple(es) for v, es in lists.items()}
        return at

    @classmethod
    def _of(cls, vertices: frozenset[str], incidence: dict[str, frozenset[str]]) -> "Hypergraph":
        """The hypergraph of checked parts in any edge order, through the store step alone."""
        return cls.__new__(cls)._store(vertices, incidence)

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> frozenset[str]:
        return self._vertices

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(self._incidence)

    def incidence(self, eid: str) -> frozenset[str]:
        return self._incidence[eid]

    def edges(self) -> dict[str, frozenset[str]]:
        """Edge id -> incidence set, as a fresh dict in edge_ids order."""
        return dict(self._incidence)

    @property
    def order(self) -> int:
        return len(self._vertices)

    @property
    def size(self) -> int:
        return len(self._incidence)

    @property
    def is_empty(self) -> bool:
        return not self._vertices

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._vertices == other._vertices and self._incidence == other._incidence

    def __hash__(self) -> int:
        return hash((self._vertices, tuple(self._incidence.items())))

    def __repr__(self) -> str:
        return f"Hypergraph({len(self._vertices)} vertices, {len(self._incidence)} edges)"

    # -- degrees --------------------------------------------------------

    def edges_at(self, v: str) -> tuple[str, ...]:
        try:
            return (self._at or self._index())[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def degree(self, v: str) -> int:
        """Number of edges incident to v, parallel edges counted separately."""
        return len(self.edges_at(v))

    def max_degree(self) -> int:
        return max(map(len, (self._at or self._index()).values()), default=0)

    def min_degree(self) -> int:
        """Kept for the benchmark's workload generator, its one caller."""
        return min(map(len, (self._at or self._index()).values()), default=0)

    # -- restriction operators ------------------------------------------

    def induced(self, X: Iterable[str]) -> "Hypergraph":
        """Subhypergraph on X keeping edges whose whole incidence set lies in X,
        read from the edges at X; H itself when X is the whole vertex set."""
        X = frozenset(X)
        if X == self._vertices:
            return self
        if not X <= self._vertices:
            raise ValueError(f"induced: {sorted(X - self._vertices)} are not vertices")
        at = self._at or self._index()
        met = {e for v in X for e in at[v]}
        return Hypergraph._of(X, {e: m for e in met if (m := self._incidence[e]) <= X})

    def shrink(self, X: Iterable[str]) -> "Hypergraph":
        """Shrink to X: keep edges meeting X in >= 2 vertices, truncated to X;
        H itself when X is the whole vertex set."""
        X = frozenset(X)
        if X == self._vertices:
            return self
        if not X <= self._vertices:
            raise ValueError(f"shrink: {sorted(X - self._vertices)} are not vertices")
        return Hypergraph._of(X, {e: cut for e, m in self._incidence.items() if len(cut := m & X) >= 2})

    def shrink_away(self, X: Iterable[str] | str) -> "Hypergraph":
        """H / X, i.e. the hypergraph shrunk to the complement of X."""
        if isinstance(X, str):
            X = (X,)
        return self.shrink(self._vertices - frozenset(X))


# -- the vector function and the domain rules --------------------------


class VectorFunction:
    """Map from vertices to length-p tuples of non-negative integers.

    One store step, `_store`, sets the fields.  The constructor checks every
    vector and then stores them; `restrict`, `with_value` and the instance
    reader, whose vectors are already checked, call the store step through
    `_of`.
    """

    __slots__ = ("p", "_values")

    def __init__(self, p: int, values: Mapping[str, Sequence[int]]):
        if p < 1:
            raise ValueError(f"vector function needs p >= 1, got {p}")
        self._store(p, {v: _vector(p, v, vec) for v, vec in dict(values).items()})

    def _store(self, p: int, values: dict[str, tuple[int, ...]]) -> "VectorFunction":
        """Set the fields from checked parts, taken as given, and return self."""
        self.p = p
        self._values = values
        return self

    @classmethod
    def _of(cls, p: int, values: dict[str, tuple[int, ...]]) -> "VectorFunction":
        """f of p >= 1 and length-p tuples of non-negative integers, unchecked."""
        return cls.__new__(cls)._store(p, values)

    @classmethod
    def constant(cls, vertices: Iterable[str], vec: Sequence[int]) -> "VectorFunction":
        vec = tuple(vec)
        return cls(len(vec), {v: vec for v in vertices})

    @classmethod
    def from_degrees(cls, H: Hypergraph, j: int, p: int) -> "VectorFunction":
        """f(v) = d_H(v) * e_j (1-based j)."""
        if not 1 <= j <= p:
            raise ValueError(f"coordinate {j} out of range 1..{p}")
        return cls(p, {v: tuple(H.degree(v) if i == j else 0 for i in range(1, p + 1)) for v in H.vertices})

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self._values)

    def __getitem__(self, v: str) -> tuple[int, ...]:
        return self._values[v]

    def items(self):
        return self._values.items()

    def sum_at(self, v: str) -> int:
        return sum(self._values[v])

    def restrict(self, X: Iterable[str]) -> "VectorFunction":
        """f on X; f itself when X is the whole domain."""
        X = frozenset(X)
        if X == self._values.keys():
            return self
        if not X <= self._values.keys():
            raise ValueError(f"restrict: {sorted(X - self._values.keys())} are not in the domain")
        return VectorFunction._of(self.p, {v: self._values[v] for v in X})

    def with_value(self, v: str, vec: Sequence[int]) -> "VectorFunction":
        """f with the vector at v, a vertex of the domain, replaced by vec."""
        if v not in self._values:
            raise ValueError(f"with_value: {v!r} is not in the domain")
        return VectorFunction._of(self.p, {**self._values, v: _vector(self.p, v, vec)})

    def coordinate(self, j: int) -> dict[str, int]:
        """The scalar function f_j (1-based)."""
        if not 1 <= j <= self.p:
            raise ValueError(f"coordinate {j} out of range 1..{self.p}")
        return {v: vec[j - 1] for v, vec in self._values.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorFunction):
            return NotImplemented
        return self.p == other.p and self._values == other._values

    def __repr__(self) -> str:
        return f"VectorFunction(p={self.p}, {len(self._values)} vertices)"


def _vector(p: int, v: str, vec: Sequence[int]) -> tuple[int, ...]:
    """vec as a tuple, checked to be p >= 1 non-negative entries."""
    vec = tuple(vec)
    if len(vec) != p:
        raise ValueError(f"vector at {v!r} has length {len(vec)}, expected {p}")
    if min(vec) < 0:  # p >= 1
        raise ValueError(f"vector at {v!r} has a negative entry")
    return vec


def _check_domain(H: Hypergraph, f: VectorFunction) -> None:
    """ValueError unless f is defined on exactly V(H)."""
    if f._values.keys() != H.vertices:  # a set comparison that builds no set
        raise ValueError("vector function domain does not match the hypergraph")


def _check_lists(H: Hypergraph, L: Mapping[str, set]) -> None:
    """ValueError unless L gives a list to exactly the vertices of H."""
    if set(L) != H.vertices:
        raise ValueError("list assignment domain does not match the hypergraph")


def merge(H1: Hypergraph, v1: str, H2: Hypergraph, v2: str, vstar: str) -> Hypergraph:
    """Glue two disjoint hypergraphs by identifying v1 and v2 as vstar.

    Kept as the paper's merging operation, the reference for make_hard's gluing.
    """
    if H1.vertices & H2.vertices:
        raise ValueError("merge operands share vertices")
    if set(H1.edge_ids) & set(H2.edge_ids):
        raise ValueError("merge operands share edge identifiers")
    if v1 not in H1.vertices or v2 not in H2.vertices:
        raise ValueError("merge points must belong to the respective operands")
    if vstar in (H1.vertices | H2.vertices) - {v1, v2}:
        raise ValueError(f"merged vertex name {vstar!r} collides with an existing vertex")
    vertices = (H1.vertices | H2.vertices | {vstar}) - {v1, v2}
    edges: dict[str, frozenset[str]] = {}
    for H, old in ((H1, v1), (H2, v2)):
        for e, m in H.edges().items():
            edges[e] = (m - {old}) | {vstar} if old in m else m
    return Hypergraph._of(vertices, edges)


# -- stock constructions ------------------------------------------------


def _vnames(n: int) -> list[str]:
    """v1 .. vn: the vertex names of the stock constructions."""
    return [f"v{i}" for i in range(1, n + 1)]


def _enames(members: Iterable[frozenset[str]]) -> dict[str, frozenset[str]]:
    """e1, e2, ...: the edge names of the stock constructions, given to members in order."""
    return {f"e{i}": m for i, m in enumerate(members, start=1)}


def _complete(n: int, q: int) -> tuple[list[str], dict[str, frozenset[str]]]:
    """The named vertices and edges of K_n^q."""
    if n < 2 or not 2 <= q <= n:
        raise ValueError(f"complete_uniform needs n >= 2 and 2 <= q <= n, got n={n}, q={q}")
    vs = _vnames(n)
    return vs, _enames(map(frozenset, itertools.combinations(vs, q)))


def _cycle(n: int) -> tuple[list[str], dict[str, frozenset[str]]]:
    """The named vertices and edges of C_n."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    vs = _vnames(n)
    return vs, _enames(frozenset((vs[i - 1], vs[i % n])) for i in range(1, n + 1))


def _fold(edges: dict[str, frozenset[str]], t: int) -> dict[str, frozenset[str]]:
    """Each edge e replaced by t parallel copies e.1 .. e.t; edges itself when t = 1."""
    if t < 1:
        raise ValueError(f"t_fold needs t >= 1, got {t}")
    if t == 1:
        return edges
    return {f"{e}.{k}": m for e, m in edges.items() for k in range(1, t + 1)}


def complete_uniform(n: int, q: int) -> Hypergraph:
    """The complete q-uniform hypergraph K_n^q (q = 2 gives K_n)."""
    vs, edges = _complete(n, q)
    return Hypergraph._of(frozenset(vs), edges)


def cycle(n: int) -> Hypergraph:
    """The ordinary cycle C_n."""
    vs, edges = _cycle(n)
    return Hypergraph._of(frozenset(vs), edges)


def path(n: int) -> Hypergraph:
    """The path on n vertices (edgeless single vertex for n = 1)."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    vs = _vnames(n)
    return Hypergraph._of(frozenset(vs), _enames(frozenset((vs[i - 1], vs[i])) for i in range(1, n)))


def t_fold(H: Hypergraph, t: int) -> Hypergraph:
    """Replace every edge by t parallel copies (tH)."""
    edges = _fold(H._incidence, t)
    return H if edges is H._incidence else Hypergraph._of(H.vertices, edges)


def random_hypergraph(
    n: int,
    m: int,
    max_arity: int = 3,
    max_mult: int = 2,
    seed: int = 0,
    connected: bool = False,
) -> Hypergraph:
    """Seeded random multihypergraph; deterministic for a fixed argument tuple.

    Ordinary-pair multiplicity stays <= max_mult.  With connected=True the
    components are joined by extra ordinary edges, so the edge count may
    exceed m by at most n - 1.
    """
    if n < 1 or m < 0 or max_arity < 2 or max_mult < 1:
        raise ValueError("random_hypergraph parameter out of range")
    rng = random.Random(seed)
    vs = _vnames(n)
    drawn: list[frozenset[str]] = []  # the edges, named in order by _enames
    mult: dict[frozenset[str], int] = {}
    if n >= 2:
        for _ in range(4 * m):
            if len(drawn) >= m:
                break
            q = rng.randint(2, min(max_arity, n))
            members = frozenset(rng.sample(vs, q))
            if q == 2 and mult.get(members, 0) >= max_mult:
                continue
            drawn.append(members)
            if q == 2:
                mult[members] = mult.get(members, 0) + 1
    H = Hypergraph._of(frozenset(vs), _enames(drawn))
    if connected and n >= 2:
        from .structure import components

        # join each component, by smallest vertex, to the union of the earlier ones
        first, *rest = components(H)
        joined = sorted(first)
        for comp in rest:
            members = sorted(comp)
            a = rng.choice(joined)
            b = rng.choice(members)
            drawn.append(frozenset((a, b)))
            for v in members:
                insort(joined, v)
        if rest:
            H = Hypergraph._of(H.vertices, _enames(drawn))
    return H


# -- shape detection ----------------------------------------------------
#
# Both shape tests read a block as its vertex set and its edge multiset:
# each distinct incidence set mapped to the number of edges on it.


def _complete_shape(vertices: Collection[str], edges: Mapping[frozenset[str], int]) -> tuple[int, int] | None:
    """(t, n) if the vertices and the edge multiset form tK_n; None otherwise.

    tK_n has C(n, 2) distinct pairs as incidence sets, each carrying t edges.
    """
    n = len(vertices)
    # C(n, 2) incidence sets of two or more members are all pairs iff they
    # have n(n - 1) members in all
    if n == 0 or len(edges) != n * (n - 1) // 2 or sum(map(len, edges)) != n * (n - 1):
        return None
    ts = set(edges.values()) or {1}  # K_1 has no pairs
    return (ts.pop(), n) if len(ts) == 1 else None


def _cycle_shape(vertices: Collection[str], edges: Mapping[frozenset[str], int]) -> tuple[int, int] | None:
    """(t, n) if the vertices and the edge multiset of one block form tC_n;
    None otherwise.

    tC_n has n distinct pairs as incidence sets, each carrying t edges.  n
    incidence sets of two or more members are all pairs iff they have 2n
    members in all.  A block of n >= 3 vertices is 2-connected, so each
    vertex lies in two or more of its pairs, and n pairs put each in
    exactly two: the block is a cycle.  So the test counts and walks
    nothing; `t_fold_cycle_parameters` checks that H is one block.
    """
    n = len(vertices)
    if n < 3 or len(edges) != n or sum(map(len, edges)) != 2 * n:
        return None
    ts = set(edges.values())
    return (ts.pop(), n) if len(ts) == 1 else None


def t_fold_complete_parameters(H: Hypergraph) -> tuple[int, int] | None:
    """(t, n) if H = tK_n for some t >= 1, n >= 1; None otherwise."""
    return _complete_shape(H.vertices, Counter(H._incidence.values()))


def t_fold_cycle_parameters(H: Hypergraph) -> tuple[int, int] | None:
    """(t, n) if H = tC_n for some t >= 1, n >= 3; None otherwise."""
    from .structure import _skeleton_forest

    shape = _cycle_shape(H.vertices, Counter(H._incidence.values()))
    if shape is None:
        return None
    forest = _skeleton_forest(H)  # the shape test holds for one block only
    return shape if len(forest) == 1 and len(forest[0]) == 1 else None

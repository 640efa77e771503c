"""Partition construction with certificates, and degree-bounded refinement.

Given f with f_1(v)+...+f_p(v) >= d(v) everywhere, a connected
hypergraph admits a partition into strictly f_i-degenerate classes
exactly when the pair is not one of the hard pairs recognized by
hardpair.is_hard.  The solver is the constructive proof of that theorem,
run on a residual state: the unplaced vertices, the number of unplaced
members of each edge, and the residual f.  The one reduction rule is
_Residual.place: placing z into class j shrinks z away and lowers f_j by
one, clamped at 0, at the other end of every edge left with exactly two
unplaced members.  reduce_pair is one such placement on a fresh residual
of the whole hypergraph.  A partition of the reduction extends by z in
class j whenever f_j(z) > 0, and every vertex v != z keeps sum f >= d.

solve checks the domain and the degree hypothesis once.  A pair with as
much f as degree in all goes first to hardpair.hard_components, whose
strips prove sum f = d wherever they succeed: when every component is
hard, that is the answer, and no degree is read.  Components with
slack go straight to the finisher and need no block structure: one
residual of the whole hypergraph is finished from each slack vertex, in
name order, that is still unplaced, so each such component from its
smallest slack vertex.  hardpair.hard_components then decides every
component of what is left, from one block pass (a pair without slack
was decided first): hard, with a certificate, or handed to the tight
steps.

Slack finisher.  A vertex s with sum f > d keeps that slack through
every placement.  The vertices are placed farthest from s first
(breadth-first distance, then name), each into its largest residual
coordinate, smallest j on ties.  Every vertex but s still has its
breadth-first parent unplaced, hence an edge, hence some f_j > 0; s,
placed last, has one too.  This takes O(p*n + sum |e|).

Tight steps.  On a tight component that is not hard, tight steps place
one non-separating vertex z of the residual at a time into a class j
whose reduction is not hard, until some vertex has slack and the
finisher takes over.  A step prefers a (z, j) where some ordinary
neighbour u has mu(z, u) > f_j(u): the reduction leaves u with slack and
stays connected, so it is not hard without asking is_hard.  Otherwise it
takes the first candidate whose reduce_pair is not hard.  No step is
ever undone.

Verification and refinement.  No edge joins two classes, so
verify_partition peels all classes at once: one hypergraph of the edges
inside a class, each vertex bounded by f at its own class.
enforce_degree_bounds keeps one class-degree table and, after each move,
recomputes the rows of the moved vertex's neighbours only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .degeneracy import is_strictly_degenerate
from .hardpair import HardPairCertificate, hard_components, is_hard
from .hypergraph import Hypergraph, VectorFunction, _check_domain
from .structure import separating_vertices


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Either a full partition or certificates for the stuck components."""

    partition: dict[str, int] | None
    certificates: dict[frozenset[str], HardPairCertificate] | None

    @property
    def partitionable(self) -> bool:
        return self.partition is not None


def reduce_pair(H: Hypergraph, f: VectorFunction, z: str, j: int) -> tuple[Hypergraph, VectorFunction]:
    """The reduction at (z, j): z placed into class j on a fresh residual of H.

    Raises ValueError when f is not defined on exactly V(H), j is outside
    1..p or z is not a vertex of H.
    """
    _check_domain(H, f)
    if not 1 <= j <= f.p:
        raise ValueError(f"class {j} out of range 1..{f.p}")
    r = _Residual(H, f)
    r.place(z, j, {})
    return H.shrink_away(z), VectorFunction(f.p, {v: r.res[v] for v in r.alive})


def solve(H: Hypergraph, f: VectorFunction) -> SolveResult:
    """Partition H into strictly f_i-degenerate classes, or certify failure."""
    _check_domain(H, f)
    # a strip that succeeds proves sum f = d on its component, so a pair
    # with as much f as degree in all is stripped before any degree is read
    decided = None
    if sum(sum(vec) for _, vec in f.items()) == sum(map(len, H._incidence.values())):
        decided = hard_components(H, f)
        if decided and all(decided.values()):
            return SolveResult(None, decided)
    slack = _slack(H, f)
    assignment: dict[str, int] = {}
    certs: dict[frozenset[str], HardPairCertificate] = {}
    tight = H.vertices
    if slack:
        r = _Residual(H, f)
        for s in sorted(slack):
            if s in r.alive:
                r.finish(s, assignment)
        tight = r.alive
    if tight:
        T = H.induced(tight)
        if slack:
            decided = hard_components(T, f.restrict(tight))
        # without slack, sum f = d everywhere, so the pair was decided above
        for comp, cert in decided.items():
            if cert is None:
                _Residual(T.induced(comp), f).tight_steps(assignment)
            else:
                certs[comp] = cert
    if certs:
        return SolveResult(None, certs)
    if not verify_partition(H, f, assignment):
        raise AssertionError("internal error: solver produced an invalid partition")
    return SolveResult(assignment, None)


class _Residual:
    """What is left of H while its vertices are placed; f may hold more
    vertices than H.

    alive holds the unplaced vertices, live[e] the number of unplaced
    members of edge e, and res[v] the residual f at v.  A vertex gains
    slack exactly when a placement finds its coordinate already at 0.
    """

    __slots__ = ("H", "p", "alive", "live", "res")

    def __init__(self, H: Hypergraph, f: VectorFunction):
        self.H = H
        self.p = f.p
        self.alive = set(H.vertices)
        self.live = {e: len(m) for e, m in H._incidence.items()}
        self.res = {v: list(f[v]) for v in H.vertices}

    def _partners(self, z: str):
        """The other unplaced end of each edge at z with exactly two unplaced members."""
        H, live, alive = self.H, self.live, self.alive
        for e in H.edges_at(z):
            if live[e] == 2:
                for u in H.incidence(e):
                    if u != z and u in alive:
                        yield u

    def place(self, z: str, j: int, assignment: dict[str, int]) -> list[str]:
        """Put z into class j; return the vertices that gained slack."""
        res = self.res
        gained = []
        for u in self._partners(z):
            if res[u][j - 1]:
                res[u][j - 1] -= 1
            else:
                gained.append(u)
        for e in self.H.edges_at(z):
            self.live[e] -= 1
        self.alive.remove(z)
        assignment[z] = j
        return gained

    def finish(self, s: str, assignment: dict[str, int]) -> None:
        """Place every unplaced vertex, given s with residual sum f > degree."""
        H, live, alive = self.H, self.live, self.alive
        dist = {s: 0}
        read: set[str] = set()  # an edge read once has given all its members a distance
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for e in H.edges_at(v):
                    if live[e] < 2 or e in read:
                        continue
                    read.add(e)
                    for u in H.incidence(e):
                        if u in alive and u not in dist:
                            dist[u] = dist[v] + 1
                            nxt.append(u)
            frontier = nxt
        for v in sorted(dist, key=lambda v: (-dist[v], v)):
            r = self.res[v]
            self.place(v, r.index(max(r)) + 1, assignment)

    def tight_steps(self, assignment: dict[str, int]) -> None:
        """Place a tight, connected, non-hard residual into classes."""
        while True:
            z, j = self._tight_step()
            gained = self.place(z, j, assignment)
            if gained:
                self.finish(min(gained), assignment)
                return

    def _tight_step(self) -> tuple[str, int]:
        """A placement whose reduction is connected and not hard."""
        res = self.res
        Hr = self.H.shrink(self.alive)
        sep = separating_vertices(Hr)
        candidates = []
        for z in sorted(self.alive - sep):
            mu = Counter(self._partners(z)).items()
            for j in sorted((j for j, x in enumerate(res[z], 1) if x), key=lambda j: (-res[z][j - 1], j)):
                if any(m > res[u][j - 1] for u, m in mu):
                    return z, j
                candidates.append((z, j))
        fr = VectorFunction(self.p, {v: res[v] for v in self.alive})
        for z, j in candidates:
            if is_hard(*reduce_pair(Hr, fr, z, j)) is None:
                return z, j
        raise AssertionError("internal error: every reduction of a non-hard tight component is hard")


def verify_partition(H: Hypergraph, f: VectorFunction, P: dict[str, int]) -> bool:
    """True iff P is total on V(H) and class i is strictly f_i-degenerate.

    Raises ValueError when f is not defined on exactly V(H).
    """
    _check_domain(H, f)
    if set(P) != set(H.vertices) or not all(1 <= i <= f.p for i in P.values()):
        return False
    # the constructor, not Hypergraph._of: bench/spans.py counts Hypergraph.__init__ calls
    classes = Hypergraph(H.vertices, _inside_edges(H, P))
    return bool(is_strictly_degenerate(classes, {v: f[v][i - 1] for v, i in P.items()}))


def partition_weight(H: Hypergraph, f: VectorFunction, P: dict[str, int]) -> int:
    """W = sum over classes of (edge count minus sum of f_i on the class)."""
    _check_domain(H, f)
    if set(P) != set(H.vertices) or not all(1 <= i <= f.p for i in P.values()):
        raise ValueError("partition_weight expects a total assignment into classes 1..p")
    return len(_inside_edges(H, P)) - sum(f[v][i - 1] for v, i in P.items())


def _slack(H: Hypergraph, f: VectorFunction) -> set[str]:
    """The vertices with sum f > degree; ValueError naming the smallest vertex with sum f < degree."""
    excess = {v: sum(vec) - H.degree(v) for v, vec in f.items()}
    if min(excess.values(), default=0) < 0:
        v = min(v for v, x in excess.items() if x < 0)
        raise ValueError(f"degree hypothesis violated at {v!r}: sum f_i = {f.sum_at(v)} < degree {H.degree(v)}")
    return {v for v, x in excess.items() if x}


def _inside_edges(H: Hypergraph, P: dict[str, int]) -> dict[str, frozenset[str]]:
    """The edges whose members all lie in one class."""
    return {e: m for e, m in H.edges().items() if len({P[v] for v in m}) == 1}


def enforce_degree_bounds(
    H: Hypergraph,
    f: VectorFunction,
    P: dict[str, int],
    trace: list[int] | None = None,
) -> dict[str, int]:
    """Shift vertices until every v in class i has d_{H_i}(v) <= f_i(v).

    Each move takes the smallest violating vertex v to the smallest class
    j with d_{H_j + v}(v) < f_j(v), which exists because sum f_i >= d.
    The weight partition_weight strictly drops every move, so this
    terminates.  If trace is a list, the weight after each move is
    appended to it.
    """
    if not verify_partition(H, f, P):
        raise ValueError("enforce_degree_bounds expects a valid partition")
    _slack(H, f)
    P = dict(P)

    def row(v: str) -> list[int]:
        """v's class degrees: entry c - 1 counts the edges at v whose other members lie in class c."""
        r = [0] * f.p
        for e in H.edges_at(v):
            classes = {P[u] for u in H.incidence(e) if u != v}
            if len(classes) == 1:
                r[classes.pop() - 1] += 1
        return r

    deg = {v: row(v) for v in H.vertices}
    while True:
        v = min((v for v in H.vertices if deg[v][P[v] - 1] > f[v][P[v] - 1]), default=None)
        if v is None:
            return P
        P[v] = next(j for j in range(1, f.p + 1) if deg[v][j - 1] < f[v][j - 1])
        for u in {u for e in H.edges_at(v) for u in H.incidence(e)} - {v}:
            deg[u] = row(u)  # a move changes only the rows of v's neighbours
        if trace is not None:
            trace.append(partition_weight(H, f, P))

"""Coloring applications of the partition solver.

List coloring, degree-constrained partitions, point-partition numbers and
list colorings with degenerate classes all reduce to partitioning into
strictly f_i-degenerate parts for a suitable vector function: one
coordinate per color, with f_i(v) = s when color i is on v's list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .degeneracy import col, is_strictly_degenerate
from .hardpair import HardPairCertificate
from .hypergraph import (Hypergraph, VectorFunction, _check_lists, _complete_shape, _cycle_shape,
                         t_fold_complete_parameters, t_fold_cycle_parameters)
from .oracle import brute_partitionable
from .partition import enforce_degree_bounds, solve
from .structure import RootedBlock, block_forest, components

Color = str | int

_ADVERSARY_BUDGET = 200_000  # list assignments is_k_choosable tries per stuck component
_CHI_MAX_ORDER = 10  # largest order chi_and_chi_list accepts


@dataclass(frozen=True, eq=False)
class ColoringResult:
    """Either a proper coloring or certificates for the stuck components."""

    coloring: dict[str, Color] | None
    certificates: dict[frozenset[str], HardPairCertificate] | None

    @property
    def colorable(self) -> bool:
        return self.coloring is not None


def list_to_vector(
    H: Hypergraph, L: Mapping[str, set], s: int = 1
) -> tuple[VectorFunction, tuple[Color, ...]]:
    """Vector function with one coordinate per color: f_i(v) = s iff color i on L(v).

    Colors are numbered 1..p in sorted order; the order is returned so a
    partition can be translated back to colors.
    """
    _check_lists(H, L)
    universe = sorted({c for lst in L.values() for c in lst}, key=lambda c: (str(type(c)), c))
    if not universe:
        raise ValueError("empty color universe")
    p = len(universe)
    values = {
        v: tuple(s if universe[i] in L[v] else 0 for i in range(p)) for v in H.vertices
    }
    return VectorFunction(p, values), tuple(universe)


def is_Lxs_choosable(H: Hypergraph, L: Mapping[str, set], s: int) -> ColoringResult:
    """Color from the lists with every color class strictly s-degenerate."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    f, universe = list_to_vector(H, L, s)
    for v in sorted(H.vertices):
        if f.sum_at(v) < H.degree(v):
            raise ValueError(
                f"list too small at {v!r}: s*|L| = {f.sum_at(v)} < degree {H.degree(v)}"
            )
    res = solve(H, f)
    if res.partition is not None:
        return ColoringResult({v: universe[i - 1] for v, i in res.partition.items()}, None)
    return ColoringResult(None, res.certificates)


def list_color(H: Hypergraph, L: Mapping[str, set]) -> ColoringResult:
    """Proper coloring from the lists (independent color classes), or certificates."""
    return is_Lxs_choosable(H, L, 1)


def is_proper(H: Hypergraph, coloring: Mapping[str, Color]) -> bool:
    """No edge has all its vertices the same color."""
    return all(len({coloring[v] for v in m}) > 1 for m in H.edges().values())


def degree_constrained_partition(H: Hypergraph, ks: tuple[int, ...]) -> dict[str, int]:
    """Partition with col(H_i) <= k_i and max degree of H_i <= k_i.

    Requires a connected H that is neither a uniformly multiplied complete
    graph nor a uniformly multiplied odd cycle, and sum(ks) at least the
    maximum degree.
    """
    ks = tuple(ks)
    if H.is_empty or len(components(H)) != 1:
        raise ValueError("degree_constrained_partition expects a connected non-empty hypergraph")
    if len(ks) < 2 or any(k < 1 for k in ks):
        raise ValueError("need p >= 2 classes with all bounds >= 1")
    if sum(ks) < H.max_degree():
        raise ValueError(f"sum of bounds {sum(ks)} below maximum degree {H.max_degree()}")
    params = t_fold_complete_parameters(H)
    if params is not None:
        raise ValueError(f"excluded shape: {params[0]}-fold complete graph on {params[1]} vertices")
    params = t_fold_cycle_parameters(H)
    if params is not None and params[1] % 2 == 1:
        raise ValueError(f"excluded shape: {params[0]}-fold odd cycle of length {params[1]}")
    f = VectorFunction.constant(H.vertices, ks)
    res = solve(H, f)
    if res.partition is None:
        raise AssertionError("internal error: admissible instance classified non-partitionable")
    return enforce_degree_bounds(H, f, res.partition)


def point_partition_number(H: Hypergraph, s: int, strict: bool = True) -> int:
    """Fewest classes whose parts are all degenerate at level s.

    strict=True counts strictly s-degenerate classes; strict=False uses
    the convention where "s-degenerate" means strictly (s+1)-degenerate,
    so the two differ by a shift of the level.

    p = 1 is decided by peeling, and every p with p * level >= max degree
    by `solve`.  Each p below that goes to the brute-force oracle; when it
    refuses one, ValueError gives the proven bounds, never a value:
    "alpha: <p> <= alpha <= <upper>; ..." ending with the oracle's reason.
    """
    if s < (1 if strict else 0):
        raise ValueError("degeneracy level out of range")
    level = s if strict else s + 1
    if H.is_empty:
        return 0
    # one class: H itself must be strictly level-degenerate, which peeling decides
    if is_strictly_degenerate(H, dict.fromkeys(H.vertices, level)):
        return 1
    solved = -(-H.max_degree() // level)  # the least p with p * level >= max degree
    for p in range(2, solved):
        try:
            verdict = brute_partitionable(H, VectorFunction.constant(H.vertices, (level,) * p))
        except ValueError as exc:
            upper = _least_partitioned(H, level, solved)
            raise ValueError(f"alpha: {p} <= alpha <= {upper}; the exact value is not proven: {exc}") from None
        if verdict.partitionable:
            return p
    return _least_partitioned(H, level, max(solved, 2))


def _least_partitioned(H: Hypergraph, level: int, start: int) -> int:
    """The least p >= start at which `solve` splits H into p strictly
    level-degenerate classes.  With start * level >= max degree the search
    ends by max degree // level + 1, where every vertex has slack."""
    return next(p for p in itertools.count(start)
                if solve(H, VectorFunction.constant(H.vertices, (level,) * p)).partitionable)


# -- choosability -------------------------------------------------------


def chromatic_number(H: Hypergraph) -> int:
    """Least number of colors with no edge monochromatic (0 for empty H)."""
    if H.is_empty:
        return 0
    for k in itertools.count(1):
        if _colorable_with(H, {v: set(range(1, k + 1)) for v in H.vertices}):
            return k
    raise AssertionError("unreachable")


def _colorable_with(H: Hypergraph, L: Mapping[str, set]) -> bool:
    """Backtracking check for a proper coloring choosing from the lists."""
    vs = sorted(H.vertices, key=lambda v: (len(L[v]), v))
    colors = [sorted(L[v], key=str) for v in vs]
    # the distinct incidence sets at each vertex: parallel edges add nothing
    at = {v: tuple(dict.fromkeys(map(H.incidence, H.edges_at(v)))) for v in vs}
    coloring: dict[str, Color] = {}

    def ok(v: str, c: Color) -> bool:
        """No edge at v has every other member colored c."""
        for m in at[v]:
            for u in m:
                if u != v and coloring.get(u) != c:
                    break
            else:
                return False
        return True

    def go(i: int) -> bool:
        if i == len(vs):
            return True
        v = vs[i]
        for c in colors[i]:
            if ok(v, c):
                coloring[v] = c
                if go(i + 1):
                    return True
                del coloring[v]
        return False

    return go(0)


def chi_and_chi_list(H: Hypergraph) -> tuple[int, int]:
    """Exact chromatic and list-chromatic numbers for instances of at most
    ten vertices.

    The list-chromatic number is found by probing k-choosability upward
    from the chromatic number; the coloring number is an upper bound.
    """
    if H.order > _CHI_MAX_ORDER:
        raise ValueError(f"chi_and_chi_list guard: {H.order} > {_CHI_MAX_ORDER} vertices")
    if H.is_empty:
        return 0, 0
    chi = chromatic_number(H)
    for k in range(chi, col(H) + 1):
        if is_k_choosable(H, k):
            return chi, k
    raise AssertionError("unreachable: H is col(H)-choosable")


def _degree_choosable(parts: list[RootedBlock]) -> bool:
    """A component, given by its rooted blocks, with lists of size exactly
    its degrees: colorable for every such list assignment iff some block
    breaks the bad-list construction, which needs a single edge, a simple
    complete graph or a simple odd cycle."""
    return not all(
        sum(es.values()) == 1 or _complete_shape(b, es) == (1, len(b)) or len(b) % 2 == 1 and _cycle_shape(b, es) == (1, len(b))
        for _, b, es in parts
    )


def is_k_choosable(H: Hypergraph, k: int) -> bool:
    """Proper colorings exist for every list assignment with |L(v)| = k.

    Vertices of degree below k are peeled off (always colorable last).
    One `block_forest` pass gives every stuck component and its blocks; a
    k-regular one is decided by its block shapes.  A stuck component with
    degrees above k is copied out for an explicit search over list
    assignments, which is bounded by a fixed budget and raises once the
    instance is too large for an exact answer.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return H.is_empty
    wit = is_strictly_degenerate(H, {v: k for v in H.vertices})
    if wit:
        return True
    core = H.induced(wit.core)
    for comp, parts, _ in block_forest(core):
        if all(core.degree(v) == k for v in comp):
            if not _degree_choosable(parts):
                return False
        elif _exists_bad_lists(core.induced(comp), k, _ADVERSARY_BUDGET):
            return False
    return True


def _exists_bad_lists(B: Hypergraph, k: int, budget: int) -> bool:
    """Search for a size-k list assignment admitting no proper coloring.

    Lists are enumerated up to renaming of colors: scanning vertices in
    order, every color beyond those already in play enters as the next
    unused integer.  Each complete assignment is tested by backtracking.
    """
    vs = sorted(B.vertices)
    spent = [0]

    def go(i: int, lists: dict[str, set], used: int) -> bool:
        if i == len(vs):
            spent[0] += 1
            if spent[0] > budget:
                raise ValueError(
                    f"choosability search exceeded budget on {B.order} vertices (k={k})"
                )
            return not _colorable_with(B, lists)
        v = vs[i]
        for r in range(k + 1):  # r fresh colors, k - r colors already in play
            for old in itertools.combinations(range(1, used + 1), k - r):
                lists[v] = set(old) | set(range(used + 1, used + r + 1))
                if go(i + 1, lists, used + r):
                    return True
        del lists[v]
        return False

    return go(0, {}, 0)

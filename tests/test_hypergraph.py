import hashlib
import itertools
import random

import pytest

import degenpart as dp
from degenpart.hardpair import VectorFunction
from degenpart.hypergraph import Hypergraph, _complete_shape, _cycle_shape
from degenpart.instancefile import emit_instance
from degenpart.structure import block_forest
from conftest import (count_calls, disconnected_instance, reference_edges_at, reference_multiplicity,
                      reference_random_hypergraph)


def triple_edge():
    return Hypergraph("abc", {"x": "abc"})


class TestConstruction:
    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Hypergraph("ab", {"e": ("a", "a")})

    def test_arity_one_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            Hypergraph("ab", {"e": ("a",)})

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            Hypergraph("ab", {"e": ("a", "c")})

    def test_frozenset_edges_still_validated(self):
        with pytest.raises(ValueError, match="arity"):
            Hypergraph("ab", {"e": frozenset("a")})
        with pytest.raises(ValueError, match="arity"):
            Hypergraph("ab", {"e": frozenset()})
        with pytest.raises(ValueError, match="unknown"):
            Hypergraph("ab", {"e": frozenset("ac")})

    def test_frozenset_edge_kept_as_given(self):
        m = frozenset("ab")
        assert Hypergraph("abc", {"e": m}).incidence("e") is m

    def test_equality_and_hash(self):
        H1 = Hypergraph("ab", {"e": "ab"})
        H2 = Hypergraph(["b", "a"], {"e": ("b", "a")})
        assert H1 == H2
        assert hash(H1) == hash(H2)


class TestDegrees:
    def test_complete_graph_degree(self):
        K4 = dp.complete_uniform(4, 2)
        assert all(K4.degree(v) == 3 for v in K4.vertices)

    def test_twofold_triangle_degree(self):
        H = dp.t_fold(dp.complete_uniform(3, 2), 2)
        assert all(H.degree(v) == 4 for v in H.vertices)

    def test_hyperedge_degree(self):
        assert triple_edge().degree("a") == 1

    def test_unknown_vertex_rejected(self):
        H = dp.cycle(4)
        for query in (H.edges_at, H.degree):
            with pytest.raises(ValueError, match="unknown vertex 'v5'"):
                query("v5")

    @pytest.mark.parametrize("seed", range(6))
    def test_first_query_builds_the_index_once(self, monkeypatch, seed):
        # the store step leaves the index to the first reader; every later
        # reader, induced included, reads the same index
        H, _ = dp.make_hard(dp.random_hard_plan(seed, max_blocks=12, p=3), 3, seed=seed)
        for G in (H, dp.t_fold(H, 2), Hypergraph(H.vertices, H.edges())):
            counts: dict[str, int] = {}
            count_calls(monkeypatch, counts, Hypergraph, "_index")
            vs = sorted(G.vertices)
            assert G.edges_at(vs[0]) == reference_edges_at(G, vs[0])
            assert counts["_index"] == 1
            assert {v: G.edges_at(v) for v in vs} == {v: reference_edges_at(G, v) for v in vs}
            assert [G.degree(v) for v in vs] == [len(reference_edges_at(G, v)) for v in vs]
            assert G.max_degree() == max(map(G.degree, vs)) and G.min_degree() == min(map(G.degree, vs))
            G.induced(vs[1:])
            assert counts["_index"] == 1
            monkeypatch.undo()


class TestOperators:
    def test_induced_identity(self):
        H = dp.random_hypergraph(5, 6, seed=1)
        assert H.induced(H.vertices) == H

    def test_whole_domain_restriction_returns_self(self):
        H = dp.random_hypergraph(8, 12, seed=3, connected=True)
        f = VectorFunction.from_degrees(H, 1, 2)
        assert H.induced(H.vertices) is H
        assert H.induced(sorted(H.vertices)) is H
        assert f.restrict(H.vertices) is f
        assert f.restrict(sorted(H.vertices)) is f

    def test_proper_subset_restriction_is_new(self):
        H = dp.random_hypergraph(8, 12, seed=3, connected=True)
        f = VectorFunction.from_degrees(H, 1, 2)
        X = H.vertices - {"v1"}
        G, g = H.induced(X), f.restrict(X)
        assert G is not H and G.vertices == X
        assert set(G.edge_ids) == {e for e in H.edge_ids if "v1" not in H.incidence(e)}
        assert g is not f and g.vertices == X
        assert all(g[v] == f[v] for v in X)

    def test_induced_matches_whole_edge_scan(self, sweep):
        # induced reads only the edges at X; the copy equals the one built
        # from every edge of H, keeps its edges in sorted-id order, and its
        # edge index lists at each vertex the edges that hold it
        rng = random.Random(7)
        graphs = list({id(r.H): r.H for r in sweep.records}.values())
        graphs += [disconnected_instance(seed)[0] for seed in range(30)]
        hard = [dp.make_hard(dp.random_hard_plan(seed, max_blocks=8, p=3), 3, seed=seed)[0] for seed in range(20)]
        graphs += hard + [dp.t_fold(H, 3) for H in hard]
        disconnected = 0
        for H in graphs:
            vs = sorted(H.vertices)
            for X in [H.vertices, *(rng.sample(vs, rng.randint(0, len(vs))) for _ in range(3))]:
                X = frozenset(X)
                G = H.induced(X)
                assert G == Hypergraph(X, {e: m for e, m in H.edges().items() if m <= X})
                assert list(G.edges()) == sorted(G.edges()) == list(G.edge_ids)
                assert all(G.edges_at(v) == reference_edges_at(G, v) for v in X)
                disconnected += len(dp.components(G)) > 1
        assert len(graphs) >= 1000 and disconnected >= 300

    def test_shrink_matches_constructor(self, sweep):
        # shrink stores its truncated edges without a second check; the
        # value equals the one the validating constructor builds, in the
        # same sorted-id order, and its edge index matches the incidence
        rng = random.Random(11)
        graphs = list({id(r.H): r.H for r in sweep.records}.values())[:300]
        graphs += [dp.random_hypergraph(12, 14, max_arity=4, seed=seed) for seed in range(30)]
        for H in graphs:
            vs = sorted(H.vertices)
            for X in (frozenset(rng.sample(vs, rng.randint(0, len(vs) - 1))) for _ in range(3)):
                G = H.shrink(X)
                kept = {e: m & X for e, m in H.edges().items() if len(m & X) >= 2}
                assert G == Hypergraph(X, kept)
                assert G.edge_ids == Hypergraph(X, kept).edge_ids == tuple(sorted(kept))
                assert all(G.edges_at(v) == reference_edges_at(G, v) for v in X)

    def test_edges_in_sorted_id_order(self):
        H = Hypergraph("abcd", {"e3": "cd", "e1": "ab", "e10": "bc", "e2": "da"})
        assert list(H.edges()) == list(H.edge_ids) == ["e1", "e10", "e2", "e3"]
        assert H.edges_at("d") == ("e2", "e3")

    def test_induced_drops_partial_hyperedge(self):
        H = triple_edge().induced("ab")
        assert H.size == 0 and H.order == 2

    def test_induced_complete(self):
        K3 = dp.complete_uniform(4, 2).induced({"v1", "v2", "v3"})
        assert K3.size == 3

    def test_shrink_truncates_hyperedge(self):
        H = triple_edge().shrink("ab")
        assert H.edges() == {"x": frozenset("ab")}

    def test_shrink_identity(self):
        H = dp.random_hypergraph(5, 6, seed=2)
        assert H.shrink(H.vertices) == H
        assert H.shrink(H.vertices) is H

    def test_shrink_commutes(self):
        H = dp.random_hypergraph(6, 8, seed=3)
        for u, v in [("v1", "v2"), ("v3", "v5")]:
            assert H.shrink_away(u).shrink_away(v) == H.shrink_away(v).shrink_away(u)

    def test_graph_shrink_equals_delete(self):
        G = dp.random_hypergraph(6, 8, max_arity=2, seed=4)
        assert G.shrink_away("v1") == G.induced(G.vertices - {"v1"})

    def test_cycle_shrink_vertex(self):
        P = dp.cycle(4).shrink_away("v4")
        assert P.order == 3 and P.size == 2

    def test_degree_law_fuzz(self):
        # d_{H / v}(u) = d_H(u) - mu(u, v), over many seeded instances
        checks = 0
        for seed in range(40):
            H = dp.random_hypergraph(6, 8, seed=seed)
            for v in sorted(H.vertices):
                Hv = H.shrink_away(v)
                for u in sorted(Hv.vertices):
                    assert Hv.degree(u) == H.degree(u) - reference_multiplicity(H, u, v)
                    checks += 1
        assert checks >= 1000


class TestStoreStep:
    def test_of_sorts_incidence_in_any_order(self, sweep):
        # the store step alone puts incidence handed over shuffled or
        # reversed into sorted-id order, both in the edge ids and in the
        # edges at each vertex
        rng = random.Random(13)
        graphs = list({id(r.H): r.H for r in sweep.records}.values())[:300]
        hard = [dp.make_hard(dp.random_hard_plan(seed, max_blocks=8, p=3), 3, seed=seed)[0] for seed in range(20)]
        graphs += hard + [dp.t_fold(H, 3) for H in hard]
        unsorted = 0
        for H in graphs:
            items = list(H.edges().items())
            shuffled = rng.sample(items, len(items))
            for order in (shuffled, items[::-1]):
                unsorted += order != items
                G = Hypergraph._of(H.vertices, dict(order))
                assert G == H and G.edge_ids == tuple(sorted(H.edge_ids)) == tuple(G.edges())
                assert all(G.edges_at(v) == reference_edges_at(G, v) for v in G.vertices)
        assert unsorted >= 400


def _same(G: Hypergraph, R: Hypergraph) -> None:
    """G equals R, with the same edge order and the same edges at each vertex."""
    assert G == R and G.edge_ids == R.edge_ids
    assert all(G.edges_at(v) == R.edges_at(v) == reference_edges_at(R, v) for v in R.vertices)


class TestBuildersMatchDefinitions:
    # each stock construction stores its parts without the constructor's
    # checks; it equals the hypergraph the constructor builds from its
    # definition, written out here

    def test_complete_uniform(self):
        for n in range(2, 9):
            vs = [f"v{i}" for i in range(1, n + 1)]
            for q in range(2, n + 1):
                combos = itertools.combinations(vs, q)
                _same(dp.complete_uniform(n, q), Hypergraph(vs, {f"e{i}": m for i, m in enumerate(combos, start=1)}))

    def test_cycle_and_path(self):
        for n in range(1, 25):
            vs = [f"v{i}" for i in range(1, n + 1)]
            _same(dp.path(n), Hypergraph(vs, {f"e{i}": (vs[i - 1], vs[i]) for i in range(1, n)}))
            if n >= 3:
                _same(dp.cycle(n), Hypergraph(vs, {f"e{i}": (vs[i - 1], vs[i % n]) for i in range(1, n + 1)}))

    def test_t_fold(self):
        graphs = [dp.cycle(11), dp.complete_uniform(5, 2), dp.complete_uniform(4, 3), dp.path(1)]
        graphs += [dp.random_hypergraph(9, 12, max_arity=4, seed=seed) for seed in range(10)]
        for H in graphs:
            assert dp.t_fold(H, 1) is H
            for t in range(2, 5):
                edges = {f"{e}.{k}": m for e, m in H.edges().items() for k in range(1, t + 1)}
                _same(dp.t_fold(H, t), Hypergraph(H.vertices, edges))

    def test_random_hypergraph(self):
        for n in range(1, 13):
            for m in range(0, 13, 3):
                for seed in range(3):
                    for arity, connected in ((2, False), (3, True), (4, True)):
                        G = dp.random_hypergraph(n, m, max_arity=arity, seed=seed, connected=connected)
                        R = reference_random_hypergraph(n, m, max_arity=arity, seed=seed, connected=connected)
                        _same(G, R)
                        assert emit_instance(G) == emit_instance(R)

    def test_random_hypergraph_joins_thousands_of_components(self):
        # each join inserts the new component's vertices into the sorted
        # union, so every draw and every byte stay those of the re-sorting
        # reference
        G = dp.random_hypergraph(5000, 10, seed=1, connected=True)
        R = reference_random_hypergraph(5000, 10, seed=1, connected=True)
        assert G.size >= 4900 and dp.components(G) == [G.vertices]
        assert emit_instance(G) == emit_instance(R)


class TestMerge:
    def test_two_edges_make_path(self):
        H1 = Hypergraph("ab", {"e1": "ab"})
        H2 = Hypergraph("cd", {"e2": "cd"})
        H = dp.merge(H1, "b", H2, "c", "m")
        assert H.order == 3 and H.size == 2
        assert H.degree("m") == 2

    def test_order_size_law(self):
        H1 = dp.cycle(4)
        H2 = dp.complete_uniform(3, 3)
        H2 = Hypergraph(
            {f"x{v}" for v in H2.vertices},
            {f"x{e}": {f"x{v}" for v in m} for e, m in H2.edges().items()},
        )
        H = dp.merge(H1, "v1", H2, "xv1", "m")
        assert H.order == H1.order + H2.order - 1
        assert H.size == H1.size + H2.size

    def test_shared_vertices_rejected(self):
        with pytest.raises(ValueError):
            dp.merge(dp.cycle(3), "v1", dp.cycle(4), "v1", "m")

    def test_edge_multisets_recoverable(self):
        H1 = Hypergraph("ab", {"e1": "ab"})
        H2 = Hypergraph("cd", {"e2": "cd"})
        H = dp.merge(H1, "b", H2, "c", "m")
        back1 = {e: m for e, m in H.edges().items() if e in H1.edge_ids}
        assert back1 == {"e1": frozenset(("a", "m"))}


class TestGenerators:
    def test_complete_uniform_single_edge(self):
        for n in (2, 3, 5):
            assert dp.complete_uniform(n, n).size == 1

    def test_complete_uniform_bad_params(self):
        with pytest.raises(ValueError):
            dp.complete_uniform(3, 4)

    def test_t_fold_multiplicity(self):
        H = dp.t_fold(dp.cycle(5), 3)
        assert all(reference_multiplicity(H, *sorted(m)) == 3 for m in dp.cycle(5).edges().values())

    def test_random_reproducible(self):
        a = dp.random_hypergraph(6, 8, seed=42, connected=True)
        b = dp.random_hypergraph(6, 8, seed=42, connected=True)
        assert a == b and a.edge_ids == b.edge_ids

    def test_random_connected(self):
        for seed in range(20):
            H = dp.random_hypergraph(6, 3, seed=seed, connected=True)
            assert dp.is_connected(H)

    def test_random_connected_digest(self):
        # the bytes of the join-one-component-at-a-time construction
        h = hashlib.sha256()
        for n in range(1, 13):
            for m in range(0, 13, 2):
                for seed in range(5):
                    H = dp.random_hypergraph(n, m, seed=seed, connected=True)
                    h.update(repr([(e, sorted(H.incidence(e))) for e in H.edge_ids]).encode())
        H = dp.random_hypergraph(300, 100, seed=1, connected=True)
        assert dp.is_connected(H) and H.size <= 100 + 299
        h.update(repr([(e, sorted(H.incidence(e))) for e in H.edge_ids]).encode())
        assert h.hexdigest() == "d452fafa1e37e3fc1ace1fdd232e5d29c71c5785b6bd75ed66fec8e49b27200c"

    def test_random_respects_mult_cap(self):
        rng = random.Random(0)
        for _ in range(10):
            H = dp.random_hypergraph(4, 10, max_mult=2, seed=rng.randrange(10**6))
            for u in sorted(H.vertices):
                for v in sorted(H.vertices):
                    if u < v:
                        assert reference_multiplicity(H, u, v) <= 2


class TestShapeDetection:
    def test_complete_parameters(self):
        assert dp.t_fold_complete_parameters(dp.complete_uniform(4, 2)) == (1, 4)
        assert dp.t_fold_complete_parameters(dp.t_fold(dp.complete_uniform(3, 2), 2)) == (2, 3)
        assert dp.t_fold_complete_parameters(dp.cycle(4)) is None
        assert dp.t_fold_complete_parameters(dp.complete_uniform(3, 3)) is None

    def test_cycle_parameters(self):
        assert dp.t_fold_cycle_parameters(dp.cycle(5)) == (1, 5)
        assert dp.t_fold_cycle_parameters(dp.t_fold(dp.cycle(7), 2)) == (2, 7)
        assert dp.t_fold_cycle_parameters(dp.complete_uniform(4, 2)) is None
        assert dp.t_fold_cycle_parameters(dp.cycle(3)) == (1, 3)

    def test_cycle_parameters_need_one_connected_cycle(self):
        # every vertex in two pairs is a cycle only when the pairs connect the vertices
        two_triangles = Hypergraph("abcxyz", {"e1": "ab", "e2": "bc", "e3": "ca", "e4": "xy", "e5": "yz", "e6": "zx"})
        pendant = Hypergraph("abcd", {"e1": "ab", "e2": "bc", "e3": "ca", "e4": "cd"})
        for H in (two_triangles, dp.t_fold(two_triangles, 2), pendant):
            assert dp.t_fold_cycle_parameters(H) is None


def definitional_complete_parameters(H):
    """Reference: H is a graph whose vertex pairs all have one multiplicity t >= 1."""
    n = H.order
    if n == 0 or any(len(m) != 2 for m in H.edges().values()):
        return None
    if n == 1:
        return (1, 1) if H.size == 0 else None
    mults = {reference_multiplicity(H, u, v) for u, v in itertools.combinations(sorted(H.vertices), 2)}
    if len(mults) != 1:
        return None
    t = mults.pop()
    if t < 1 or H.size != t * n * (n - 1) // 2:
        return None
    return t, n


def definitional_cycle_parameters(H):
    """Reference: H is a graph whose underlying simple graph is a connected
    2-regular graph on n edges, every edge of it with one multiplicity t."""
    n = H.order
    if n < 3 or any(len(m) != 2 for m in H.edges().values()):
        return None
    distinct = set(H.edges().values())
    simple = Hypergraph(H.vertices, {f"s{i}": m for i, m in enumerate(distinct)})
    if simple.size != n or any(simple.degree(v) != 2 for v in simple.vertices):
        return None
    if not dp.is_connected(simple):
        return None
    pair_mults = {reference_multiplicity(H, *sorted(simple.incidence(se))) for se in simple.edge_ids}
    if len(pair_mults) != 1:
        return None
    t = pair_mults.pop()
    return (t, n) if H.size == t * n else None


def _disjoint_union(*parts):
    vertices, edges = [], {}
    for i, H in enumerate(parts):
        vertices += [f"{i}.{v}" for v in H.vertices]
        edges.update({f"{i}.{e}": [f"{i}.{v}" for v in H.incidence(e)] for e in H.edge_ids})
    return Hypergraph(vertices, edges)


def _shape_corpus_instance(seed):
    """Random multihypergraphs near tK_n and tC_n: folds with one edge
    dropped or added, unions of two cycles, and plain random instances."""
    rng = random.Random(seed)
    kind = seed % 4
    n = rng.randint(3, 8)
    t = rng.randint(1, 3)
    if kind == 0:
        return dp.random_hypergraph(rng.randint(1, 7), rng.randint(0, 12), max_arity=rng.choice([2, 3]),
                                    max_mult=3, seed=seed)
    if kind == 1:
        H = dp.t_fold(dp.complete_uniform(n - 1, 2), t)
    elif kind == 2:
        H = dp.t_fold(dp.cycle(n), t)
    else:
        H = dp.t_fold(_disjoint_union(dp.cycle(3), dp.cycle(n)), t)
    edges = H.edges()
    change = rng.randrange(3)
    if change == 1:
        del edges[rng.choice(sorted(edges))]
    elif change == 2:
        edges["extra"] = frozenset(rng.sample(sorted(H.vertices), min(H.order, rng.choice([2, 2, 3]))))
    names = sorted(H.vertices)
    rename = dict(zip(names, rng.sample(names, len(names))))
    return Hypergraph(H.vertices, {e: [rename[v] for v in m] for e, m in edges.items()})


class TestShapeDetectionMatchesDefinition:
    """The pair-count shape tests agree with the definitional references."""

    @staticmethod
    def agree(H):
        complete = dp.t_fold_complete_parameters(H)
        cycle = dp.t_fold_cycle_parameters(H)
        assert complete == definitional_complete_parameters(H)
        assert cycle == definitional_cycle_parameters(H)
        return complete, cycle

    def test_named_cases(self):
        triangle = dp.cycle(3)
        doubled = Hypergraph("abc", {"x": "ab", "y": "ab", "z": "bc", "w": "ca"})
        assert self.agree(_disjoint_union(triangle, triangle)) == (None, None)
        assert self.agree(doubled) == (None, None)
        assert self.agree(triple_edge()) == (None, None)
        assert self.agree(dp.path(1)) == ((1, 1), None)
        assert self.agree(Hypergraph(())) == (None, None)
        for n in range(2, 9):
            for t in range(1, 4):
                complete, cycle = self.agree(dp.t_fold(dp.complete_uniform(n, 2), t))
                assert complete == (t, n) and (cycle is not None) == (n == 3)
                if n >= 3:
                    complete, cycle = self.agree(dp.t_fold(dp.cycle(n), t))
                    assert cycle == (t, n) and (complete is not None) == (n == 3)

    def test_seeded_multihypergraphs(self):
        found = {"complete": 0, "cycle": 0}
        for seed in range(2400):
            complete, cycle = self.agree(_shape_corpus_instance(seed))
            found["complete"] += complete is not None
            found["cycle"] += cycle is not None
        # the corpus reaches both shapes, not only their near misses
        assert min(found.values()) >= 200

    def test_block_shape_tests_match_definition(self):
        # the private shape tests read one block: each block that
        # block_forest gives, rebuilt as a hypergraph, against the references
        found = 0
        for seed in range(600):
            H = _shape_corpus_instance(seed)
            if seed % 3 == 0:
                H, _ = dp.make_hard(dp.random_hard_plan(seed, max_blocks=5, p=3), 3, seed=seed)
            for _, parts, _ in block_forest(H):
                for _, b, es in parts:
                    B = Hypergraph(b, {f"x{i}.{k}": m for i, (m, t) in enumerate(es.items()) for k in range(t)})
                    assert _complete_shape(b, es) == definitional_complete_parameters(B)
                    assert _cycle_shape(b, es) == definitional_cycle_parameters(B)
                    found += _cycle_shape(b, es) is not None
        assert found >= 100

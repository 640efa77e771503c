import itertools
import random

import pytest

import degenpart as dp
from degenpart import coloring
from degenpart.coloring import _colorable_with, _exists_bad_lists
from degenpart.hardpair import VectorFunction
from degenpart.hypergraph import Hypergraph
from conftest import count_calls, disjoint_union, petersen


class TestListToVector:
    def test_uniform_lists_on_cycle(self):
        H = dp.cycle(5)
        f, colors = dp.list_to_vector(H, {v: {1, 2} for v in H.vertices})
        assert colors == (1, 2)
        assert all(f[v] == (1, 1) for v in H.vertices)

    def test_two_square_example(self):
        # inner square v1..v4, outer square u1..u4, labelled lists
        lists = {
            "v1": {1, 2, 4}, "v2": {1, 3}, "v3": {2, 4}, "v4": {3, 4},
            "u1": {1, 3, 4}, "u2": {2, 3}, "u3": {1, 4}, "u4": {2, 3, 4},
        }
        pairs = [
            ("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v1"),
            ("v1", "u1"), ("v2", "u2"), ("v3", "u3"), ("v4", "u4"), ("v4", "u3"),
            ("u1", "u2"), ("u2", "u3"), ("u3", "u4"), ("u4", "u1"),
        ]
        H = Hypergraph(lists, {f"e{i}": ab for i, ab in enumerate(pairs, 1)})
        f, colors = dp.list_to_vector(H, lists)
        assert colors == (1, 2, 3, 4)
        expect = {
            "v1": (1, 1, 0, 1), "v2": (1, 0, 1, 0), "v3": (0, 1, 0, 1), "v4": (0, 0, 1, 1),
            "u1": (1, 0, 1, 1), "u2": (0, 1, 1, 0), "u3": (1, 0, 0, 1), "u4": (0, 1, 1, 1),
        }
        assert {v: f[v] for v in lists} == expect

    def test_scaling(self):
        H = dp.path(2)
        f, colors = dp.list_to_vector(H, {"v1": {3}, "v2": {3}}, s=2)
        assert colors == (3,)
        assert f["v1"] == (2,)


class TestListColor:
    def test_odd_cycle_identical_pairs(self):
        H = dp.cycle(5)
        res = dp.list_color(H, {v: {1, 2} for v in H.vertices})
        assert not res.colorable
        cert = res.certificates[H.vertices]
        assert cert.tags == (dp.CTag(1, 1, 2),)

    def test_even_cycle_identical_pairs(self):
        H = dp.cycle(4)
        res = dp.list_color(H, {v: {1, 2} for v in H.vertices})
        assert res.colorable
        assert dp.is_proper(H, res.coloring)
        assert all(res.coloring[v] in {1, 2} for v in H.vertices)

    def test_single_hyperedge_singleton_lists(self):
        H = Hypergraph("abc", {"x": "abc"})
        res = dp.list_color(H, {v: {1} for v in H.vertices})
        assert not res.colorable
        (cert,) = res.certificates.values()
        assert cert.tags == (dp.MTag(1),)

    def test_list_too_small_rejected(self):
        H = dp.cycle(5)
        with pytest.raises(ValueError, match="list too small"):
            dp.list_color(H, {v: ({1} if v == "v1" else {1, 2}) for v in H.vertices})

    def test_lists_missing_a_vertex_rejected(self):
        # the list sizes used to be read first, raising KeyError: 'v2'
        H = dp.cycle(4)
        with pytest.raises(ValueError, match="domain does not match"):
            dp.list_color(H, {"v1": {1, 2}})
        with pytest.raises(ValueError, match="domain does not match"):
            dp.is_Lxs_choosable(H, {"v1": {1, 2}}, 2)

    def test_colorings_respect_lists(self):
        rng = random.Random(5)
        for seed in range(25):
            H = dp.random_hypergraph(6, 7, seed=seed, connected=True)
            lists = {
                v: set(rng.sample(range(1, 8), max(H.degree(v), 1))) for v in sorted(H.vertices)
            }
            res = dp.list_color(H, lists)
            if res.colorable:
                assert dp.is_proper(H, res.coloring)
                assert all(res.coloring[v] in lists[v] for v in H.vertices)
            else:
                for cert_comp, cert in res.certificates.items():
                    f, _ = dp.list_to_vector(H, lists)
                    assert dp.verify_certificate(
                        H.induced(cert_comp), f.restrict(cert_comp), cert
                    )

    def test_certificate_blocks_have_brooks_shapes(self):
        # whenever lists of size >= degree fail, blocks must be complete
        # graphs, odd cycles, or single edges
        K4 = dp.complete_uniform(4, 2)
        C7 = dp.cycle(7)
        T1 = dp.complete_uniform(3, 2)
        T2 = Hypergraph("xyz", {"a": "xy", "b": "yz", "c": "zx"})
        glued = dp.merge(T1, "v1", T2, "x", "m")
        cases = [
            (K4, {v: {1, 2, 3} for v in K4.vertices}),
            (C7, {v: {1, 2} for v in C7.vertices}),
            (glued, {v: ({1, 2} if v.startswith("v") else {3, 4} if v in "yz" else {1, 2, 3, 4})
                     for v in glued.vertices}),
        ]
        for H, lists in cases:
            res = dp.list_color(H, lists)
            assert not res.colorable
            for comp, cert in res.certificates.items():
                Hc = H.induced(comp)
                for bset in cert.blocks:
                    B = Hc.induced(bset)
                    n = B.order
                    assert (
                        B.size == 1
                        or dp.t_fold_complete_parameters(B) == (1, n)
                        or (n % 2 == 1 and dp.t_fold_cycle_parameters(B) == (1, n))
                    )


class TestDegreeConstrainedPartition:
    def test_petersen(self):
        H = petersen()
        P = dp.degree_constrained_partition(H, (1, 2))
        X1 = frozenset(v for v, c in P.items() if c == 1)
        X2 = frozenset(v for v, c in P.items() if c == 2)
        assert H.induced(X1).size == 0  # independent
        H2 = H.induced(X2)
        assert dp.col(H2) <= 2 and H2.max_degree() <= 2

    def test_complete_rejected(self):
        H = dp.complete_uniform(5, 2)
        with pytest.raises(ValueError, match="complete"):
            dp.degree_constrained_partition(H, (2, 2))

    def test_multi_cycle_rejected(self):
        H = dp.t_fold(dp.cycle(5), 2)
        with pytest.raises(ValueError, match="cycle"):
            dp.degree_constrained_partition(H, (2, 2))

    def test_bounds_too_small_rejected(self):
        H = petersen()
        with pytest.raises(ValueError, match="below maximum degree"):
            dp.degree_constrained_partition(H, (1, 1))

    def test_random_instances(self):
        done = 0
        for seed in range(30):
            H = dp.random_hypergraph(7, 9, seed=seed, connected=True)
            if dp.t_fold_complete_parameters(H) or dp.t_fold_cycle_parameters(H):
                continue
            d = H.max_degree()
            k1 = max(1, d // 2)
            k2 = max(1, d - k1)
            P = dp.degree_constrained_partition(H, (k1, k2))
            for i, k in ((1, k1), (2, k2)):
                Hi = H.induced(frozenset(v for v, c in P.items() if c == i))
                assert dp.col(Hi) <= k and Hi.max_degree() <= k
            done += 1
        assert done >= 20


class TestPointPartitionNumber:
    def test_complete_graph_strict(self):
        # five mutually adjacent vertices: two classes of strictly
        # 2-degenerate parts are impossible, three suffice
        K5 = dp.complete_uniform(5, 2)
        assert dp.point_partition_number(K5, 2) == 3

    def test_forest_level_one(self):
        assert dp.point_partition_number(dp.path(6), 2) == 1

    def test_conventions_differ_by_level(self):
        K5 = dp.complete_uniform(5, 2)
        assert dp.point_partition_number(K5, 1, strict=False) == dp.point_partition_number(K5, 2)
        assert dp.point_partition_number(K5, 0, strict=False) == dp.point_partition_number(K5, 1) == 5
        with pytest.raises(ValueError, match="out of range"):
            dp.point_partition_number(K5, 0)
        with pytest.raises(ValueError, match="out of range"):
            dp.point_partition_number(K5, -1, strict=False)

    def test_one_class_decided_by_peeling(self):
        # p = 1 is below max degree / s, but needs no oracle: path(12) is
        # past the oracle's size guard
        assert dp.point_partition_number(dp.path(12), 1) == 2
        assert dp.point_partition_number(dp.path(12), 2) == 1

    def test_independence_number_flavour(self):
        # level 1 classes are independent sets, so this is proper coloring
        assert dp.point_partition_number(dp.cycle(5), 1) == 3
        assert dp.point_partition_number(dp.cycle(6), 1) == 2

    @pytest.mark.parametrize(
        "H, alpha",
        [
            (Hypergraph("cabd", {"e1": "ca", "e2": "cb", "e3": "cd"}), 2),  # the star K_{1,3}
            (dp.t_fold(dp.cycle(5), 2), 3),  # 2C_5
        ],
    )
    def test_level_one_below_max_degree_is_chromatic_number(self, H, alpha, monkeypatch):
        # chi < max degree, so the answer comes from the oracle branch;
        # chromatic_number is an exact method that shares no code with it
        counts: dict[str, int] = {}
        count_calls(monkeypatch, counts, coloring, "brute_partitionable")
        assert dp.point_partition_number(H, 1) == dp.chromatic_number(H) == alpha
        assert counts["brute_partitionable"] > 0

    def test_empty(self):
        assert dp.point_partition_number(Hypergraph(()), 1) == 0

    def test_bounds_past_the_oracle(self):
        # K12 at level 2: p = 1 fails by peeling, the oracle refuses p = 2
        # (n = 12), and solve partitions at p = 6, the least p with 2p >= 11
        with pytest.raises(ValueError) as exc:
            dp.point_partition_number(dp.complete_uniform(12, 2), 2)
        assert str(exc.value) == (
            "alpha: 2 <= alpha <= 6; the exact value is not proven: brute_partitionable guard exceeded (n=12, p=2)"
        )

    def test_bounds_bracket_the_chromatic_number(self):
        # at level 1 the answer is the chromatic number, an exact method that
        # shares no code with the bounds; 2C_11 and C_11 + chord are past the oracle
        chord = Hypergraph(dp.cycle(11).vertices, {**dp.cycle(11).edges(), "x": ("v1", "v6")})
        for H, lo, hi in ((dp.t_fold(dp.cycle(11), 2), 2, 4), (chord, 2, 3)):
            with pytest.raises(ValueError, match=rf"^alpha: {lo} <= alpha <= {hi}; .*\(n=11, p=2\)$"):
                dp.point_partition_number(H, 1)
            assert lo <= dp.chromatic_number(H) <= hi

    def test_lower_bound_is_the_refused_p(self, monkeypatch):
        # every p below the refused one failed in the oracle: K5 at level 1
        # with an oracle that refuses p >= 3, after p = 2 failed in it
        real = coloring.brute_partitionable

        def refuse_from_3(H, f):
            if f.p >= 3:
                raise ValueError(f"guard (p={f.p})")
            return real(H, f)

        monkeypatch.setattr(coloring, "brute_partitionable", refuse_from_3)
        with pytest.raises(ValueError, match=r"^alpha: 3 <= alpha <= 5; .*: guard \(p=3\)$"):
            dp.point_partition_number(dp.complete_uniform(5, 2), 1)


class TestChoosability:
    def test_values(self):
        assert dp.chi_and_chi_list(dp.cycle(5)) == (3, 3)
        assert dp.chi_and_chi_list(dp.cycle(4)) == (2, 2)
        assert dp.chi_and_chi_list(dp.complete_uniform(4, 2)) == (4, 4)
        assert dp.chi_and_chi_list(Hypergraph("abc", {"x": "abc"})) == (2, 2)
        assert dp.chi_and_chi_list(dp.path(5)) == (2, 2)

    def test_three_three_bipartite_not_two_choosable(self):
        # complete bipartite 3+3: chromatic number 2, list-chromatic 3
        H = Hypergraph(
            "abcxyz",
            {f"e{i}{j}": (a, b) for i, a in enumerate("abc") for j, b in enumerate("xyz")},
        )
        assert dp.chromatic_number(H) == 2
        assert not dp.is_k_choosable(H, 2)
        assert dp.is_k_choosable(H, 3)

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            dp.chi_and_chi_list(dp.random_hypergraph(12, 5, seed=0))

    def test_inequality_chain(self):
        for seed in range(20):
            H = dp.random_hypergraph(5, 7, seed=seed, connected=True)
            chi, chil = dp.chi_and_chi_list(H)
            assert chi <= chil <= dp.col(H) <= H.max_degree() + 1

    @pytest.mark.parametrize("seed", range(20))
    def test_adversary_cross_check_tiny(self, seed):
        # compare the structured decision against plain list enumeration
        rng = random.Random(seed)
        H = dp.random_hypergraph(4, rng.randint(2, 6), seed=seed, connected=True)
        for k in (1, 2):
            structured = dp.is_k_choosable(H, k)
            brute = not _exists_bad_lists(H, k, budget=10**6)
            assert structured == brute

    @pytest.mark.parametrize(
        "parts, k, searched",
        [
            ((dp.cycle(4), dp.cycle(6), dp.cycle(8)), 2, 0),
            ((dp.cycle(6), dp.cycle(5), dp.cycle(4)), 2, 0),
            ((dp.cycle(4), dp.complete_uniform(4, 2), dp.cycle(7)), 3, 0),
            ((dp.cycle(6), dp.complete_uniform(4, 2)), 2, 1),
        ],
    )
    def test_components_from_one_block_pass(self, parts, k, searched, monkeypatch):
        # disjoint cycles and cliques: one block_forest pass over the core,
        # and a copy only of the component that needs the list search
        H, _ = disjoint_union([(f"c{i}.", P, VectorFunction.constant(P.vertices, (1,))) for i, P in enumerate(parts)])
        want = all(dp.is_k_choosable(P, k) for P in parts)
        counts = {}
        count_calls(monkeypatch, counts, coloring, "block_forest")
        count_calls(monkeypatch, counts, dp.Hypergraph, "induced")
        assert dp.is_k_choosable(H, k) == want
        assert counts == {"block_forest": 1, "induced": 1 + searched}

    def test_colorable_with_is_sound(self):
        H = dp.cycle(5)
        assert not _colorable_with(H, {v: {1, 2} for v in H.vertices})
        assert _colorable_with(H, {v: {1, 2, 3} for v in H.vertices})

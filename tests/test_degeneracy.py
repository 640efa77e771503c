import random

import pytest

import degenpart as dp
from degenpart.hypergraph import Hypergraph
from conftest import reference_peel_order


def const(H, k):
    return {v: k for v in H.vertices}


class TestStrictDegeneracy:
    def test_edgeless_one_degenerate(self):
        H = Hypergraph("abc")
        assert dp.is_strictly_degenerate(H, const(H, 1))

    def test_edgeless_zero_not_degenerate(self):
        H = Hypergraph("a")
        wit = dp.is_strictly_degenerate(H, const(H, 0))
        assert not wit and wit.core == {"a"}

    def test_cycle_stuck_core(self):
        H = dp.cycle(5)
        wit = dp.is_strictly_degenerate(H, const(H, 2))
        assert wit.core == H.vertices

    def test_cycle_with_one_slack_vertex(self):
        H = dp.cycle(5)
        h = const(H, 2)
        h["v1"] = 3
        wit = dp.is_strictly_degenerate(H, h)
        assert wit and wit.removal_order[0] == "v1"

    def test_removal_order_is_valid(self):
        for seed in range(20):
            H = dp.random_hypergraph(6, 8, seed=seed)
            h = {v: random.Random(seed * 7 + 1).randint(0, 3) for v in sorted(H.vertices)}
            wit = dp.is_strictly_degenerate(H, h)
            if not wit:
                core = H.induced(wit.core)
                assert all(core.degree(v) >= h[v] for v in wit.core)
                continue
            left = set(H.vertices)
            for v in wit.removal_order:
                assert H.induced(left).degree(v) < h[v]
                left.discard(v)
            assert not left

    def test_peels_in_reference_order(self):
        # bounds drawn around each degree: stuck and peeled instances, and bounds of 0
        rng = random.Random(20261020)
        stuck = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            H = dp.random_hypergraph(n, rng.randint(0, 2 * n), max_arity=4, max_mult=3, seed=rng.randrange(2**32))
            h = {v: max(0, H.degree(v) + rng.randint(-3, 1)) for v in sorted(H.vertices)}
            order, left = reference_peel_order(H, h)
            wit = dp.is_strictly_degenerate(H, h)
            if left:
                stuck += 1
                assert wit.removal_order is None and wit.core == left
            else:
                assert wit.removal_order == order and wit.core is None
        assert 0 < stuck < 300

    def test_missing_vertex_rejected(self):
        with pytest.raises(ValueError, match="misses"):
            dp.is_strictly_degenerate(dp.cycle(3), {"v1": 1})

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        H = dp.random_hypergraph(rng.randint(2, 6), rng.randint(1, 8), seed=seed)
        h = {v: rng.randint(0, 3) for v in sorted(H.vertices)}
        assert bool(dp.is_strictly_degenerate(H, h)) == dp.brute_strictly_degenerate(H, h)

    def test_monotone_in_h(self):
        for seed in range(15):
            rng = random.Random(1000 + seed)
            H = dp.random_hypergraph(6, 8, seed=seed)
            h = {v: rng.randint(0, 3) for v in sorted(H.vertices)}
            if dp.is_strictly_degenerate(H, h):
                hp = {v: h[v] + rng.randint(0, 2) for v in h}
                assert dp.is_strictly_degenerate(H, hp)

    def test_degree_bounds_leave_proper_subhypergraphs_degenerate(self):
        # with h = degrees, removing any one vertex or edge unsticks H
        for seed in range(10):
            H = dp.random_hypergraph(5, 7, seed=seed, connected=True)
            h = {v: H.degree(v) for v in H.vertices}
            for v in sorted(H.vertices):
                Hv = H.induced(H.vertices - {v})
                assert dp.is_strictly_degenerate(Hv, {u: h[u] for u in Hv.vertices})
            for e in H.edge_ids:
                He = Hypergraph(H.vertices, {x: m for x, m in H.edges().items() if x != e})
                assert dp.is_strictly_degenerate(He, h)


class TestColoringNumber:
    def test_forest(self):
        assert dp.col(dp.path(6)) == 2
        assert dp.col(dp.path(1)) == 1

    def test_complete(self):
        for n in range(2, 7):
            assert dp.col(dp.complete_uniform(n, 2)) == n

    def test_multi_edge(self):
        for t in (1, 2, 4):
            assert dp.col(dp.t_fold(dp.complete_uniform(2, 2), t)) == t + 1

    def test_empty(self):
        assert dp.col(Hypergraph(())) == 0

    def test_col_is_least_strict_level(self):
        for seed in range(25):
            H = dp.random_hypergraph(6, 8, seed=seed)
            k = dp.col(H)
            assert dp.is_strictly_degenerate(H, const(H, k))
            if k > 0:
                assert not dp.is_strictly_degenerate(H, const(H, k - 1))

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_definition(self, seed):
        # the least k with H strictly k-degenerate, found by counting up
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        H = dp.random_hypergraph(n, rng.randint(0, 3 * n), max_arity=4, max_mult=3, seed=seed)
        k = 0
        while H.vertices and not dp.is_strictly_degenerate(H, const(H, k)):
            k += 1
        assert dp.col(H) == k

    def test_at_most_max_degree_plus_one(self):
        for seed in range(25):
            H = dp.random_hypergraph(6, 9, seed=seed)
            assert dp.col(H) <= H.max_degree() + 1

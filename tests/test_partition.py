import importlib
import random
from collections import Counter

import pytest

import degenpart as dp
from degenpart.hardpair import VectorFunction
from degenpart.hypergraph import Hypergraph
from degenpart.instancefile import emit_certificates, emit_instance, emit_partition, parse_instance
from conftest import (
    balanced_plan,
    count_calls,
    disconnected_instance,
    layered_wheel_instance,
    reference_enforce_degree_bounds,
    reference_partition_weight,
    reference_reduce_pair,
    reference_solve,
    reference_verify_partition,
    refinement_instances,
    tight_instance,
)


def const(H, vec):
    return VectorFunction.constant(H.vertices, vec)


class TestSolve:
    def test_even_cycle_two_colors(self):
        H = dp.cycle(4)
        res = dp.solve(H, const(H, (1, 1)))
        assert res.partitionable
        # a (1,1)-partition of a cycle is exactly a proper 2-coloring
        assert dp.is_proper(H, res.partition)

    def test_odd_cycle_certificate(self):
        H = dp.cycle(5)
        res = dp.solve(H, const(H, (1, 1)))
        assert not res.partitionable
        ((comp, cert),) = res.certificates.items()
        assert comp == H.vertices
        assert dp.verify_certificate(H, const(H, (1, 1)), cert)

    def test_path(self):
        H = dp.path(3)
        res = dp.solve(H, const(H, (1, 1)))
        assert res.partitionable
        assert dp.verify_partition(H, const(H, (1, 1)), res.partition)

    def test_precondition_error_names_vertex(self):
        H = dp.complete_uniform(4, 2)
        with pytest.raises(ValueError, match="v1"):
            dp.solve(H, const(H, (1, 1)))

    def test_per_component(self):
        H = Hypergraph("abcdefgh", {
            "e1": "ab", "e2": "bc", "e3": "ca",      # triangle: hard for (1,1)
            "e4": "de", "e5": "ef", "e6": "fd",      # triangle
            "e7": "gh",                              # lone edge: fine
        })
        f = const(H, (1, 1))
        res = dp.solve(H, f)
        assert not res.partitionable
        assert set(res.certificates) == {frozenset("abc"), frozenset("def")}

    def test_deterministic(self):
        for seed in range(10):
            H = dp.random_hypergraph(6, 8, seed=seed, connected=True)
            f = const(H, (2, 2))
            if any(H.degree(v) > 4 for v in H.vertices):
                continue
            a = dp.solve(H, f)
            b = dp.solve(H, f)
            assert a.partition == b.partition

    def test_singleton(self):
        H = Hypergraph("a")
        res = dp.solve(H, const(H, (0, 1)))
        assert res.partition == {"a": 2}

    def test_singleton_zero_function_hard(self):
        H = Hypergraph("a")
        res = dp.solve(H, const(H, (0, 0)))
        assert not res.partitionable

    def test_empty_pair_is_partitionable(self):
        res = dp.solve(Hypergraph(()), VectorFunction(2, {}))
        assert res.partition == {} and res.certificates is None

    @pytest.mark.parametrize("seed", range(8))
    def test_balanced_deficit_names_the_vertex(self, seed):
        # f moved between two vertices keeps sum f = sum d in all, so solve
        # strips first; beside a hard component the error is the same
        H1, f1 = dp.make_hard(dp.random_hard_plan(seed, max_blocks=8, p=3), 3, seed=seed)
        H2, f2 = dp.make_hard(dp.random_hard_plan(seed + 50, max_blocks=4, p=3), 3, seed=seed)
        ren = {v: "x" + v for v in H2.vertices}
        edges = H1.edges()
        edges.update({"x" + e: {ren[v] for v in m} for e, m in H2.edges().items()})
        H = Hypergraph(H1.vertices | set(ren.values()), edges)
        values = {**dict(f1.items()), **{ren[v]: vec for v, vec in f2.items()}}
        a, b = sorted(H1.vertices)[:2]
        j = next(i for i, x in enumerate(values[a]) if x)
        values[a] = values[a][:j] + (values[a][j] - 1,) + values[a][j + 1:]
        values[b] = values[b][:j] + (values[b][j] + 1,) + values[b][j + 1:]
        with pytest.raises(ValueError, match=f"degree hypothesis violated at {a!r}"):
            dp.solve(H, VectorFunction(3, values))


class TestReduction:
    def test_reduce_pair_clamps(self):
        H = dp.t_fold(dp.complete_uniform(2, 2), 3)
        f = const(H, (1, 2))
        H2, f2 = dp.reduce_pair(H, f, "v1", 2)
        assert H2.vertices == {"v2"}
        assert f2["v2"] == (1, 0)

    @pytest.mark.parametrize("z, j", [("v1", 0), ("v1", 3), ("v3", 1)])
    def test_reduce_pair_rejects_bad_arguments(self, z, j):
        H = dp.path(2)
        with pytest.raises(ValueError):
            dp.reduce_pair(H, const(H, (1, 1)), z, j)

    def test_reduce_pair_matches_reference(self, sweep):
        # every z and every j, separating z and f_j(z) = 0 included
        compared = separating = zero = 0
        for rec in sweep.records:
            sep = dp.separating_vertices(rec.H)
            for z in sorted(rec.H.vertices):
                for j in range(1, rec.f.p + 1):
                    assert dp.reduce_pair(rec.H, rec.f, z, j) == reference_reduce_pair(rec.H, rec.f, z, j)
                    compared += 1
                    separating += z in sep
                    zero += rec.f[z][j - 1] == 0
        assert compared > 100_000 and separating > 1000 and zero > 1000

    def test_reduction_preserves_non_partitionability(self):
        # on small non-partitionable pairs, every admissible reduction is
        # again non-partitionable
        for seed in range(25):
            rng = random.Random(seed)
            p = rng.randint(2, 3)
            H, f = dp.make_hard(dp.random_hard_plan(seed, max_blocks=2, p=p), p, seed=seed)
            if H.order > 8 or p ** H.order > 10**6:
                continue
            sep = dp.separating_vertices(H)
            for z in sorted(H.vertices - sep):
                for j in range(1, p + 1):
                    if f[z][j - 1] == 0:
                        continue
                    H2, f2 = dp.reduce_pair(H, f, z, j)
                    if H2.is_empty:
                        continue
                    assert not dp.brute_partitionable(H2, f2).partitionable

    def test_deleting_any_vertex_makes_it_partitionable(self):
        for seed in range(20):
            rng = random.Random(seed)
            p = rng.randint(2, 3)
            H, f = dp.make_hard(dp.random_hard_plan(seed, max_blocks=2, p=p), p, seed=seed)
            if H.order > 8 or H.order < 2 or p ** (H.order - 1) > 10**6:
                continue
            for u in sorted(H.vertices):
                Hu = H.induced(H.vertices - {u})
                assert dp.brute_partitionable(Hu, f.restrict(Hu.vertices)).partitionable


class TestComplexity:
    def test_one_shrink_per_reduction_on_tight_instance(self, monkeypatch):
        H, f = tight_instance(60)
        partition_module = importlib.import_module("degenpart.partition")
        counts: dict[str, int] = {}
        count_calls(monkeypatch, counts, Hypergraph, "shrink_away")
        count_calls(monkeypatch, counts, partition_module, "reduce_pair")
        # each tight step takes the separating vertices of the residual once
        count_calls(monkeypatch, counts, partition_module, "separating_vertices")
        res = dp.solve(H, f)
        assert res.partitionable
        assert counts["separating_vertices"] >= 1
        assert counts["shrink_away"] == counts["reduce_pair"] <= counts["separating_vertices"]

    def test_tight_steps_make_no_multiplicity_scans(self, monkeypatch):
        # the 2-colouring of an even cycle is forced, so every tight step
        # but the last falls back to is_hard on a reduction
        H = dp.cycle(40)
        f = const(H, (1, 1))
        partition_module = importlib.import_module("degenpart.partition")
        counts: dict[str, int] = {}
        count_calls(monkeypatch, counts, partition_module, "reduce_pair")
        res = dp.solve(H, f)
        assert counts["reduce_pair"] > 0
        assert dp.verify_partition(H, f, res.partition)

    def test_slack_seeking_step_needs_no_reduction(self, monkeypatch):
        # tight triangle, not hard; placing a into class 1 leaves c, with
        # f_1(c) = 0 < mu(a, c), holding slack
        H = Hypergraph("abc", {"e1": "ab", "e2": "bc", "e3": "ca"})
        f = VectorFunction(2, {"a": (1, 1), "b": (2, 0), "c": (0, 2)})
        partition_module = importlib.import_module("degenpart.partition")
        counts: dict[str, int] = {}
        count_calls(monkeypatch, counts, partition_module, "hard_components")
        count_calls(monkeypatch, counts, partition_module, "reduce_pair")
        res = dp.solve(H, f)
        assert counts == {"hard_components": 1, "reduce_pair": 0}
        assert res.partition["a"] == 1
        assert dp.verify_partition(H, f, res.partition)

    def test_slack_needs_no_recognition_or_shrinking(self, monkeypatch):
        p = 4
        rng = random.Random(p)
        bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=p) for _ in range(300)]
        H, f = dp.make_hard(balanced_plan(bases), p, seed=p)
        v = min(H.vertices)
        g = f.with_value(v, (f[v][0] + 1,) + f[v][1:])
        partition_module = importlib.import_module("degenpart.partition")
        counts: dict[str, int] = {}
        count_calls(monkeypatch, counts, partition_module, "is_hard")
        count_calls(monkeypatch, counts, partition_module, "hard_components")
        count_calls(monkeypatch, counts, partition_module, "separating_vertices")
        count_calls(monkeypatch, counts, Hypergraph, "shrink_away")
        res = dp.solve(H, g)
        assert counts == {"is_hard": 0, "hard_components": 0, "separating_vertices": 0, "shrink_away": 0}
        assert dp.verify_partition(H, g, res.partition)


class TestConstructionCounts:
    def test_connected_hard_pair_builds_no_hypergraph(self, monkeypatch):
        # a connected instance is not copied, and is_hard reads each of its
        # 16 blocks from the block's edge multiset without building it
        H, f = dp.make_hard(dp.random_hard_plan(3, max_blocks=60, p=3), 3, seed=3)
        nblocks = len(dp.blocks(H).blocks)
        counts: dict[str, int] = {}
        count_calls(monkeypatch, counts, Hypergraph, "_store")
        res = dp.solve(H, f)
        assert (nblocks, counts["_store"]) == (16, 0)
        assert list(res.certificates) == [H.vertices]

    def test_reading_and_deciding_a_hard_pair_builds_no_edge_index(self, monkeypatch):
        # solve strips a pair with as much f as degree before it reads a
        # degree, and the strip reads each block's edge multiset, so no
        # vertex's edges are ever listed
        rng = random.Random(60)
        bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=3) for _ in range(60)]
        text = emit_instance(*dp.make_hard(balanced_plan(bases), 3, seed=60))
        counts: dict[str, int] = {}
        count_calls(monkeypatch, counts, Hypergraph, "_index")
        inst = parse_instance(text)
        res = dp.solve(inst.H, inst.f)
        assert len(res.certificates[inst.H.vertices].blocks) == 60
        assert counts["_index"] == 0

    def test_verify_partition_peels_once(self, monkeypatch):
        # five non-empty classes: one peel of one hypergraph of the inside edges
        H = dp.random_hypergraph(10, 15, seed=7, connected=True)
        f = const(H, (H.max_degree(),) * 5)
        P = {v: 1 + k % 5 for k, v in enumerate(sorted(H.vertices))}
        partition_module = importlib.import_module("degenpart.partition")
        counts: dict[str, int] = {}
        count_calls(monkeypatch, counts, partition_module, "is_strictly_degenerate")
        count_calls(monkeypatch, counts, Hypergraph, "_store")
        assert dp.verify_partition(H, f, P)
        assert counts == {"is_strictly_degenerate": 1, "_store": 1}

    def test_tight_triangle_builds_one_hypergraph(self, monkeypatch):
        # verify_partition's inside edges only: is_hard builds no block, and
        # the first tight step shrinks to the whole vertex set without a copy
        H = Hypergraph("abc", {"e1": "ab", "e2": "bc", "e3": "ca"})
        f = VectorFunction(2, {"a": (1, 1), "b": (2, 0), "c": (0, 2)})
        counts: dict[str, int] = {}
        count_calls(monkeypatch, counts, Hypergraph, "_store")
        assert dp.solve(H, f).partitionable
        assert counts["_store"] == 1

    def test_one_certificate_per_component(self):
        H1, f1 = dp.make_hard(dp.random_hard_plan(3, max_blocks=60, p=3), 3, seed=3)
        H2, f2 = dp.make_hard(dp.random_hard_plan(5, max_blocks=20, p=3), 3, seed=5)
        ren = {v: "x" + v for v in H2.vertices}
        edges = H1.edges()
        edges.update({"x" + e: {ren[v] for v in m} for e, m in H2.edges().items()})
        H = Hypergraph(H1.vertices | set(ren.values()), edges)
        f = VectorFunction(3, {**dict(f1.items()), **{ren[v]: vec for v, vec in f2.items()}})
        res = dp.solve(H, f)
        assert res.partition is None
        assert set(res.certificates) == {H1.vertices, frozenset(ren.values())}
        for comp, cert in res.certificates.items():
            assert dp.verify_certificate(H.induced(comp), f.restrict(comp), cert)


class TestOnePass:
    def test_matches_component_driver_on_disconnected_instances(self):
        # one block_forest pass gives what components, induced, restrict and
        # is_hard per component gave, byte for byte
        partitioned = certified = 0
        for seed in range(200):
            H, f = disconnected_instance(seed)
            got, want = dp.solve(H, f), reference_solve(H, f)
            assert got.partition == want.partition and got.certificates == want.certificates
            if want.partitionable:
                assert emit_partition(got.partition, f.p) == emit_partition(want.partition, f.p)
                partitioned += 1
            else:
                assert emit_certificates(got.certificates) == emit_certificates(want.certificates)
                certified += len(want.certificates) > 1
        assert partitioned >= 60 and certified >= 40


class TestScale:
    """Instances far past the oracle's reach: every partition checks itself
    by peeling, and the iterative solver stays within the default
    recursion limit."""

    def test_long_path(self):
        H = dp.path(2000)
        f = const(H, (1, 1))
        assert dp.verify_partition(H, f, dp.solve(H, f).partition)

    def test_tight_random_instance(self):
        H, f = tight_instance(2000)
        assert dp.verify_partition(H, f, dp.solve(H, f).partition)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_raised_hard_pair(self, p):
        rng = random.Random(100 + p)
        bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=p) for _ in range(100)]
        H, f = dp.make_hard(balanced_plan(bases), p, seed=p)
        v = rng.choice(sorted(H.vertices))
        j = rng.randrange(p)
        raised = f.with_value(v, tuple(x + (i == j) for i, x in enumerate(f[v])))
        assert dp.verify_partition(H, raised, dp.solve(H, raised).partition)


class TestVerifyPartition:
    def test_rejects_partial_assignment(self):
        H = dp.cycle(4)
        assert not dp.verify_partition(H, const(H, (1, 1)), {"v1": 1})

    def test_odd_cycle_split_always_fails(self):
        H = dp.cycle(5)
        f = const(H, (1, 1))
        for bits in range(2**5):
            P = {f"v{i + 1}": 1 + ((bits >> i) & 1) for i in range(5)}
            assert not dp.verify_partition(H, f, P)

    def test_empty_class_is_fine(self):
        H = dp.path(2)
        f = VectorFunction(2, {"v1": (2, 0), "v2": (1, 0)})
        assert dp.verify_partition(H, f, {"v1": 1, "v2": 1})

    def test_matches_reference_on_sweep_partitions(self, sweep):
        # each solver partition, and 5 one-vertex recolourings of it
        rng = random.Random(12)
        compared = rejected = 0
        for rec in sweep.records:
            if rec.partition is None:
                continue
            vs = sorted(rec.H.vertices)
            candidates = [rec.partition]
            for _ in range(5):
                v = rng.choice(vs)
                others = [c for c in range(1, rec.f.p + 1) if c != rec.partition[v]]
                candidates.append({**rec.partition, v: rng.choice(others)})
            for P in candidates:
                ok = dp.verify_partition(rec.H, rec.f, P)
                assert ok == reference_verify_partition(rec.H, rec.f, P)
                W = dp.partition_weight(rec.H, rec.f, P)
                assert W == reference_partition_weight(rec.H, rec.f, P)
                compared += 1
                rejected += not ok
        assert compared > 50_000 and rejected > 1000

    def test_matches_reference_on_random_partitions(self):
        rng = random.Random(5)
        accepted = rejected = with_empty_class = 0
        for seed in range(3000):
            p = rng.randint(1, 5)
            H = dp.random_hypergraph(rng.randint(1, 8), rng.randint(0, 12), seed=seed)
            f = VectorFunction(p, {v: tuple(rng.randint(0, 3) for _ in range(p)) for v in H.vertices})
            P = {v: rng.randint(1, p) for v in H.vertices}
            ok = dp.verify_partition(H, f, P)
            assert ok == reference_verify_partition(H, f, P)
            assert dp.partition_weight(H, f, P) == reference_partition_weight(H, f, P)
            accepted += ok
            rejected += not ok
            with_empty_class += len(set(P.values())) < p
        assert accepted > 500 and rejected > 500 and with_empty_class > 500

    @pytest.mark.parametrize("P", [
        {"v1": 1},                                 # partial
        {f"v{i}": 1 for i in range(1, 6)},         # a vertex outside H
        {f"v{i}": i % 3 for i in range(1, 5)},     # classes 0 and 2 of 1..2
    ])
    def test_rejects_partial_or_out_of_range(self, P):
        # partition_weight used to skip such vertices: {"v1": 1} gave -1
        H = dp.cycle(4)
        f = const(H, (1, 1))
        assert not dp.verify_partition(H, f, P)
        with pytest.raises(ValueError):
            dp.partition_weight(H, f, P)


class TestDomainCheck:
    """f missing a vertex of H used to end in KeyError: 'v3' in each of these."""

    CALLS = {
        "verify_partition": lambda H, f: dp.verify_partition(H, f, {"v1": 1, "v2": 2, "v3": 1}),
        "partition_weight": lambda H, f: dp.partition_weight(H, f, {"v1": 1, "v2": 2, "v3": 1}),
        "enforce_degree_bounds": lambda H, f: dp.enforce_degree_bounds(H, f, {"v1": 1, "v2": 2, "v3": 1}),
        "reduce_pair": lambda H, f: dp.reduce_pair(H, f, "v1", 1),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_vector_function_missing_a_vertex(self, name):
        H = dp.path(3)
        f = VectorFunction(2, {"v1": (1, 1), "v2": (1, 1)})
        with pytest.raises(ValueError, match="vector function domain does not match the hypergraph"):
            self.CALLS[name](H, f)


class TestEnforceDegreeBounds:
    def test_already_satisfying_unchanged(self):
        H = dp.cycle(4)
        f = const(H, (1, 1))
        P = dp.solve(H, f).partition
        assert dp.enforce_degree_bounds(H, f, P) == P

    def test_layered_wheel_instance(self):
        H = layered_wheel_instance()
        f = const(H, (3, 3))
        res = dp.solve(H, f)
        P = dp.enforce_degree_bounds(H, f, res.partition)
        for i in (1, 2):
            X = frozenset(v for v, c in P.items() if c == i)
            Hi = H.induced(X)
            assert dp.col(Hi) <= 3
            assert Hi.max_degree() <= 3

    def test_weight_strictly_decreases(self):
        moved = 0
        for H, f in refinement_instances(30):
            res = dp.solve(H, f)
            if res.partition is None:
                continue
            trace = []
            W0 = dp.partition_weight(H, f, res.partition)
            P = dp.enforce_degree_bounds(H, f, res.partition, trace=trace)
            assert dp.verify_partition(H, f, P)
            weights = [W0] + trace
            assert all(a > b for a, b in zip(weights, weights[1:]))
            moved += len(trace)
            for v, i in P.items():
                X = frozenset(u for u, c in P.items() if c == i)
                assert sum(1 for e in H.edges_at(v) if H.incidence(e) <= X) <= f[v][i - 1]
        # the uneven splits need proper moves
        assert moved > 0

    def test_matches_reference_on_refinement_instances(self):
        moved = 0
        for H, f in refinement_instances(30):
            P = dp.solve(H, f).partition
            if P is None:
                continue
            trace, ref_trace = [], []
            refined = dp.enforce_degree_bounds(H, f, P, trace)
            assert refined == reference_enforce_degree_bounds(H, f, P, ref_trace)
            assert trace == ref_trace
            moved += len(trace)
        assert moved > 100

    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("spread", [False, True])
    def test_matches_reference_with_more_classes(self, p, spread):
        # f = (k, ..., k) with p*k >= Delta, or each d(v) + 1 spread at random
        # over the p classes, from the solver's partition and from random
        # valid ones, where the target class is not forced
        moved = 0
        for seed in range(60):
            H = dp.random_hypergraph(10, 24, seed=seed, connected=True)
            rng = random.Random(seed)
            vs = sorted(H.vertices)
            f = const(H, (-(-H.max_degree() // p),) * p)
            if spread:
                draws = {v: Counter(rng.choices(range(p), k=H.degree(v) + 1)) for v in vs}
                f = VectorFunction(p, {v: tuple(draws[v][i] for i in range(p)) for v in vs})
            starts = [dp.solve(H, f).partition]
            starts += [{v: rng.randint(1, p) for v in vs} for _ in range(10)]
            for P in starts:
                if P is None or not reference_verify_partition(H, f, P):
                    continue
                trace, ref_trace = [], []
                refined = dp.enforce_degree_bounds(H, f, P, trace)
                assert refined == reference_enforce_degree_bounds(H, f, P, ref_trace)
                assert trace == ref_trace
                moved += len(trace)
        assert moved > 20

    def test_move_goes_below_the_bound(self):
        # c has two neighbours in class 1 and one in class 2, with f(c) = (1, 1, 1):
        # class 2 would hold c at its bound, so c moves to class 3
        H = Hypergraph(["c", "a1", "a2", "b"], {"e1": ("c", "a1"), "e2": ("c", "a2"), "e3": ("c", "b")})
        f = VectorFunction(3, {"c": (1, 1, 1), "a1": (2, 2, 2), "a2": (2, 2, 2), "b": (2, 2, 2)})
        P = {"c": 1, "a1": 1, "a2": 1, "b": 2}
        assert dp.enforce_degree_bounds(H, f, P) == {**P, "c": 3}

    def test_invalid_partition_rejected(self):
        H = dp.cycle(5)
        f = const(H, (2, 2))
        with pytest.raises(ValueError):
            dp.enforce_degree_bounds(H, f, {v: 3 for v in H.vertices})

"""End-to-end acceptance checks.

Each test is one criterion; `pytest -v` gives one pass/fail line apiece.
The shared session `sweep` fixture (see conftest) supplies the seeded
corpus of small instances with recognizer, solver, and oracle verdicts.
"""

import itertools
import random
import subprocess
import sys

import pytest

import degenpart as dp
from degenpart.hardpair import VectorFunction
from degenpart.instancefile import emit_instance
from conftest import layered_wheel_instance, reference_multiplicity, refinement_instances


def test_1_recognizer_solver_oracle_equivalence(sweep):
    assert sweep.instances >= 2000
    disagreements = 0
    for rec in sweep.records:
        if rec.hard == rec.oracle_partitionable:
            disagreements += 1
        if rec.oracle_partitionable:
            assert rec.partition is not None
            assert dp.verify_partition(rec.H, rec.f, rec.partition)
        else:
            assert rec.partition is None
    assert disagreements == 0


def test_2_hard_pair_closure_and_perturbation():
    failures = 0
    for seed in range(500):
        rng = random.Random(seed)
        p = rng.randint(2, 4)
        H, f = dp.make_hard(dp.random_hard_plan(seed, max_blocks=4, p=p), p, seed=seed)
        cert = dp.is_hard(H, f)
        if cert is None or not dp.verify_certificate(H, f, cert):
            failures += 1
            continue
        for v in sorted(H.vertices):
            for j in range(1, p + 1):
                vec = list(f[v])
                vec[j - 1] += 1
                g = f.with_value(v, tuple(vec))
                if dp.is_hard(H, g) is not None:
                    failures += 1
                    continue
                res = dp.solve(H, g)
                if res.partition is None or not dp.verify_partition(H, g, res.partition):
                    failures += 1
    assert failures == 0


def test_3_reference_instances():
    # (a) doubled complete graph and tripled odd cycle classify by shape
    B = dp.t_fold(dp.complete_uniform(4, 2), 2)
    fB = VectorFunction.constant(B.vertices, (0, 4, 2))
    assert isinstance(dp.classify_block(B, fB), dp.KTag)

    B = dp.t_fold(dp.cycle(5), 3)
    fB = VectorFunction.constant(B.vertices, (3, 3, 0))
    assert isinstance(dp.classify_block(B, fB), dp.CTag)

    # (b) the max-degree-6 hypergraph splits into two parts that are both
    # strictly 3-degenerate and of maximum degree <= 3
    H = layered_wheel_instance()
    assert H.max_degree() == 6
    P = dp.degree_constrained_partition(H, (3, 3))
    for i in (1, 2):
        Hi = H.induced(frozenset(v for v, c in P.items() if c == i))
        assert dp.col(Hi) <= 3
        assert Hi.max_degree() <= 3


def test_4_choosability_census():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    exceptions = 0
    checked = 0
    for G in graph_atlas_g():
        if G.number_of_nodes() < 2 or G.number_of_nodes() > 7:
            continue
        if not nx.is_connected(G):
            continue
        H = dp.Hypergraph(
            {str(v) for v in G.nodes},
            {f"e{k}": (str(a), str(b)) for k, (a, b) in enumerate(G.edges, 1)},
        )
        n, delta = H.order, H.max_degree()
        is_complete = H.size == n * (n - 1) // 2 and delta == n - 1
        is_odd_cycle = n % 2 == 1 and n >= 3 and all(H.degree(v) == 2 for v in H.vertices) and H.size == n
        equality = not dp.is_k_choosable(H, delta)  # chi_list == delta + 1
        if equality != (is_complete or is_odd_cycle):
            exceptions += 1
        checked += 1
    assert checked >= 850
    assert exceptions == 0

    # hypergraph samples: single-edge hypergraphs join the equality cases
    for seed in range(150):
        H = dp.random_hypergraph(5, random.Random(seed).randint(1, 6), seed=seed, connected=True)
        delta = H.max_degree()
        n = H.order
        single_edge = H.size == 1
        is_complete = dp.t_fold_complete_parameters(H) == (1, n) and n >= 2
        is_odd_cycle = n % 2 == 1 and dp.t_fold_cycle_parameters(H) == (1, n)
        assert dp.is_k_choosable(H, delta + 1)
        equality = not dp.is_k_choosable(H, delta)
        assert equality == (is_complete or is_odd_cycle or single_edge)


def test_5_invariant_suite(sweep):
    # degree law under shrinking one vertex away: 10^4 exact checks
    checks = 0
    rng = random.Random(424242)
    while checks < 10**4:
        H = dp.random_hypergraph(rng.randint(2, 6), rng.randint(1, 8), seed=rng.randrange(2**32))
        vs = sorted(H.vertices)
        v = rng.choice(vs)
        Hv = H.shrink_away(v)
        for u in vs:
            if u == v:
                continue
            assert Hv.degree(u) == H.degree(u) - reference_multiplicity(H, u, v)
            checks += 1

    # reductions of small non-partitionable pairs stay non-partitionable
    reduced = 0
    for rec in sweep.records:
        if rec.oracle_partitionable or rec.H.order > 4 or reduced > 400:
            continue
        sep = dp.separating_vertices(rec.H)
        for z in sorted(rec.H.vertices - sep):
            for j in range(1, rec.f.p + 1):
                if rec.f[z][j - 1] == 0:
                    continue
                H2, f2 = dp.reduce_pair(rec.H, rec.f, z, j)
                if H2.is_empty:
                    continue
                assert not dp.brute_partitionable(H2, f2).partitionable
                reduced += 1
    assert reduced > 100

    # structural properties of hard pairs from the sweep:
    # (a) degree equality, (b) two non-separating vertices of a block carry
    # equal vectors or share one support coordinate, (c) multiplicity bound
    hard_seen = 0
    for rec in sweep.records:
        if not rec.hard or hard_seen > 300:
            continue
        hard_seen += 1
        H, f = rec.H, rec.f
        assert all(f.sum_at(v) == H.degree(v) for v in H.vertices)
        bt = dp.blocks(H)
        for b in bt.blocks:
            free = sorted(b - bt.cut_vertices)
            for u, w in itertools.combinations(free, 2):
                if f[u] != f[w]:
                    nz = {j for vec in (f[u], f[w]) for j, x in enumerate(vec) if x}
                    assert len(nz) <= 1
        sep = dp.separating_vertices(H)
        for z in sorted(H.vertices - sep):
            for j, x in enumerate(f[z]):
                if x:
                    for v in sorted(H.vertices - {z}):
                        assert f[v][j] >= reference_multiplicity(H, z, v)
    assert hard_seen > 50

    # degree-bound shifting: weight strictly decreases, terminates within
    # the initial-minus-minimum weight budget
    shifted = moved = 0
    for H, f in refinement_instances(60):
        res = dp.solve(H, f)
        if res.partition is None:
            continue
        trace = []
        W0 = dp.partition_weight(H, f, res.partition)
        P = dp.enforce_degree_bounds(H, f, res.partition, trace=trace)
        weights = [W0] + trace
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert len(trace) <= W0 - dp.partition_weight(H, f, P)
        shifted += 1
        moved += len(trace)
    assert shifted > 20
    assert moved > 0


def test_6_cli_determinism(tmp_path):
    H5 = dp.cycle(5)
    H4 = dp.cycle(4)
    cases = [
        (["partition"], emit_instance(H4, VectorFunction.constant(H4.vertices, (1, 1)))),
        (["partition"], emit_instance(H5, VectorFunction.constant(H5.vertices, (1, 1)))),
        (["is-hard"], emit_instance(H5, VectorFunction.constant(H5.vertices, (1, 1)))),
        (["refine-degrees"], emit_instance(H4, VectorFunction.constant(H4.vertices, (1, 1)))),
        (["blocks"], emit_instance(layered_wheel_instance())),
        (["col"], emit_instance(layered_wheel_instance())),
        (["list-color"], emit_instance(H4, lists={v: {"1", "2"} for v in H4.vertices})),
        (["alpha", "--s", "2"], emit_instance(dp.complete_uniform(5, 2))),
        (["gen", "hard", "--seed", "11", "--p", "3"], ""),
        (["oracle-check", "--count", "25", "--seed", "5"], ""),
    ]
    for argv, text in cases:
        if argv[0].startswith(("gen", "oracle-check")):
            full = argv
        else:
            path = tmp_path / "in.hg"
            path.write_text(text)
            full = [argv[0], str(path)] + argv[1:]
        runs = [
            subprocess.run(
                [sys.executable, "-m", "degenpart.cli"] + full,
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode


def test_7_no_exhaustive_fallbacks(sweep):
    # the solver builds one assignment and checks it once: nothing is
    # enumerated or retried, and no partitionable instance goes unsolved
    for rec in sweep.records:
        if not rec.hard or rec.oracle_partitionable:
            assert rec.partition is not None
        assert rec.verify_calls == (1 if rec.partition is not None else 0)

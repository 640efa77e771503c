import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import degenpart as dp
from degenpart.hypergraph import Hypergraph
from degenpart.structure import _skeleton_adjacency, block_forest, blocks, rooted_blocks
from conftest import disconnected_instance, reference_components


class TestComponents:
    def test_cycle_one_component(self):
        assert dp.components(dp.cycle(5)) == [dp.cycle(5).vertices]

    def test_disjoint_union(self):
        H = Hypergraph("abcde", {"e1": "ab", "e2": "bc", "e3": "de"})
        assert [sorted(c) for c in dp.components(H)] == [["a", "b", "c"], ["d", "e"]]

    def test_hyperedge_connects(self):
        H = Hypergraph("abc", {"x": "abc"})
        assert dp.is_connected(H)

    def test_empty(self):
        assert dp.components(Hypergraph(())) == reference_components(Hypergraph(())) == []


class TestComponentsMatchReference:
    """The skeleton search's components equal the hyperedge search's: the
    same sets in the same order."""

    def test_sweep_hypergraphs(self, sweep):
        for H in {id(r.H): r.H for r in sweep.records}.values():
            assert dp.components(H) == reference_components(H)

    def test_disconnected_instances(self):
        for seed in range(100):
            H, _ = disconnected_instance(seed)
            assert dp.components(H) == reference_components(H)

    def test_isolated_vertices(self):
        isolated = 0
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(1, 30)
            H = dp.random_hypergraph(n, rng.randint(0, n // 2), max_arity=4, seed=seed)
            got = dp.components(H)
            assert got == reference_components(H)
            isolated += sum(len(c) == 1 for c in got)
        assert isolated > 60


class TestSeparatingVertices:
    def test_path(self):
        H = Hypergraph("abc", {"e1": "ab", "e2": "bc"})
        assert dp.separating_vertices(H) == {"b"}

    def test_single_hyperedge_has_none(self):
        assert dp.separating_vertices(Hypergraph("abc", {"x": "abc"})) == frozenset()

    def test_two_hyperedges_sharing_a_vertex(self):
        H = Hypergraph("abcde", {"x": "abc", "y": "cde"})
        assert dp.separating_vertices(H) == {"c"}

    def test_cycle_has_none(self):
        assert dp.separating_vertices(dp.cycle(6)) == frozenset()

    def test_per_component(self):
        H = Hypergraph("abcde", {"e1": "ab", "e2": "bc", "e3": "de"})
        assert dp.separating_vertices(H) == {"b"}


class TestBlocks:
    def test_cycle_single_block(self):
        bt = dp.blocks(dp.cycle(6))
        assert len(bt.blocks) == 1 and not bt.cut_vertices

    def test_path_two_blocks(self):
        bt = dp.blocks(Hypergraph("abc", {"e1": "ab", "e2": "bc"}))
        assert sorted(sorted(b) for b in bt.blocks) == [["a", "b"], ["b", "c"]]
        assert bt.cut_vertices == {"b"}

    def test_single_vertex_is_a_block(self):
        bt = dp.blocks(Hypergraph("a"))
        assert bt.blocks == (frozenset("a"),)

    def test_errors(self):
        with pytest.raises(ValueError):
            dp.blocks(Hypergraph(()))
        with pytest.raises(ValueError):
            dp.blocks(Hypergraph("ab"))

    @pytest.mark.parametrize(
        "H",
        [
            Hypergraph("abcd", {"e1": "ab", "e2": "cd"}),
            Hypergraph("abcde", {"e1": "ab", "e2": "bc", "e3": "ca"}),
            Hypergraph("abcdef", {"x": "abc", "y": "def"}),
            Hypergraph("abcd", {"e1": "bc", "e2": "cd", "e3": "db"}),
        ],
    )
    def test_disconnected_input_raises(self, H):
        with pytest.raises(ValueError, match="disconnected"):
            dp.blocks(H)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty"):
            dp.blocks(Hypergraph(()))

    def test_barbell(self):
        # two triangles joined by a path through m
        H = Hypergraph(
            "abcmxyz",
            {
                "e1": "ab", "e2": "bc", "e3": "ca",
                "e4": "cm", "e5": "mx",
                "e6": "xy", "e7": "yz", "e8": "zx",
            },
        )
        bt = dp.blocks(H)
        assert sorted(sorted(b) for b in bt.blocks) == [
            ["a", "b", "c"], ["c", "m"], ["m", "x"], ["x", "y", "z"],
        ]
        assert bt.cut_vertices == {"c", "m", "x"}

    def test_hyperedge_block_chain(self):
        H = Hypergraph("abcde", {"x": "abc", "y": "cde"})
        bt = dp.blocks(H)
        assert sorted(sorted(b) for b in bt.blocks) == [["a", "b", "c"], ["c", "d", "e"]]
        B0 = H.induced(bt.blocks[0])
        assert B0.size == 1


def definitional_separating(H):
    """Reference: shrink each vertex away and test what is left for connectivity."""
    out = set()
    for comp in dp.components(H):
        if len(comp) <= 2:
            continue
        Hc = H.induced(comp)
        for v in comp:
            Hv = Hc.shrink_away(v)
            if not Hv.is_empty and not dp.is_connected(Hv):
                out.add(v)
    return frozenset(out)


def brute_separating(H):
    """v separates its component iff the rest splits into two non-empty
    sides no surviving edge straddles (edges meeting only v don't count)."""
    import itertools

    out = set()
    for comp in dp.components(H):
        Hc = H.induced(comp)
        for v in comp:
            rest = sorted(comp - {v})
            if len(rest) < 2:
                continue
            straddling = [m - {v} for m in Hc.edges().values() if len(m - {v}) >= 2]
            for r in range(1, len(rest)):
                for left in itertools.combinations(rest, r):
                    X = set(left)
                    if not any(m & X and m - X for m in straddling):
                        out.add(v)
                        break
                if v in out:
                    break
    return out


class TestBlockInvariantsRandom:
    @pytest.mark.parametrize("seed", range(60))
    def test_block_decomposition_invariants(self, seed):
        H = dp.random_hypergraph(7, 9, seed=seed, connected=True)
        bt = blocks(H)
        covered = set().union(*bt.blocks)
        assert covered == H.vertices
        for i in range(len(bt.blocks)):
            for j in range(i + 1, len(bt.blocks)):
                assert len(bt.blocks[i] & bt.blocks[j]) <= 1
        # a separating vertex is exactly a vertex of >= 2 blocks
        multi = {v for v in H.vertices if sum(v in b for b in bt.blocks) >= 2}
        assert multi == dp.separating_vertices(H)
        assert bt.cut_vertices == multi
        # every edge lies in exactly one block
        for e in H.edge_ids:
            holders = [b for b in bt.blocks if H.incidence(e) <= b]
            assert len(holders) == 1
        # blocks themselves have no separating vertices
        for b in bt.blocks:
            B = H.induced(b)
            assert dp.is_connected(B)
            assert not dp.separating_vertices(B)

    @pytest.mark.parametrize("seed", range(25))
    def test_definitional_cross_check(self, seed):
        # 12 instances per seed: possibly disconnected, with isolated
        # vertices, hyperedges of arity <= 4 and parallel edges, n <= 12
        for k in range(12):
            rng = random.Random(100 + 12 * seed + k)
            n = rng.randint(1, 12)
            H = dp.random_hypergraph(
                n, rng.randint(0, 2 * n), max_arity=4, max_mult=3, seed=rng.randrange(2**32)
            )
            sep = dp.separating_vertices(H)
            assert sep == definitional_separating(H)
            if n <= 8:
                assert sep == brute_separating(H)


def sorted_dfs_blocks(H):
    """Reference: the blocks as a recursive Hopcroft-Tarjan search from the
    smallest vertex completes them when it visits neighbours in sorted
    order, stably sorted by smallest vertex."""
    adj = {v: sorted({u for e in H.edges_at(v) for u in H.incidence(e)} - {v}) for v in H.vertices}
    disc, low, pending, out = {}, {}, [], []

    def visit(v, parent):
        disc[v] = low[v] = len(disc)
        pending.append(v)
        for u in adj[v]:
            if u not in disc:
                visit(u, v)
                low[v] = min(low[v], low[u])
                if low[u] >= disc[v]:
                    comp = {v}
                    while u not in comp:
                        comp.add(pending.pop())
                    out.append(frozenset(comp))
            elif u != parent:
                low[v] = min(low[v], disc[u])

    visit(min(H.vertices), None)
    return tuple(sorted(out, key=min)) if out else (H.vertices,)


def _block_order_corpus():
    """Seeded connected multihypergraphs, some with edges of up to eight
    members, and hard pairs, many of them with several blocks sharing their
    smallest vertex."""
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(2, 16)
        yield dp.random_hypergraph(
            n, rng.randint(n // 2, 2 * n), max_arity=rng.randint(2, 4), max_mult=3,
            seed=seed, connected=True,
        )
    for seed in range(40):
        yield dp.make_hard(dp.random_hard_plan(seed, max_blocks=40, p=3), 3, seed=seed)[0]
    # a ring and a clique on an edge differ from four members on
    for seed in range(150, 210):
        rng = random.Random(seed)
        n = rng.randint(5, 16)
        yield dp.random_hypergraph(
            n, rng.randint(n // 4, n // 2), max_arity=rng.randint(5, 8), max_mult=2,
            seed=seed, connected=True,
        )


class TestBlockOrder:
    def test_matches_sorted_neighbour_search(self):
        ties = 0
        for H in _block_order_corpus():
            bs = blocks(H).blocks
            assert bs == sorted_dfs_blocks(H)
            ties += len({min(b) for b in bs}) < len(bs)
        assert ties >= 30

    def test_block_edge_multisets(self):
        # each block carries the edges of H inside it, counted with multiplicity
        folded = 0
        for H in _block_order_corpus():
            parts, _ = rooted_blocks(H)
            for _, b, es in parts:
                assert es == Counter(m for m in H.edges().values() if m <= b)
                folded += any(t > 1 for t in es.values())
            assert sum(t for _, _, es in parts for t in es.values()) == H.size
        assert folded >= 50

    def test_independent_of_hash_seed(self):
        script = (
            "import sys; sys.path[:0] = sys.argv[1:]\n"
            "import test_structure as t, degenpart as dp\n"
            "for H in t._block_order_corpus():\n"
            "    bt = dp.blocks(H)\n"
            "    print([sorted(b) for b in bt.blocks], sorted(bt.cut_vertices),"
            " sorted(dp.separating_vertices(H)))\n"
        )
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        runs = [
            subprocess.run(
                [sys.executable, "-c", script, here, src],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            for seed in ("0", "1")
        ]
        assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.count(b"\n") == 250


def _forest_corpus():
    """The block-order corpus, then disconnected instances, some with
    isolated vertices, and an edgeless one."""
    yield from _block_order_corpus()
    for seed in range(60):
        yield disconnected_instance(seed)[0]
    yield Hypergraph("cab")
    yield Hypergraph("abcdefg", {"e1": "bd", "e2": "dg", "e3": "gb", "x": "cef"})


class TestBlockForest:
    def test_each_component_matches_rooted_blocks(self):
        isolated = several = 0
        for H in _forest_corpus():
            forest = block_forest(H)
            assert [comp for comp, _, _ in forest] == dp.components(H)
            for comp, parts, rank in forest:
                assert (parts, rank) == rooted_blocks(H.induced(comp))
            isolated += sum(len(comp) == 1 for comp, _, _ in forest)
            several += len(forest) > 1
        assert isolated >= 20 and several >= 60

    def test_empty(self):
        assert block_forest(Hypergraph(())) == []

    def test_independent_of_hash_seed(self):
        script = (
            "import sys; sys.path[:0] = sys.argv[1:]\n"
            "import test_structure as t\n"
            "from degenpart.structure import block_forest\n"
            "for H in t._forest_corpus():\n"
            "    print([(sorted(c), [(e, sorted(b), sorted((sorted(m), t) for m, t in es.items()))"
            " for e, b, es in parts], rank) for c, parts, rank in block_forest(H)])\n"
        )
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        runs = [
            subprocess.run(
                [sys.executable, "-c", script, here, src],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            for seed in ("0", "1")
        ]
        assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.count(b"\n") == 312


class TestWideEdges:
    """One edge on all n vertices and one on half of them plus the last:
    each edge is a ring in the skeleton, not a clique."""

    n = 4000

    @pytest.fixture(scope="class")
    def H(self):
        vs = [f"v{i}" for i in range(1, self.n + 1)]
        return Hypergraph(vs, {"a": vs, "b": vs[: self.n // 2] + vs[-1:]})

    def test_skeleton_is_linear(self, H):
        entries = sum(map(len, _skeleton_adjacency(H.vertices, set(H.edges().values())).values()))
        assert entries <= 2 * sum(map(len, H.edges().values()))

    def test_one_block(self, H):
        bt = blocks(H)
        assert bt.blocks == (H.vertices,) and not bt.cut_vertices
        assert not dp.separating_vertices(H)
        assert dp.components(H) == [H.vertices]
        parts, rank = rooted_blocks(H)
        assert rank == [0]
        ((entry, bset, edges),) = parts
        assert entry == "v1" and bset == H.vertices
        assert edges == {H.incidence("a"): 1, H.incidence("b"): 1}

    def test_monoblock_certified(self, H):
        f = dp.VectorFunction.from_degrees(H, 1, 2)
        res = dp.solve(H, f)
        (cert,) = res.certificates.values()
        assert dp.verify_certificate(H, f, cert)

    def test_raised_monoblock_partitions_and_colours(self, H):
        f = dp.VectorFunction.from_degrees(H, 1, 2)
        f = f.with_value("v1", (f["v1"][0], 1))
        res = dp.solve(H, f)
        assert dp.verify_partition(H, f, res.partition)
        L = {v: set(range(1, H.degree(v) + 1)) for v in H.vertices}
        L["v1"].add(3)
        assert dp.is_proper(H, dp.list_color(H, L).coloring)

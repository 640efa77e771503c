import dataclasses
import importlib
import itertools
import random

import pytest

import degenpart as dp
from degenpart.hardpair import CTag, KTag, MTag, VectorFunction
from degenpart.hypergraph import Hypergraph
from degenpart.instancefile import emit_instance
from conftest import (
    balanced_plan,
    count_calls,
    disconnected_instance,
    disjoint_union,
    reference_is_hard,
    reference_emit_instance,
    reference_make_hard,
    reference_multiplicity,
)


class TestVectorFunction:
    def test_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            VectorFunction(2, {"a": (1,)})

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            VectorFunction(1, {"a": (-1,)})

    def test_from_degrees(self):
        H = dp.cycle(4)
        f = VectorFunction.from_degrees(H, 2, 3)
        assert f["v1"] == (0, 2, 0)

    def test_restrict_and_sum(self):
        f = VectorFunction(2, {"a": (1, 2), "b": (0, 0)})
        assert f.sum_at("a") == 3
        assert f.restrict(["a"]).vertices == {"a"}

    def test_restrict_names_unknown_vertices(self):
        # a ValueError, as Hypergraph.induced gives for the same mistake
        f = VectorFunction(2, {"a": (1, 0)})
        with pytest.raises(ValueError, match=r"restrict: \['y', 'zz'\] are not in the domain"):
            f.restrict(["zz", "a", "y"])

    def test_with_value_names_unknown_vertex(self):
        # a vertex outside the domain is an error here, not later in solve
        f = VectorFunction(2, {"a": (1, 0)})
        assert f.with_value("a", (0, 1))["a"] == (0, 1)
        with pytest.raises(ValueError, match=r"with_value: 'zz' is not in the domain"):
            f.with_value("zz", (1, 1))

    def test_with_value_checks_the_new_vector(self):
        # the other vectors are stored as they are; the new one is checked
        f = VectorFunction(2, {"a": (1, 0), "b": (0, 1)})
        assert f.with_value("b", [2, 3]) == VectorFunction(2, {"a": (1, 0), "b": (2, 3)})
        with pytest.raises(ValueError, match="length 1, expected 2"):
            f.with_value("a", (1,))
        with pytest.raises(ValueError, match="negative"):
            f.with_value("a", (1, -1))

    def test_coordinate(self):
        f = VectorFunction(2, {"a": (1, 2), "b": (0, 3)})
        assert f.coordinate(2) == {"a": 2, "b": 3}

    @pytest.mark.parametrize("j", [0, -1, 3])
    def test_coordinate_out_of_range(self, j):
        # j = 0 used to read f_p and j = p + 1 raised IndexError
        f = VectorFunction(2, {"a": (1, 2)})
        with pytest.raises(ValueError, match="out of range"):
            f.coordinate(j)


class TestClassifyBlock:
    def test_doubled_complete(self):
        B = dp.t_fold(dp.complete_uniform(4, 2), 2)
        fB = VectorFunction.constant(B.vertices, (0, 4, 2))
        assert dp.classify_block(B, fB) == KTag(2, (0, 2, 1))

    def test_tripled_odd_cycle(self):
        B = dp.t_fold(dp.cycle(5), 3)
        fB = VectorFunction.constant(B.vertices, (3, 3, 0))
        assert dp.classify_block(B, fB) == CTag(3, 1, 2)

    def test_monoblock_any_shape(self):
        B = Hypergraph("abcd", {"x": "abc", "y": "bcd", "z": "ad"})
        assert not dp.separating_vertices(B)
        fB = VectorFunction.from_degrees(B, 1, 2)
        assert dp.classify_block(B, fB) == MTag(1)

    def test_even_cycle_unclassified(self):
        B = dp.cycle(4)
        assert dp.classify_block(B, VectorFunction.constant(B.vertices, (1, 1))) is None

    def test_complete_single_support_is_monoblock(self):
        B = dp.complete_uniform(4, 2)
        fB = VectorFunction.constant(B.vertices, (3, 0))
        assert dp.classify_block(B, fB) == MTag(1)

    def test_triangle_is_complete_not_cycle(self):
        B = dp.t_fold(dp.cycle(3), 2)
        fB = VectorFunction.constant(B.vertices, (2, 2))
        assert dp.classify_block(B, fB) == KTag(2, (1, 1))

    def test_non_block_rejected(self):
        P = dp.path(3)
        with pytest.raises(ValueError):
            dp.classify_block(P, VectorFunction.constant(P.vertices, (1, 1)))
        D = Hypergraph("abcd", {"x": "ab", "y": "cd"})
        with pytest.raises(ValueError):
            dp.classify_block(D, VectorFunction.constant(D.vertices, (1, 0)))

    def test_zero_vector_single_vertex(self):
        B = Hypergraph("a")
        assert dp.classify_block(B, VectorFunction.constant("a", (0, 0))) == MTag(1)

    def test_domain_error_is_is_hards(self):
        B = dp.cycle(5)
        fB = VectorFunction.constant(["v1", "v2"], (1, 1))
        with pytest.raises(ValueError, match="vector function domain does not match the hypergraph"):
            dp.classify_block(B, fB)


class TestIsHard:
    def test_odd_cycle(self):
        H = dp.cycle(5)
        cert = dp.is_hard(H, VectorFunction.constant(H.vertices, (1, 1)))
        assert cert is not None and cert.tags == (CTag(1, 1, 2),)

    def test_complete(self):
        H = dp.complete_uniform(4, 2)
        cert = dp.is_hard(H, VectorFunction.constant(H.vertices, (1, 1, 1)))
        assert cert is not None and cert.tags == (KTag(1, (1, 1, 1)),)

    def test_degree_mismatch_fails_fast(self):
        H = dp.path(3)
        assert dp.is_hard(H, VectorFunction.constant(H.vertices, (1, 1))) is None

    def test_even_cycle_not_hard(self):
        H = dp.cycle(4)
        assert dp.is_hard(H, VectorFunction.constant(H.vertices, (1, 1))) is None

    def test_merge_of_two_monoblocks(self):
        H1 = dp.complete_uniform(3, 3)  # single hyperedge
        H2 = Hypergraph("xyz", {"w": "xyz"})
        H = dp.merge(H1, "v1", H2, "x", "m")
        values = {"v2": (1, 0), "v3": (1, 0), "y": (0, 1), "z": (0, 1), "m": (1, 1)}
        f = VectorFunction(2, values)
        cert = dp.is_hard(H, f)
        assert cert is not None
        assert all(isinstance(t, MTag) for t in cert.tags)
        assert sorted(t.j for t in cert.tags) == [1, 2]
        assert dp.verify_certificate(H, f, cert)

    def test_complete_share_on_other_shape_not_hard(self):
        # 6 edges and degree 3 at each of 4 vertices, as in K4, but not K4
        H = Hypergraph("abcd", {"h1": "abcd", "h2": "abcd", "e1": "ab", "e2": "cd"})
        f = VectorFunction.constant(H.vertices, (2, 1))
        assert dp.is_hard(H, f) is None
        assert dp.brute_partitionable(H, f).partitionable

    def test_disconnected_rejected(self):
        H = Hypergraph("abcd", {"e1": "ab", "e2": "cd"})
        with pytest.raises(ValueError, match="disconnected"):
            dp.is_hard(H, VectorFunction.constant(H.vertices, (1,)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dp.is_hard(Hypergraph(()), VectorFunction(1, {}))

    def test_residual_must_stay_nonnegative(self):
        # two triangles glued at m; f gives the glue vertex too little
        T1 = dp.complete_uniform(3, 2)
        T2 = Hypergraph("xyz", {"a": "xy", "b": "yz", "c": "zx"})
        H = dp.merge(T1, "v1", T2, "x", "m")
        values = {v: (2, 0) for v in H.vertices}
        values["m"] = (2, 2)  # degree 4, but each triangle demands (2, 0)
        f = VectorFunction(2, values)
        assert dp.is_hard(H, f) is None


class TestExhaustiveTinyEquivalence:
    def test_matches_oracle_on_all_tiny_pairs(self):
        # every connected H on <= 4 vertices from a seeded pool, all f with
        # row sums equal to the degrees
        rng = random.Random(99)
        pool = []
        for seed in range(40):
            H = dp.random_hypergraph(rng.randint(2, 4), rng.randint(1, 5), seed=seed, connected=True)
            pool.append(H)
        checked = 0
        for H in pool:
            vs = sorted(H.vertices)
            if any(H.degree(v) > 6 for v in vs):
                continue
            per_v = [
                [c for c in itertools.product(range(4), repeat=2) if sum(c) == H.degree(v)]
                for v in vs
            ]
            for combo in itertools.product(*per_v):
                f = VectorFunction(2, dict(zip(vs, combo)))
                hard = dp.is_hard(H, f) is not None
                assert hard != dp.brute_partitionable(H, f).partitionable
                checked += 1
        assert checked > 200


class TestCertificates:
    @pytest.mark.parametrize("seed", range(80))
    def test_make_hard_round_trip(self, seed):
        rng = random.Random(seed)
        p = rng.randint(2, 4)
        plan = dp.random_hard_plan(seed, max_blocks=4, p=p)
        H, f = dp.make_hard(plan, p, seed=seed)
        cert = dp.is_hard(H, f)
        assert cert is not None
        assert dp.verify_certificate(H, f, cert)

    def test_perturbed_block_function_fails(self):
        H = dp.cycle(5)
        f = VectorFunction.constant(H.vertices, (1, 1))
        cert = dp.is_hard(H, f)
        fns = dict(cert.block_functions[0])
        v = sorted(fns)[0]
        fns[v] = (fns[v][0] + 1, fns[v][1])
        bad = dp.HardPairCertificate(cert.blocks, cert.tags, (fns,))
        assert not dp.verify_certificate(H, f, bad)

    def test_even_cycle_claim_fails(self):
        H = dp.cycle(6)
        f = VectorFunction.constant(H.vertices, (1, 1))
        cert = dp.HardPairCertificate(
            (H.vertices,),
            (CTag(1, 1, 2),),
            ({v: (1, 1) for v in H.vertices},),
        )
        assert not dp.verify_certificate(H, f, cert)

    def test_verify_builds_blocks_without_induced_copies(self, monkeypatch):
        rng = random.Random(3)
        bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=3) for _ in range(60)]
        H, f = dp.make_hard(balanced_plan(bases), 3, seed=3)
        cert = dp.is_hard(H, f)
        calls = [0]
        induced = Hypergraph.induced

        def counting_induced(self, X):
            calls[0] += 1
            return induced(self, X)

        monkeypatch.setattr(Hypergraph, "induced", counting_induced)
        assert dp.verify_certificate(H, f, cert)
        fns = list(cert.block_functions)
        v = min(fns[-1])
        fns[-1] = {**fns[-1], v: tuple(x + 1 for x in fns[-1][v])}
        bad = dp.HardPairCertificate(cert.blocks, cert.tags, tuple(fns))
        assert not dp.verify_certificate(H, f, bad)
        assert calls[0] == 0

    def test_wrong_tag_type_fails(self):
        H = dp.cycle(5)
        f = VectorFunction.constant(H.vertices, (1, 1))
        cert = dp.is_hard(H, f)
        bad = dp.HardPairCertificate(cert.blocks, (KTag(1, (1, 1)),), cert.block_functions)
        assert not dp.verify_certificate(H, f, bad)

    @pytest.mark.parametrize(
        "H, vec, tag",
        [
            (dp.complete_uniform(3, 2), (2, 0), KTag(1, (2, 0))),  # one non-zero count
            (dp.complete_uniform(3, 2), (1, 1), KTag(1, (1, 1, 0))),  # counts longer than p
            (dp.complete_uniform(3, 2), (1, 1), CTag(1, 1, 2)),  # a triangle is no C block
            (dp.cycle(5), (2, 0), CTag(1, 1, 1)),  # k == l
            (dp.complete_uniform(5, 2), (2, 2), CTag(2, 1, 2)),  # K5 is no 2-fold C5
        ],
    )
    def test_invalid_tag_parameters_fail(self, H, vec, tag):
        # the block and its function are a genuine hard pair; only the tag is invalid
        f = VectorFunction.constant(H.vertices, vec)
        cert = dp.is_hard(H, f)
        assert dp.verify_certificate(H, f, cert)
        bad = dp.HardPairCertificate(cert.blocks, (tag,), cert.block_functions)
        assert not dp.verify_certificate(H, f, bad)

    @pytest.mark.parametrize(
        "vec, tag, share",
        [
            ((2, 2), KTag(1, (2, 2)), (2, 2)),  # slack: t * counts must sum to t * (n - 1)
            ((1, 1, 0), KTag(1, (1, 1)), (1, 1)),  # block function of the wrong length
        ],
    )
    def test_forged_triangle_certificate_fails(self, vec, tag, share):
        H = dp.complete_uniform(3, 2)
        f = VectorFunction.constant(H.vertices, vec)
        bad = dp.HardPairCertificate((H.vertices,), (tag,), (dict.fromkeys(H.vertices, share),))
        assert not dp.verify_certificate(H, f, bad)

    def test_shares_must_add_up_to_f(self):
        H = dp.cycle(5)
        cert = dp.is_hard(H, VectorFunction.constant(H.vertices, (1, 1)))
        assert not dp.verify_certificate(H, VectorFunction.constant(H.vertices, (2, 0)), cert)

    def test_negative_count_fails_even_when_shares_add_up(self):
        # a triangle with a pendant edge at each corner and f = (3, 0) on the
        # triangle is partitionable; a K share (3, -1) on the triangle plus
        # (0, 1) from each pendant monoblock would still add up to f
        H = Hypergraph("abcxyz", {"e1": "ab", "e2": "bc", "e3": "ca", "e4": "ax", "e5": "by", "e6": "cz"})
        f = VectorFunction(2, {**dict.fromkeys("abc", (3, 0)), **dict.fromkeys("xyz", (0, 1))})
        assert dp.is_hard(H, f) is None
        bt = dp.blocks(H)
        tags = tuple(KTag(1, (3, -1)) if len(b) == 3 else MTag(2) for b in bt.blocks)
        fns = tuple(dict.fromkeys(b, (3, -1)) if len(b) == 3 else dict.fromkeys(b, (0, 1)) for b in bt.blocks)
        assert not dp.verify_certificate(H, f, dp.HardPairCertificate(bt.blocks, tags, fns))

    @staticmethod
    def _mismatched(case):
        """A pair and a certificate that does not belong to it, as case says."""
        H, f = dp.make_hard(dp.random_hard_plan(3, max_blocks=4, p=3), 3, seed=3)
        cert = dp.is_hard(H, f)
        assert len(cert.blocks) > 1 and dp.verify_certificate(H, f, cert)
        if case == "empty":
            return Hypergraph(()), VectorFunction(3, {}), cert
        if case == "disconnected":
            part = dp.is_hard(*disjoint_union([("a.", H, f)]))
            return (*disjoint_union([("a.", H, f), ("b.", H, f)]), part)
        if case == "reversed":
            return H, f, dp.HardPairCertificate(cert.blocks[::-1], cert.tags[::-1], cert.block_functions[::-1])
        if case == "tag dropped":
            return H, f, dp.HardPairCertificate(cert.blocks, cert.tags[:-1], cert.block_functions)
        return H, VectorFunction(3, {**dict(f.items()), "extra": (0, 0, 0)}), cert

    @pytest.mark.parametrize("case", ["empty", "disconnected", "reversed", "tag dropped", "extra vertex in f"])
    def test_mismatched_certificate_returns_false(self, case):
        assert dp.verify_certificate(*self._mismatched(case)) is False

    def test_classify_block_returns_certificate_tags(self):
        for seed in range(200):
            p = random.Random(seed).randint(2, 4)
            H, f = dp.make_hard(dp.random_hard_plan(seed, max_blocks=4, p=p), p, seed=seed)
            cert = dp.is_hard(H, f)
            for bset, tag, fB in zip(cert.blocks, cert.tags, cert.block_functions):
                assert dp.classify_block(H.induced(bset), VectorFunction(p, fB)) == tag


# (plan, p, message): the message in full, or up to "..." where Python's
# own text follows
INVALID_PLANS = [
    (("K", 1, (1, 1)), 3, "K plan parameters are invalid for p = 3"),  # len(counts) != p
    (("K", 1, (2, 0)), 2, "K plan parameters are invalid for p = 2"),  # one non-zero count
    (("K", 0, (1, 1)), 2, "t_fold needs t >= 1, got 0"),  # t = 0
    (("C", 0, 5, 1, 2), 2, "t_fold needs t >= 1, got 0"),  # t = 0
    (("C", 1, 6, 1, 2), 2, "C plan parameters are invalid for p = 2"),  # even n
    (("C", 1, 3, 1, 2), 2, "C plan parameters are invalid for p = 2"),  # n = 3
    (("C", 1, 5, 2, 2), 2, "C plan parameters are invalid for p = 2"),  # k == l
    (("C", 1, 5, 1, 3), 2, "C plan parameters are invalid for p = 2"),  # coordinate out of range
    (("M", dp.cycle(4), 3), 2, "M plan parameters are invalid for p = 2"),  # j > p
    (("M", dp.path(3), 1), 2, "M plan block must be connected without separating vertices"),  # separating vertex
    (("merge", ("C", 1, 5, 1, 2), ("K", 1, (2, 0))), 2,
     "K plan parameters are invalid for p = 2"),  # invalid inside a merge
    (("merge", ("C", 1, 5, 1, 2)), 2, "not enough values to unpack (expected 3, got 2)"),  # one part
    (("merge", ("C", 1, 5, 1, 2), ("C", 1, 5, 1, 2), ("C", 1, 5, 1, 2)), 2,
     "too many values to unpack (expected 3..."),  # three parts
    (("K", 1), 2, "not enough values to unpack (expected 3, got 2)"),  # K tuple without counts
    (("X", 1), 2, "unknown plan kind 'X'"),
    ((), 2, "plan node () is not a non-empty tuple"),
    (("K", 1, 5), 2, "malformed K plan ('K', 1, 5): ..."),  # counts not a sequence
    (("C", "1", 5, 1, 2), 2, "malformed C plan ('C', '1', 5, 1, 2): ..."),  # t not an integer
    (("M", "abc", 1), 2, "malformed M plan ('M', 'abc', 1): ..."),  # M block not a hypergraph
    (("M", Hypergraph(()), 1), 2, "blocks: empty hypergraph"),
    (("M", Hypergraph("abcd", {"x": "ab", "y": "cd"}), 1), 2, "blocks: disconnected hypergraph (iterate components)"),
    (("K", 1, (0, 0)), 2, "complete_uniform needs n >= 2 and 2 <= q <= n, got n=1, q=2"),  # K_1
    (("C", 1, 1, 1, 2), 2, "cycle needs n >= 3, got 1"),
    (("K", 2.0, (1, 1)), 2, "malformed K plan ('K', 2.0, (1, 1)): ..."),  # t not an integer
    # a parameter equal to an earlier block's, but of another type, is checked anew
    (("merge", ("C", 1, 5, 1, 2), ("C", 1, 5.0, 1, 2)), 2, "malformed C plan ('C', 1, 5.0, 1, 2): ..."),
    (("merge", ("M", dp.cycle(4), 1), ("M", dp.cycle(4), 1.0)), 2,
     "malformed M plan ('M', Hypergraph(4 vertices, 4 edges), 1.0): ..."),
    # t of 1.0 or True would give f-values that emit_instance writes and parse_instance refuses
    (("C", 1.0, 5, 1, 2), 2, "malformed C plan ('C', 1.0, 5, 1, 2): t, k, l, j and the counts must be ints, ..."),
    (("C", True, 5, 1, 2), 2, "malformed C plan ('C', True, 5, 1, 2): t, k, l, j and the counts must be ints, ..."),
    (("K", 1.0, (1, 1)), 2, "malformed K plan ('K', 1.0, (1, 1)): t, k, l, j and the counts must be ints, ..."),
]


class TestMakeHardRejectsInvalidPlans:
    @pytest.mark.parametrize(
        "plan, p, message", INVALID_PLANS, ids=[f"plan{i}-{p}" for i, (_, p, _) in enumerate(INVALID_PLANS)]
    )
    def test_raises(self, plan, p, message):
        with pytest.raises(ValueError) as info:
            dp.make_hard(plan, p)
        if message.endswith("..."):
            assert str(info.value).startswith(message[:-3])
        else:
            assert str(info.value) == message

    def test_list_counts_build(self):
        plan = ("merge", ("K", 2, [1, 0, 2]), ("K", 2, (1, 0, 2)))
        H, f = dp.make_hard(plan, 3, seed=5)
        assert (H, f) == reference_make_hard(("merge", ("K", 2, (1, 0, 2)), ("K", 2, (1, 0, 2))), 3, seed=5)


def _chain(parts):
    plan = parts[0]
    for part in parts[1:]:
        plan = ("merge", plan, part)
    return plan


def _with_t(base, t: int):
    """A one-block plan with its block's edges t-fold."""
    if base[0] == "M":
        return ("M", dp.t_fold(base[1], t), base[2])
    return (base[0], t, *base[2:])


def _assert_matches_reference(plan, p: int, seed: int) -> None:
    """make_hard's pair, and its text, are the reference's."""
    H, f = dp.make_hard(plan, p, seed=seed)
    R, g = reference_make_hard(plan, p, seed=seed)
    assert (H, f) == (R, g)
    assert emit_instance(H, f) == reference_emit_instance(R, g)


class TestMakeHardOnePass:
    """make_hard gives what recursive gluing with `merge` gives, at any depth."""

    def test_random_plans_match_reference(self):
        for seed in range(200):
            p = 1 + seed % 5
            _assert_matches_reference(dp.random_hard_plan(seed, max_blocks=8, p=p), p, seed=seed)

    @pytest.mark.parametrize("nblocks", [1, 2, 3, 17, 64])
    def test_balanced_plans_match_reference(self, nblocks):
        p = 2 + nblocks % 3
        rng = random.Random(nblocks)
        bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=p) for _ in range(nblocks)]
        _assert_matches_reference(balanced_plan(bases), p, seed=nblocks)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_250_block_balanced_plans_match_reference(self, p):
        # the benchmark's 250-block rung: one-block bases glued into a balanced plan
        rng = random.Random(250 + p)
        bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=p) for _ in range(250)]
        _assert_matches_reference(balanced_plan(bases), p, seed=p)

    @pytest.mark.parametrize("t", [2, 3])
    def test_t_fold_plans_match_reference(self, t):
        for seed in range(40):
            p = 2 + seed % 4
            rng = random.Random(seed)
            bases = [_with_t(dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=p), t) for _ in range(8)]
            _assert_matches_reference(balanced_plan(bases), p, seed=seed)

    def test_3000_block_chain_at_default_recursion_limit(self):
        rng = random.Random(3000)
        bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=3) for _ in range(3000)]
        H, f = dp.make_hard(_chain(bases), 3, seed=1)
        cert = dp.is_hard(H, f)
        assert cert is not None and len(cert.blocks) == 3000
        assert dp.verify_certificate(H, f, cert)


class TestIsHardAtScale:
    """300-block make_hard pairs: no oracle, the certificate checks itself."""

    @pytest.mark.parametrize("shape", [balanced_plan, _chain], ids=["balanced", "chain"])
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_certificate_and_raised_coordinate(self, shape, p):
        rng = random.Random(p)
        bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=p) for _ in range(300)]
        H, f = dp.make_hard(shape(bases), p, seed=p)
        cert = dp.is_hard(H, f)
        assert cert is not None and len(cert.blocks) == 300
        assert dp.verify_certificate(H, f, cert)
        v = rng.choice(sorted(H.vertices))
        j = rng.randrange(p)
        raised = f.with_value(v, tuple(x + (i == j) for i, x in enumerate(f[v])))
        assert dp.is_hard(H, raised) is None


class TestStripIsTotal:
    """No sum f = d test precedes the strip: a pair with sum f != d at some
    vertex fails the strip itself, so every component gets a verdict."""

    def test_one_coordinate_raised_or_lowered(self):
        checked = 0
        for seed in range(300):
            p = 1 + seed % 4
            H, f = dp.make_hard(dp.random_hard_plan(seed, max_blocks=10, p=p), p, seed=seed)
            rng = random.Random(seed)
            v = rng.choice(sorted(H.vertices))
            i = rng.randrange(p)
            for delta in (1, -1):
                if f[v][i] + delta < 0:
                    continue
                g = f.with_value(v, tuple(x + delta * (k == i) for k, x in enumerate(f[v])))
                assert dp.is_hard(H, g) is None and reference_is_hard(H, g) is None
                # beside the untouched pair, decided in one call
                U, h = disjoint_union([("a.", H, g), ("b.", H, f)])
                got = dp.hard_components(U, h)
                assert list(got) == dp.components(U)
                for comp, cert in got.items():
                    assert cert == reference_is_hard(U.induced(comp), h.restrict(comp))
                assert [cert is None for cert in got.values()] == [True, False]
                checked += 1
        assert checked >= 400

    def test_matches_reference_per_component(self):
        # slack, tight-but-not-hard and hard components, and isolated vertices
        hard = loose = 0
        for seed in range(100):
            H, f = disconnected_instance(seed)
            got = dp.hard_components(H, f)
            want = {comp: reference_is_hard(H.induced(comp), f.restrict(comp)) for comp in dp.components(H)}
            assert list(got.items()) == list(want.items())
            hard += sum(cert is not None for cert in got.values())
            loose += sum(any(f.sum_at(v) != H.degree(v) for v in comp) for comp in got)
        assert hard >= 50 and loose >= 50

    def test_domain_checked(self):
        H = Hypergraph("abcd", {"e1": "ab", "e2": "cd"})
        with pytest.raises(ValueError, match="vector function domain does not match the hypergraph"):
            dp.hard_components(H, VectorFunction.constant("abc", (1,)))
        assert dp.hard_components(Hypergraph(()), VectorFunction(1, {})) == {}


def _k4_with_pendant():
    # K_4 on b..e, entered through b from the pendant edge ab
    edges = {f"k{i}": uv for i, uv in enumerate(itertools.combinations("bcde", 2))}
    return Hypergraph("abcde", {**edges, "ab": "ab"})


def _one_extra(H, e):
    return Hypergraph(H.vertices, {**H.edges(), "extra": H.incidence(e)})


class TestIsHardMatchesReference:
    """The rooted strip gives the heap strip's verdict and certificate."""

    def test_plans_and_one_unit_moves(self):
        compared = hard = 0
        for seed in range(800):
            p = 1 + seed % 5
            H, f = dp.make_hard(dp.random_hard_plan(seed, max_blocks=12, p=p), p, seed=seed)
            pairs = [f]
            rng = random.Random(seed)
            vs = sorted(H.vertices)
            while p >= 2 and len(pairs) < 3:
                # move one unit between two coordinates of one vertex
                v = rng.choice(vs)
                i, j = rng.sample(range(p), 2)
                if f[v][i]:
                    pairs.append(f.with_value(v, tuple(x - (k == i) + (k == j) for k, x in enumerate(f[v]))))
            for g in pairs:
                cert = dp.is_hard(H, g)
                assert cert == reference_is_hard(H, g)
                compared += 1
                hard += cert is not None
        assert compared >= 2000
        assert 800 <= hard < compared

    @pytest.mark.parametrize("nblocks", [80, 250, 1000])
    def test_balanced_plans_and_one_unit_moves(self, nblocks):
        # the benchmark's shape of pair, past the random plans' 12 blocks
        rng = random.Random(nblocks)
        hard = 0
        for p in range(2, 7):
            bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=p) for _ in range(nblocks)]
            H, f = dp.make_hard(balanced_plan(bases), p, seed=rng.randrange(2**32))
            vs = sorted(H.vertices)
            pairs = [f]
            while len(pairs) < 3:
                v = rng.choice(vs)
                i, j = rng.sample(range(p), 2)
                if f[v][i]:
                    pairs.append(f.with_value(v, tuple(x - (k == i) + (k == j) for k, x in enumerate(f[v]))))
            for g in pairs:
                cert = dp.is_hard(H, g)
                assert cert == reference_is_hard(H, g)
                if cert is not None:
                    hard += 1
                    assert len(cert.blocks) == nblocks and dp.verify_certificate(H, g, cert)
        assert hard >= 5

    @pytest.mark.parametrize(
        "H, values, tags",
        [
            (dp.complete_uniform(3, 2), {"v1": (1, 1), "v2": (1, 1), "v3": (2, 0)}, None),
            (dp.complete_uniform(4, 2), {"v1": (1, 2), "v2": (1, 2), "v3": (1, 2), "v4": (2, 1)}, None),
            (_k4_with_pendant(), {"a": (1, 0), "b": (2, 2), "c": (1, 2), "d": (1, 2), "e": (2, 1)}, None),
            (_k4_with_pendant(), {"a": (1, 0), "b": (2, 2), "c": (1, 2), "d": (1, 2), "e": (1, 2)},
             (MTag(1), KTag(1, (1, 2)))),
            (_one_extra(dp.t_fold(dp.complete_uniform(3, 2), 2), "e1.1"),
             {"v1": (5, 0), "v2": (5, 0), "v3": (4, 0)}, (MTag(1),)),
            (_one_extra(dp.t_fold(dp.complete_uniform(3, 2), 2), "e1.1"),
             {"v1": (3, 2), "v2": (3, 2), "v3": (2, 2)}, None),
            (_one_extra(dp.t_fold(dp.cycle(5), 2), "e1.1"),
             {**dict.fromkeys(["v1", "v2"], (3, 2)), **dict.fromkeys(["v3", "v4", "v5"], (2, 2))}, None),
            (dp.t_fold(dp.cycle(3), 2), dict.fromkeys(["v1", "v2", "v3"], (2, 2)), (KTag(2, (1, 1)),)),
            (dp.t_fold(dp.cycle(3), 2), dict.fromkeys(["v1", "v2", "v3"], (2, 0, 2)), (KTag(2, (1, 0, 1)),)),
            (dp.t_fold(dp.cycle(3), 2), dict.fromkeys(["v1", "v2", "v3"], (1, 3)), None),
        ],
    )
    def test_named_blocks(self, H, values, tags):
        # blocks that the K and C shortcuts must not misread: pinned vectors
        # that differ, a t-fold block with one extra parallel edge, and a
        # 2-fold triangle, which is 2K_3 and too short for a C tag
        f = VectorFunction(len(next(iter(values.values()))), values)
        cert = dp.is_hard(H, f)
        assert cert == reference_is_hard(H, f)
        assert (cert and cert.tags) == tags
        assert cert is None or dp.verify_certificate(H, f, cert)


class TestIsHardCallCounts:
    def test_shape_tests_need_no_connectivity_or_pair_scans(self, monkeypatch):
        rng = random.Random(3)
        bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=3) for _ in range(60)]
        H, f = dp.make_hard(balanced_plan(bases), 3, seed=3)
        structure_module = importlib.import_module("degenpart.structure")
        counts: dict[str, int] = {}
        count_calls(monkeypatch, counts, structure_module, "components")
        cert = dp.is_hard(H, f)
        assert cert is not None and any(isinstance(tag, CTag) for tag in cert.tags)
        assert counts == {"components": 0}


class TestHardPairProperties:
    def _hard_samples(self, count=60):
        out = []
        for seed in range(count):
            rng = random.Random(seed)
            p = rng.randint(2, 3)
            H, f = dp.make_hard(dp.random_hard_plan(seed, max_blocks=3, p=p), p, seed=seed)
            out.append((H, f))
        return out

    def test_degree_equality(self):
        for H, f in self._hard_samples():
            assert all(f.sum_at(v) == H.degree(v) for v in H.vertices)

    def test_block_value_dichotomy(self):
        # any two non-separating vertices of one block: equal f, or both
        # concentrated on a single shared coordinate
        for H, f in self._hard_samples():
            bt = dp.blocks(H)
            for b in bt.blocks:
                free = sorted(b - bt.cut_vertices)
                for u, w in itertools.combinations(free, 2):
                    if f[u] == f[w]:
                        continue
                    nz = {j for vec in (f[u], f[w]) for j, x in enumerate(vec) if x}
                    assert len(nz) <= 1

    def test_multiplicity_lower_bound(self):
        # non-separating z with f_j(z) > 0 forces f_j(v) >= mu(z, v)
        for H, f in self._hard_samples():
            sep = dp.separating_vertices(H)
            for z in sorted(H.vertices - sep):
                for j, x in enumerate(f[z]):
                    if x == 0:
                        continue
                    for v in sorted(H.vertices - {z}):
                        assert f[v][j] >= reference_multiplicity(H, z, v)


def _hard_and_raised(seed):
    """A make_hard pair of up to 8 or up to 250 base blocks, and the same
    pair with one coordinate raised at one vertex."""
    rng = random.Random(seed)
    p = rng.choice((2, 3))
    plan = dp.random_hard_plan(rng.randrange(2**32), max_blocks=8 if seed % 4 else 250, p=p)
    H, f = dp.make_hard(plan, p, seed=rng.randrange(2**32))
    v = rng.choice(sorted(H.vertices))
    j = rng.randrange(p)
    return rng, H, f, f.with_value(v, tuple(x + (i == j) for i, x in enumerate(f[v])))


def _renamed(H, f, rng):
    """H and f with vertices and edges renamed by a random bijection, and the
    vertex bijection."""
    vs, es = sorted(H.vertices), H.edge_ids
    phi = dict(zip(vs, rng.sample([f"x{k}" for k in range(len(vs))], len(vs))))
    eps = dict(zip(es, rng.sample([f"y{k}" for k in range(len(es))], len(es))))
    H2 = Hypergraph(phi.values(), {eps[e]: [phi[v] for v in m] for e, m in H.edges().items()})
    return phi, H2, VectorFunction(f.p, {phi[v]: vec for v, vec in f.items()})


def _triples(cert, phi=None):
    """The certificate's (block, tag, share) triples, each vertex mapped by phi."""
    name = phi.__getitem__ if phi is not None else (lambda v: v)
    return {
        (frozenset(map(name, b)), tag, frozenset((name(v), share) for v, share in fn.items()))
        for b, tag, fn in zip(cert.blocks, cert.tags, cert.block_functions)
    }


def _checked_answer(H, f):
    """solve's answer, after it passed verify_partition or verify_certificate."""
    res = dp.solve(H, f)
    if res.partitionable:
        assert dp.verify_partition(H, f, res.partition)
    else:
        for comp, cert in res.certificates.items():
            assert dp.verify_certificate(H.induced(comp), f.restrict(comp), cert)
    return res


class TestMetamorphicPastTheOracle:
    """Hard pairs of up to 250 base blocks and their raised versions, whose
    verdicts are known by construction, checked by relations that need no
    oracle: renaming and t-folding keep the verdict and map the answer."""

    SEEDS = range(40)

    def test_renaming_keeps_verdicts_and_maps_certificates(self):
        for seed in self.SEEDS:
            rng, H, f, raised = _hard_and_raised(seed)
            for g in (f, raised):
                phi, H2, g2 = _renamed(H, g, rng)
                want, got = _checked_answer(H, g), _checked_answer(H2, g2)
                assert want.partitionable == got.partitionable == (g is raised)
                if g is f:
                    (comp, cert), = want.certificates.items()
                    (comp2, cert2), = got.certificates.items()
                    assert comp2 == frozenset(map(phi.__getitem__, comp))
                    # the canonical block order follows the names, so compare sets
                    assert _triples(cert2) == _triples(cert, phi)

    @pytest.mark.parametrize("t", [2, 3])
    def test_t_fold_scales_tags_and_shares(self, t):
        for seed in self.SEEDS:
            _, H, f, raised = _hard_and_raised(seed)
            Ht = dp.t_fold(H, t)
            for g in (f, raised):
                gt = VectorFunction(g.p, {v: tuple(t * x for x in vec) for v, vec in g.items()})
                want, got = _checked_answer(H, g), _checked_answer(Ht, gt)
                assert want.partitionable == got.partitionable == (g is raised)
                if g is f:
                    (cert,), (certt,) = want.certificates.values(), got.certificates.values()
                    assert certt.blocks == cert.blocks
                    assert certt.tags == tuple(
                        tag if isinstance(tag, MTag) else dataclasses.replace(tag, t=t * tag.t)
                        for tag in cert.tags
                    )
                    assert certt.block_functions == tuple(
                        {v: tuple(t * x for x in share) for v, share in fn.items()} for fn in cert.block_functions
                    )

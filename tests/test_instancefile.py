import contextlib
import io
import sys
from pathlib import Path

import pytest

import degenpart as dp
from degenpart.cli import main
from degenpart.hardpair import VectorFunction
from degenpart.hypergraph import Hypergraph
from degenpart.instancefile import (
    ParseError,
    emit_certificate,
    emit_certificates,
    emit_coloring,
    emit_instance,
    emit_partition,
    parse_certificates,
    parse_coloring,
    parse_instance,
    parse_partition,
)


class TestParse:
    def test_basic(self):
        inst = parse_instance("hg 2\nv a 1 0\nv b 0 1\ne e1 a b\n")
        assert inst.p == 2
        assert inst.H.vertices == {"a", "b"}
        assert inst.f["a"] == (1, 0)
        assert inst.lists is None

    def test_comments_and_blank_lines(self):
        text = "# instance\nhg 1\n\nv a 2  # trailing note\nv b 2\ne e1 a b\n"
        inst = parse_instance(text)
        assert inst.f["a"] == (2,)

    def test_lists(self):
        text = "hg 0\nv a\nv b\nl a 1 2\nl b 2 3\ne e1 a b\n"
        inst = parse_instance(text)
        assert inst.p == 0 and inst.f is None
        assert inst.lists == {"a": {"1", "2"}, "b": {"2", "3"}}

    def test_error_line_numbers(self):
        cases = [
            ("v a 1\n", 1, "missing"),
            ("hg 2\nv a 1\n", 2, "expected 2 values"),
            ("hg 1\nv a 1\nv a 1\n", 3, "duplicate vertex"),
            ("hg 1\nv a 1\ne e1 a a\n", 3, "loop"),
            ("hg 1\nv a 1\nv b 1\ne e1 a b c\n", 4, "unknown vertices"),
            ("hg 1\nv a -1\n", 2, "negative"),
            ("hg 1\nhg 1\n", 2, "duplicate header"),
            ("hg 1\nv a 1\nl a 1\n", 3, "hg 0"),
            ("hg 1\nv a 1\nq what\n", 3, "unknown record"),
            # numbers are ASCII decimals, as in the answers
            ("hg \u00b2\n", 1, "non-negative integer"),
            ("hg 1\nv a 1_0\n", 2, "non-negative integer"),
            ("hg 1\nv a +1\n", 2, "non-negative integer"),
            ("hg 1\nv a \u0663\n", 2, "non-negative integer"),
            ("", 0, "missing 'hg <p>' header"),
            # the first vertex record whose vertex has no list
            ("hg 0\nv a\nv b\nl a 1\ne e1 a b\n", 3, "vertices without lists: \\['b'\\]"),
        ]
        for text, line, frag in cases:
            with pytest.raises(ParseError, match=frag) as exc:
                parse_instance(text)
            assert exc.value.line_no == line

    def test_all_or_none_lists(self):
        with pytest.raises(ParseError, match="without lists"):
            parse_instance("hg 0\nv a\nv b\nl a 1\n")


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_parse_emit_fixpoint(self, seed):
        H = dp.random_hypergraph(6, 7, seed=seed)
        f = VectorFunction.from_degrees(H, 1, 2)
        text = emit_instance(H, f)
        inst = parse_instance(text)
        assert inst.H == H
        assert inst.f == f
        assert emit_instance(inst.H, inst.f) == text

    def test_lists_round_trip(self):
        H = dp.cycle(4)
        lists = {v: {"1", "2"} for v in H.vertices}
        text = emit_instance(H, lists=lists)
        inst = parse_instance(text)
        assert inst.lists == lists
        assert emit_instance(inst.H, lists=inst.lists) == text

    def test_emission_is_canonical(self):
        # scrambled input normalizes to one byte string
        a = "hg 1\nv b 1\nv a 1\ne z b a\ne y a b\n"
        b = "# x\nhg 1\n\nv a 1\nv b   1\ne y a b\ne z a b\n"
        out = [emit_instance(parse_instance(t).H, parse_instance(t).f) for t in (a, b)]
        assert out[0] == out[1]
        assert out[0] == "hg 1\nv a 1\nv b 1\ne y a b\ne z a b\n"

    def test_f_and_lists_exclusive(self):
        H = dp.path(2)
        with pytest.raises(ValueError):
            emit_instance(H, VectorFunction.constant(H.vertices, (1,)), {v: {"1"} for v in H.vertices})


def _renamed_c5(name: str):
    """C5 with (1, 1) everywhere and vertex v1 renamed."""
    H = dp.cycle(5)
    ren = {v: name if v == "v1" else v for v in H.vertices}
    H = Hypergraph(ren.values(), {e: [ren[v] for v in m] for e, m in H.edges().items()})
    return H, VectorFunction.constant(H.vertices, (1, 1))


class TestResults:
    def test_partition_round_trip(self):
        P = {"a": 1, "b": 2, "c": 1}
        text = emit_partition(P, 2)
        assert text == "partition 2\na a 1\na b 2\na c 1\n"
        assert parse_partition(text) == (P, 2)

    def test_coloring_round_trip(self):
        col = {"a": 1, "b": 2}
        text = emit_coloring(col)
        assert parse_coloring(text) == {"a": "1", "b": "2"}

    def test_certificate_round_trip(self):
        H = dp.cycle(5)
        f = VectorFunction.constant(H.vertices, (1, 1))
        cert = dp.is_hard(H, f)
        (back,) = parse_certificates(emit_certificate(cert))
        assert back == cert
        assert dp.verify_certificate(H, f, back)

    def test_multi_component_certificates(self):
        H = Hypergraph("abcdef", {"e1": "ab", "e2": "bc", "e3": "ca",
                                  "e4": "de", "e5": "ef", "e6": "fd"})
        f = VectorFunction.constant(H.vertices, (1, 1))
        res = dp.solve(H, f)
        text = emit_certificates(res.certificates)
        back = parse_certificates(text)
        assert len(back) == 2
        for comp, cert in zip(sorted(res.certificates, key=min), back):
            assert dp.verify_certificate(H.induced(comp), f.restrict(comp), cert)

    @pytest.mark.parametrize(
        "write",
        [
            lambda: emit_instance(Hypergraph(["a#b", "c d", "e"], {"x": ["a#b", "e"], "y": ["c d", "e"]})),
            lambda: emit_partition({"a#b": 1, "e": 2}, 2),
            lambda: emit_partition({"": 1, "e": 2}, 2),
            lambda: emit_instance(dp.path(2), lists={"v1": {"red", "dark\tblue"}, "v2": {"red"}}),
            lambda: emit_instance(Hypergraph(["a", "b"], {"e 1": ["a", "b"]})),
            lambda: emit_coloring({"a": "x#", "b": "y"}),
            lambda: emit_certificate(dp.is_hard(*_renamed_c5("v\u00a01"))),
        ],
        ids=["hash-and-space", "hash", "empty", "color-tab", "edge-space", "color-hash", "nbsp"],
    )
    def test_unreadable_names_are_refused(self, write):
        # each of these names would not read back as one word
        with pytest.raises(ValueError, match="cannot write the name"):
            write()

    def test_not_a_certificate(self):
        with pytest.raises(ParseError):
            parse_certificates("partition 2\na a 1\n")


class TestMalformedAnswers:
    """Each answer raises ParseError naming its offending line."""

    @pytest.mark.parametrize("reader, text, line", [
        (parse_partition, "partition 2\na v1\n", 2),                        # short record
        (parse_partition, "partition\na v1 1\n", 1),                         # no p
        (parse_partition, "partition x\na v1 1\n", 1),
        (parse_partition, "partition 2\na v1 1\na v2 2\na v1 2\n", 4),       # repeated vertex
        (parse_partition, "partition 2\na v1 1\npartition 2\n", 3),          # second header
        (parse_partition, "a v1 1\npartition 2\n", 1),                       # record before header
        (parse_partition, "partition 2\na v1 x\n", 2),
        (parse_coloring, "coloring\nc a\n", 2),
        (parse_coloring, "coloring\nc a 1\nc a 2\n", 3),
        (parse_coloring, "c a 1\ncoloring\n", 1),
        (parse_certificates, "certificate x\n", 1),
        (parse_certificates, "certificate 1\nb 1 v1\nt 1 M 1\nf 0 v1 1 0\n", 4),
        (parse_certificates, "certificate 1\nb 1 v1\nt 1 M 1\nf 9 v1 1 0\n", 4),
        (parse_certificates, "certificate 1\nb 1 v1\nt 1\n", 3),
        (parse_certificates, "certificate 1\nb 1 v1\nt 1 Q 1\n", 3),
        (parse_certificates, "certificate 1\nb 1 v1\nf 1 v1 0 0\n", 1),     # block with no 't' line
        (parse_certificates, "certificate 1\nb 1 v1\nt 1 M 1\nt 1 M 2\n", 4),
        (parse_certificates, "b 1 v1\ncertificate 1\n", 1),
    ])
    def test_raises_with_line(self, reader, text, line):
        with pytest.raises(ParseError) as exc:
            reader(text)
        assert str(exc.value).startswith(f"line {line}:")
        assert exc.value.line_no == line


def _bench_requests(workload):
    """The benchmark's requests of one workload at seed 7 (bench/workloads.py)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.GENERATORS[workload](7)


class TestBenchmarkAnswers:
    """Every answer the CLI gives on the benchmark's requests reads back to
    the library's value."""

    @pytest.mark.parametrize("workload, counts", [
        ("tight", {"partition": 111}),
        ("hard", {"certificate": 120}),
        ("slack", {"partition": 70, "coloring": 62}),
    ], ids=["tight", "hard", "slack"])
    def test_round_trip(self, tmp_path, workload, counts):
        seen = dict.fromkeys(counts, 0)
        for k, req in enumerate(_bench_requests(workload)):
            path = tmp_path / f"{k}.hg"
            path.write_text(req.text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([req.command, str(path)])
            assert code == req.expect_exit
            inst = parse_instance(req.text)
            if code == 2:
                assert parse_certificates(out.getvalue()) == [dp.is_hard(inst.H, inst.f)]
                seen["certificate"] += 1
            elif req.command == "list-color":
                coloring = dp.list_color(inst.H, inst.lists).coloring
                assert parse_coloring(out.getvalue()) == {v: str(c) for v, c in coloring.items()}
                seen["coloring"] += 1
            else:
                P, p = parse_partition(out.getvalue())
                assert p == inst.p and dp.verify_partition(inst.H, inst.f, P)
                seen["partition"] += 1
        assert seen == counts

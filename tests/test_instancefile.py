import contextlib
import functools
import io
import random
import sys
from pathlib import Path

import pytest

import degenpart as dp
from degenpart.cli import main
from degenpart.hardpair import VectorFunction
from degenpart.hypergraph import Hypergraph
from conftest import reference_edges_at, reference_emit_instance, reference_parse_instance
from degenpart.instancefile import (
    Instance,
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


ERROR_CASES = [
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
    # a header or record with too few or too many words
    ("hg\n", 1, "header must be 'hg <p>'"),
    ("hg 1 2\nv a 1\n", 1, "header must be 'hg <p>'"),
    ("hg 0\nv\n", 2, "vertex line needs a name"),
    ("hg 0\nv a\nv b\ne x a\n", 4, "edge line needs a name and at least two vertices"),
    ("hg 0\nv a\nl a\n", 3, "list line needs a vertex and at least one color"),
]


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
        for text, line, frag in ERROR_CASES:
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


class TestEmitInstanceDomain:
    """emit_instance refuses data that would not read back as given."""

    @pytest.mark.parametrize("values", [
        {"v1": (1, 1), "v2": (1, 1)},  # misses v3
        {"v1": (1, 1), "v2": (1, 1), "v3": (1, 1), "v4": (1, 1)},  # v4 is not a vertex
    ], ids=["missing-vertex", "extra-vertex"])
    def test_f_off_the_vertex_set(self, values):
        with pytest.raises(ValueError, match="^vector function domain does not match the hypergraph$"):
            emit_instance(dp.cycle(3), VectorFunction(2, values))

    @pytest.mark.parametrize("lists", [
        {"v1": {"1"}, "v2": {"1"}, "v3": {"1"}, "v4": {"1"}},  # v4 is not a vertex
        {"v1": {"1"}, "v2": {"1"}},  # v3 has no list
    ], ids=["unknown-vertex", "vertex-without-list"])
    def test_lists_off_the_vertex_set(self, lists):
        with pytest.raises(ValueError, match="^list assignment domain does not match the hypergraph$"):
            emit_instance(dp.cycle(3), lists=lists)

    def test_empty_list(self):
        with pytest.raises(ValueError, match="^empty list at 'v2'$"):
            emit_instance(dp.cycle(3), lists={"v1": {"1"}, "v2": set(), "v3": {"1"}})


class TestEmitsAsReference:
    """emit_instance writes the reference's text, byte for byte."""

    def test_sweep(self, sweep):
        for rec in sweep.records:
            assert emit_instance(rec.H, rec.f) == reference_emit_instance(rec.H, rec.f)
            assert emit_instance(rec.H) == reference_emit_instance(rec.H)

    def test_list_instances(self):
        rng = random.Random(28)
        for seed in range(200):
            H = dp.random_hypergraph(rng.randint(1, 12), rng.randint(0, 20), max_arity=4, seed=seed)
            lists = {v: {f"c{rng.randint(1, 12)}" for _ in range(rng.randint(1, 4))} for v in H.vertices}
            assert emit_instance(H, lists=lists) == reference_emit_instance(H, lists=lists)


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


@functools.cache
def _bench_requests(workload, seed=7):
    """The benchmark's requests of one workload (bench/workloads.py)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.GENERATORS[workload](seed)


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


def _outcome(read, text):
    """read(text), or the (message, line number) of the ParseError it raises."""
    try:
        return read(text)
    except ParseError as exc:
        return str(exc), exc.line_no


def _assert_reads_as_reference(text):
    got, want = _outcome(parse_instance, text), _outcome(reference_parse_instance, text)
    if isinstance(want, tuple):
        assert got == want, text
        return
    assert isinstance(got, Instance), (got, text)
    assert (got.p, got.f, got.lists, got.H) == (want.p, want.f, want.lists, want.H), text
    assert got.H.edge_ids == want.H.edge_ids
    assert all(got.H.edges_at(v) == reference_edges_at(want.H, v) for v in want.H.vertices)


_GAPS = (" ", "  ", "\t", " \t ")


def _messy_text(rng: random.Random, H, f, lists) -> str:
    """H with f or lists as a file that emit_instance would not write: each
    kind of line shuffled, edges out of id order, comment and blank lines,
    runs of spaces or tabs between words, CRLF or LF endings."""
    p = f.p if f is not None else 0
    vs = sorted(H.vertices)
    groups = [
        [["v", v, *map(str, f[v])] if f is not None else ["v", v] for v in vs],
        [["l", v, *sorted(lists[v])] for v in vs] if lists else [],
        [["e", e, *rng.sample(sorted(m), len(m))] for e, m in H.edges().items()],
    ]
    lines = [f"hg{rng.choice(_GAPS)}{p}"]
    for group in groups:
        rng.shuffle(group)
        lines += [rng.choice(("", " ")) + "".join(w + rng.choice(_GAPS) for w in words[:-1]) + words[-1]
                  + rng.choice(("", "  ", " # note", "#x")) for words in group]
    for _ in range(rng.randint(0, 4)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "  \t", "# comment", "#")))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n", "\r\n"))


class TestReadsAsReference:
    """parse_instance reads every file as the reference reader does: the same
    p, f, lists and H, with the same edge order, or the same ParseError."""

    @pytest.mark.parametrize("seed", [1, 3, 7])
    @pytest.mark.parametrize("workload", ["tight", "hard", "slack"])
    def test_benchmark_requests(self, workload, seed):
        for req in _bench_requests(workload, seed):
            _assert_reads_as_reference(req.text)

    def test_messy_random_instances(self):
        rng = random.Random(2026)
        scrambled = 0
        for seed in range(300):
            H = dp.random_hypergraph(rng.randint(1, 9), rng.randint(0, 14), max_arity=4, seed=seed)
            p = rng.randint(0, 3)
            f = VectorFunction(p, {v: [rng.randint(0, 12) for _ in range(p)] for v in H.vertices}) if p else None
            lists = ({v: {str(rng.randint(1, 20)) for _ in range(3)} for v in H.vertices}
                     if not p and rng.random() < 0.5 else None)
            text = _messy_text(rng, H, f, lists)
            _assert_reads_as_reference(text)
            inst = parse_instance(text)
            assert (inst.H, inst.f, inst.lists) == (H, f, lists)
            ids = [line.split()[1] for line in text.splitlines() if line.lstrip().startswith("e")]
            scrambled += ids != sorted(ids)
        assert scrambled >= 100

    def test_edge_lines_reversed(self):
        # make_hard pairs and their t_fold copies, whose ids sort apart from
        # the order t_fold makes them in, with every edge line out of order
        for seed in range(10):
            H, f = dp.make_hard(dp.random_hard_plan(seed, max_blocks=6, p=3), 3, seed=seed)
            for G in (H, dp.t_fold(H, 2)):
                lines = emit_instance(G, f).splitlines(keepends=True)
                edges = [line for line in lines if line.startswith("e ")]
                text = "".join([line for line in lines if not line.startswith("e ")] + edges[::-1])
                _assert_reads_as_reference(text)
                assert parse_instance(text).H == G

    def test_parallel_edge_lines_share_one_set(self):
        # an edge line with the previous edge line's members reuses its set;
        # the same members in another order, or after another edge, do not
        for seed in range(10):
            H, f = dp.make_hard(dp.random_hard_plan(seed, max_blocks=6, p=3), 3, seed=seed)
            G = parse_instance(emit_instance(dp.t_fold(H, 2), f)).H
            ids = G.edge_ids
            for a, b in zip(ids, ids[1:]):
                assert (G.incidence(a) is G.incidence(b)) == (G.incidence(a) == G.incidence(b))
        G = parse_instance("hg 0\nv a\nv b\nv c\ne e1 a b\ne e2 a b\ne e3 b a\ne e4 a c\ne e5 a b\n").H
        e1, e2, e3, e4, e5 = map(G.incidence, G.edge_ids)
        assert e1 is e2 and e2 is not e3 and e1 == e3 == e5 and e5 is not e1

    def test_builds_no_validated_copy(self, monkeypatch):
        # the reader stores what it has checked; it never calls the
        # validating constructors
        def refuse(*args):
            raise AssertionError("validating constructor called")

        text = emit_instance(dp.cycle(5), VectorFunction.constant(dp.cycle(5).vertices, (1, 1)))
        monkeypatch.setattr(Hypergraph, "__init__", refuse)
        monkeypatch.setattr(VectorFunction, "__init__", refuse)
        inst = parse_instance(text)
        assert inst.H.size == 5 and inst.f["v1"] == (1, 1)


_SMALL_FILES = [
    "hg 2\nv a 1 0\nv b 0 1\nv c 2 12\ne e2 a b\ne e1 b c a\n",
    "hg 1\nv a 1\nv b 10\ne e1 a b\ne e10 b a\n",
    "# note\nhg 0\nv a\nv b\nv c\nl a 1 2\nl b 2\nl c 1 3\ne x a b  # ab\n\ne y b c\n",
    "hg 0\nv a\nv b\ne e1 a b\n",
    "hg 1\nv a 2\nv b 3\ne e1 a b\ne e2 a b\ne e3 b a\n",  # parallel edge lines
]


def _mutations(text: str):
    """Small changes of a valid file: each line deleted, duplicated or
    swapped with another; each word replaced by a malformed number; a vertex
    with one value too few; a list line appended."""
    lines = text.splitlines(keepends=True)
    n = len(lines)
    for i in range(n):
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + lines[i:]
        for j in range(i + 1, n):
            swapped = list(lines)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            yield swapped
        words = lines[i].split()
        for k in range(len(words)):
            for bad in ("-1", "1_0", "\u0663", "\u00b2"):
                yield lines[:i] + [" ".join(words[:k] + [bad] + words[k + 1:]) + "\n"] + lines[i + 1:]
        if words[:1] == ["v"] and len(words) > 2:
            yield lines[:i] + [" ".join(words[:-1]) + "\n"] + lines[i + 1:]
    yield lines + ["l a 1\n"]


class TestMalformedInstances:
    """On a malformed file parse_instance raises the reference reader's
    ParseError: the same message and line number."""

    @pytest.mark.parametrize("text", [case[0] for case in ERROR_CASES])
    def test_error_cases(self, text):
        _assert_reads_as_reference(text)

    @pytest.mark.parametrize("text", _SMALL_FILES)
    def test_mutations(self, text):
        # each mutation is read again with a second header after it, which
        # is reported ahead of any fault in the records
        faults = 0
        for lines in _mutations(text):
            mutated = "".join(lines)
            _assert_reads_as_reference(mutated)
            _assert_reads_as_reference(mutated + "hg 1\n")
            faults += isinstance(_outcome(parse_instance, mutated), tuple)
        assert faults >= 20

    @pytest.mark.parametrize("text, line, frag", [
        ("hg 1\nv a 1 2\nhg 1\n", 3, "duplicate header"),
        ("hg 1\ne e1 a b\nv a 1\nhg 1\n", 4, "duplicate header"),
        ("hg 1\nv a x\nhg 2 3\n", 3, "header must be"),
        ("hg 1\nq\nhg x\n", 3, "non-negative integer, got 'x'"),
        ("hg 0\nv a\nv b\nl a 1\nhg 0\n", 5, "duplicate header"),
        ("hg 1\nv a -1\nhg 1\nhg\n", 4, "header must be"),
    ])
    def test_header_fault_reported_first(self, text, line, frag):
        # a record fault comes first in the file, a header fault after it
        with pytest.raises(ParseError, match=frag) as exc:
            parse_instance(text)
        assert exc.value.line_no == line
        _assert_reads_as_reference(text)

"""Line-oriented text format for instances and results.

Instance grammar (one record per line, '#' starts a comment):

    hg <p>                     header; p >= 0 coordinates
    v <name> <f_1> ... <f_p>   vertex with its vector values (p >= 1)
    v <name>                   bare vertex (p = 0)
    l <name> <color> ...       color list for a vertex (p = 0 only)
    e <name> <v_1> ... <v_k>   edge, k >= 2 distinct vertices

Emission is canonical: header first, vertices sorted by name, list lines
in the same order, edges sorted by name, single spaces, '\\n' endings.

Answers: 'partition <p>' has one 'a <vertex> <class>' and 'coloring' one
'c <vertex> <color>' per vertex.  Each hard component's 'certificate <n>'
has, for each block 1 <= i <= n, one 'b <i> <vertices>', one 't <i> M <j>'
(or 'K <t> <counts>' or 'C <t> <k> <l>') and one 'f <i> <vertex> <values>'
per block vertex.

One lazy line splitter reads every kind of file: the header comes first, a
record before it is an error, and every number is an ASCII decimal (no
sign, no '_').  The answer readers group its lines into header blocks.
parse_instance reads them in one pass: each record is checked as it is
read and goes straight into the vertex set and the edge and f-value dicts,
which Hypergraph and VectorFunction then store without checking again (the
hypergraph's store step sorts the edges by id).  An edge line whose
members equal the previous edge line's shares that line's set and its
checks, as make_hard's parallel edges share one set.  A header fault
anywhere in a file is reported ahead of a record fault.  The parse_*
readers raise ParseError naming the offending line, and every emitted
answer reads back: the emit_* writers raise ValueError for a name that
could not, one that is empty or holds whitespace or '#', and emit_instance
for f-values or lists not given on exactly V(H), or an empty list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from .hardpair import CTag, HardPairCertificate, KTag, MTag
from .hypergraph import Hypergraph, VectorFunction, _check_domain, _check_lists


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class Instance:
    H: Hypergraph
    p: int
    f: VectorFunction | None  # when p >= 1
    lists: dict[str, set[str]] | None  # when list lines are present


def parse_instance(text: str) -> Instance:
    try:
        return _read_instance(text)
    except ParseError:
        # A header fault anywhere in the file comes first, as the block
        # splitter reports it.  _read_instance stops at a second 'hg' line
        # as an unknown record, and the splitter names it.
        _one_block(text, "hg <p>")
        raise


def _read_instance(text: str) -> Instance:
    """parse_instance's one pass over the lines (see the module docstring)."""
    lines = _lines(text)
    line_no, tok = next(lines, (0, [""]))
    if tok[0] != "hg":
        raise ParseError(line_no, "missing 'hg <p>' header")
    if len(tok) != 2:
        raise ParseError(line_no, "header must be 'hg <p>'")
    (p,) = _ints(line_no, tok[1:])
    vs: set[str] = set()
    values: dict[str, tuple[int, ...]] = {}
    vectors: dict[tuple[str, ...], tuple[int, ...]] = {}  # each distinct text read once
    lists: dict[str, set[str]] = {}
    edges: dict[str, frozenset[str]] = {}
    last: list[str] = []  # the previous edge line's members, and their checked set
    mset = frozenset()
    for line_no, tok in lines:
        kind = tok[0]
        if kind == "e":
            if len(tok) < 4:
                raise ParseError(line_no, "edge line needs a name and at least two vertices")
            name = tok[1]
            if name in edges:
                raise ParseError(line_no, f"duplicate edge {name!r}")
            members = tok[2:]
            if members != last:  # a parallel edge line shares the set and its verdicts
                mset = frozenset(members)
                if len(mset) != len(members):
                    raise ParseError(line_no, f"edge {name!r} repeats a vertex (loop)")
                if not mset <= vs:
                    unknown = [v for v in members if v not in vs]
                    raise ParseError(line_no, f"edge {name!r} mentions unknown vertices {unknown}")
                last = members
            edges[name] = mset
        elif kind == "v":
            if len(tok) < 2:
                raise ParseError(line_no, "vertex line needs a name")
            name = tok[1]
            if name in vs:
                raise ParseError(line_no, f"duplicate vertex {name!r}")
            if len(tok) - 2 != p:
                raise ParseError(line_no, f"expected {p} values for vertex {name!r}, got {len(tok) - 2}")
            vs.add(name)
            if p:
                words = tuple(tok[2:])
                vec = vectors.get(words)
                if vec is None:
                    vec = vectors[words] = _ints(line_no, words)
                values[name] = vec
        elif kind == "l":
            if p != 0:
                raise ParseError(line_no, "list lines require a 'hg 0' header")
            if len(tok) < 3:
                raise ParseError(line_no, "list line needs a vertex and at least one color")
            name = tok[1]
            if name not in vs:
                raise ParseError(line_no, f"list for unknown vertex {name!r}")
            if name in lists:
                raise ParseError(line_no, f"duplicate list for {name!r}")
            lists[name] = set(tok[2:])
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")
    if lists and len(lists) != len(vs):  # every listed vertex is known
        line_no = next(line_no for line_no, tok in _lines(text) if tok[0] == "v" and tok[1] not in lists)
        raise ParseError(line_no, f"vertices without lists: {sorted(vs - lists.keys())}")
    H = Hypergraph._of(frozenset(vs), edges)
    f = VectorFunction._of(p, values) if p else None
    return Instance(H, p, f, lists or None)


def emit_instance(
    H: Hypergraph,
    f: VectorFunction | None = None,
    lists: dict[str, set[str]] | None = None,
) -> str:
    if f is not None and lists is not None:
        raise ValueError("an instance carries either f-values or lists, not both")
    if f is not None:
        _check_domain(H, f)
    if lists is not None:
        _check_lists(H, lists)
        empty = [v for v, lst in lists.items() if not lst]
        if empty:
            raise ValueError(f"empty list at {min(empty)!r}")
    _check_names(chain(H.vertices, H.edge_ids, *(lists or {}).values()))
    p = f.p if f is not None else 0
    out = [f"hg {p}"]
    if f is not None:
        words: dict[tuple[int, ...], str] = {}  # each distinct vector written once
        for v in sorted(H.vertices):
            vec = f[v]
            text = words.get(vec)
            if text is None:
                text = words[vec] = " ".join(map(str, vec))
            out.append(f"v {v} {text}")
    else:
        out += [f"v {v}" for v in sorted(H.vertices)]
    if lists is not None:
        out += [f"l {v} {' '.join(sorted(lists[v]))}" for v in sorted(lists)]
    out += [f"e {e} {' '.join(sorted(m))}" for e, m in H.edges().items()]
    return "\n".join(out) + "\n"


# -- results ------------------------------------------------------------


def emit_partition(P: dict[str, int], p: int) -> str:
    _check_names(P)
    out = [f"partition {p}"]
    out += [f"a {v} {P[v]}" for v in sorted(P)]
    return "\n".join(out) + "\n"


def parse_partition(text: str) -> tuple[dict[str, int], int]:
    return _assignment(text, "partition <p>", "a", _int)


def emit_coloring(coloring: dict[str, object]) -> str:
    _check_names(chain(coloring, map(str, coloring.values())))
    out = ["coloring"]
    out += [f"c {v} {coloring[v]}" for v in sorted(coloring)]
    return "\n".join(out) + "\n"


def parse_coloring(text: str) -> dict[str, str]:
    return _assignment(text, "coloring", "c", lambda line_no, word: word)[0]


def _emit_tag(tag) -> str:
    if isinstance(tag, MTag):
        return f"M {tag.j}"
    if isinstance(tag, KTag):
        return f"K {tag.t} " + " ".join(map(str, tag.counts))
    if isinstance(tag, CTag):
        return f"C {tag.t} {tag.k} {tag.l}"
    raise ValueError(f"unknown tag {tag!r}")


def emit_certificate(cert: HardPairCertificate) -> str:
    _check_names(chain.from_iterable(cert.blocks))
    out = [f"certificate {len(cert.blocks)}"]
    words: dict[tuple[int, ...], str] = {}  # each distinct vector written once
    for i, (bset, tag, fB) in enumerate(zip(cert.blocks, cert.tags, cert.block_functions), 1):
        vs = sorted(bset)
        out.append(f"b {i} {' '.join(vs)}\nt {i} {_emit_tag(tag)}")
        for v in vs:
            vec = fB[v]
            text = words.get(vec)
            if text is None:
                text = words[vec] = " ".join(map(str, vec))
            out.append(f"f {i} {v} {text}")
    return "\n".join(out) + "\n"


def emit_certificates(certs: dict[frozenset[str], HardPairCertificate]) -> str:
    return "".join(emit_certificate(certs[c]) for c in sorted(certs, key=min))


_UNREADABLE = re.compile(r"[\s#]")


def _check_names(names: Iterable[str]) -> None:
    """Raise ValueError unless every name reads back: non-empty, with no
    whitespace (what split() splits at) and no '#'.  One scan of all names."""
    names = list(names)
    if not all(names) or _UNREADABLE.search("".join(names)):
        bad = next(n for n in names if not n or _UNREADABLE.search(n))
        raise ValueError(f"cannot write the name {bad!r}: names must be non-empty, without whitespace or '#'")


def parse_certificates(text: str) -> list[HardPairCertificate]:
    certs = []
    for head, (n,), records in _split(text, "certificate <n>"):
        bsets, tags, fns = [None] * n, [None] * n, [{} for _ in range(n)]
        for line_no, (kind, *tok) in records:
            if (kind not in ("b", "t", "f") or len(tok) < 2 + (kind == "f")
                    or not 0 <= (i := _int(line_no, tok[0]) - 1) < n):
                raise ParseError(line_no, f"expected a 'b <i>', 't <i>' or 'f <i> <vertex>' record, 1 <= i <= {n}")
            if kind == "b" and bsets[i] is None:
                bsets[i] = frozenset(tok[1:])
            elif kind == "t" and tags[i] is None:
                t, x = tok[1], _ints(line_no, tok[2:])
                if not {"M": len(x) == 1, "K": len(x) >= 2, "C": len(x) == 3}.get(t):
                    raise ParseError(line_no, "block type must be M <j>, K <t> <counts> or C <t> <k> <l>")
                tags[i] = MTag(*x) if t == "M" else CTag(*x) if t == "C" else KTag(x[0], tuple(x[1:]))
            elif kind == "f" and tok[1] not in fns[i]:
                fns[i][tok[1]] = _ints(line_no, tok[2:])
            else:
                raise ParseError(line_no, f"repeated {kind!r} record")
        if None in bsets + tags:
            raise ParseError(head, f"block {(bsets + tags).index(None) % n + 1} lacks a 'b' or 't' record")
        certs.append(HardPairCertificate(tuple(bsets), tuple(tags), tuple(fns)))
    return certs


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, words) of each line that has words, lazily; '#' starts
    a comment.  Every reader reads its file through this one splitter."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.partition("#")[0] for raw in lines]
    return filter(itemgetter(1), enumerate(map(str.split, lines), 1))


def _split(text: str, header: str) -> list[tuple[int, tuple[int, ...], list[tuple[int, list[str]]]]]:
    """(line, numbers, [(line, words) of its records]) for each header line."""
    word, *params = header.split()
    blocks: list = []
    records = None
    for line_no, tok in _lines(text):
        if tok[0] == word:
            if len(tok) != 1 + len(params):
                raise ParseError(line_no, f"header must be {header!r}")
            records = []
            blocks.append((line_no, _ints(line_no, tok[1:]), records))
        elif records is None:
            raise ParseError(line_no, f"missing {header!r} header")
        else:
            records.append((line_no, tok))
    if not blocks:
        raise ParseError(0, f"missing {header!r} header")
    return blocks


def _one_block(text: str, header: str) -> tuple[tuple[int, ...], list[tuple[int, list[str]]]]:
    (_, args, records), *more = _split(text, header)
    if more:
        raise ParseError(more[0][0], "duplicate header")
    return args, records


def _assignment(text: str, header: str, tag: str, value) -> tuple:
    args, records = _one_block(text, header)
    out = {}
    for line_no, tok in records:
        if tok[0] != tag or len(tok) != 3 or tok[1] in out:
            raise ParseError(line_no, f"expected one '{tag} <vertex> <value>' record per vertex")
        out[tok[1]] = value(line_no, tok[2])
    return (out, *args)


def _ints(line_no: int, words: list[str]) -> tuple[int, ...]:
    """ASCII decimals; split() yields no empty word, so checking the join checks each."""
    joined = "".join(words)
    if not (joined.isascii() and joined.isdigit()) and words:
        bad = next(w for w in words if not (w.isascii() and w.isdigit()))
        raise ParseError(line_no, f"expected a non-negative integer, got {bad!r}")
    return tuple(map(int, words))


def _int(line_no: int, word: str) -> int:
    return _ints(line_no, (word,))[0]

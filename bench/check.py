"""Answer checker for benchmark requests.

Partitions and colourings are parsed and checked here with code of the
benchmark's own; it shares nothing with the library's peeling.
Certificates are re-checked with the library's verify_certificate, and
every verdict must equal the one known by construction.
"""

from __future__ import annotations

from workloads import Request


def _records(out: str, header: str) -> tuple[list[str], list[list[str]]]:
    lines = [line.split() for line in out.splitlines() if line.strip()]
    if not lines or lines[0][0] != header:
        raise ValueError(f"answer does not start with {header!r}")
    return lines[0], lines[1:]


def _assignment(out: str, header: str, tag: str) -> tuple[list[str], dict[str, str]]:
    head, body = _records(out, header)
    got: dict[str, str] = {}
    for tok in body:
        if len(tok) != 3 or tok[0] != tag or tok[1] in got:
            raise ValueError(f"bad record {' '.join(tok)!r}")
        got[tok[1]] = tok[2]
    return head, got


def peels(members: set[str], edges, bound) -> bool:
    """Whether deleting vertices of degree below their bound empties `members`."""
    inside = [m for m in edges.values() if all(v in members for v in m)]
    at: dict[str, list[int]] = {v: [] for v in members}
    for k, m in enumerate(inside):
        for v in m:
            at[v].append(k)
    deg = {v: len(at[v]) for v in members}
    alive_edges = [True] * len(inside)
    todo = [v for v in members if deg[v] < bound[v]]
    gone: set[str] = set()
    while todo:
        v = todo.pop()
        if v in gone:
            continue
        gone.add(v)
        for k in at[v]:
            if alive_edges[k]:
                alive_edges[k] = False
                for u in inside[k]:
                    deg[u] -= 1
                    if u not in gone and deg[u] < bound[u]:
                        todo.append(u)
    return len(gone) == len(members)


def _check_partition(req: Request, out: str) -> None:
    head, got = _assignment(out, "partition", "a")
    p = len(next(iter(req.f.values())))
    if head != ["partition", str(p)]:
        raise ValueError(f"header {' '.join(head)!r}, expected 'partition {p}'")
    if sorted(got) != req.vertices:
        raise ValueError("partition does not cover exactly the vertices")
    part = {v: int(c) for v, c in got.items()}
    if set(part.values()) - set(range(1, p + 1)):
        raise ValueError("class index out of range")
    for i in range(1, p + 1):
        members = {v for v, c in part.items() if c == i}
        if not peels(members, req.edges, {v: req.f[v][i - 1] for v in members}):
            raise ValueError(f"class {i} is not strictly degenerate")
    if req.command == "refine-degrees":
        class_deg = dict.fromkeys(part, 0)
        for m in req.edges.values():
            if len({part[v] for v in m}) == 1:
                for v in m:
                    class_deg[v] += 1
        for v, d in class_deg.items():
            if d > req.f[v][part[v] - 1]:
                raise ValueError(f"{v} exceeds its degree bound in class {part[v]}")


def _check_coloring(req: Request, out: str) -> None:
    _, got = _assignment(out, "coloring", "c")
    if sorted(got) != req.vertices:
        raise ValueError("colouring does not cover exactly the vertices")
    for v, c in got.items():
        if c not in req.lists[v]:
            raise ValueError(f"{v} gets {c}, not on its list")
    for e, m in req.edges.items():
        if len({got[v] for v in m}) == 1:
            raise ValueError(f"edge {e} is monochromatic")


def _check_certificates(req: Request, out: str) -> None:
    from degenpart import Hypergraph, VectorFunction, verify_certificate
    from degenpart.instancefile import parse_certificates

    H = Hypergraph(req.vertices, req.edges)
    f = VectorFunction(len(next(iter(req.f.values()))), req.f)
    certs = parse_certificates(out)
    # the hard instances are connected, so one certificate covers them
    if len(certs) != 1 or not verify_certificate(H, f, certs[0]):
        raise ValueError("certificate does not verify")


def check(req: Request, exit_code: int | None, out: str) -> str | None:
    """None if the answer is right, else the reason it is wrong."""
    if exit_code != req.expect_exit:
        return f"exit code {exit_code}, expected {req.expect_exit}"
    try:
        if req.expect_exit == 2:
            _check_certificates(req, out)
        elif req.command == "list-color":
            _check_coloring(req, out)
        else:
            _check_partition(req, out)
    except (ValueError, IndexError, KeyError) as exc:  # a malformed answer
        return f"{type(exc).__name__}: {exc}"
    return None

"""Command line front end.

Exit codes: 0 when a partition or coloring was found or a property
verified; 2 when the answer is a non-partitionability certificate (or a
check found disagreements); 1 for usage, parse and argument errors, and
for any internal error, which is reported on one line; 141 (the shell's
status for a writer killed by SIGPIPE) when stdout's reader closed the
pipe before the answer was written, with nothing on stderr, so
`degenpart blocks big.hg | head -n 1` ends quietly.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import coloring as coloring_mod
from . import oracle
from .degeneracy import col, is_strictly_degenerate
from .hardpair import hard_components, is_hard, make_hard, random_hard_plan
from .hypergraph import Hypergraph, VectorFunction, complete_uniform, cycle, path, random_hypergraph, t_fold
from .instancefile import (
    Instance,
    emit_certificates,
    emit_coloring,
    emit_instance,
    emit_partition,
    parse_instance,
)
from .partition import enforce_degree_bounds, solve
from .structure import block_trees


def _read_instance(path_arg: str) -> Instance:
    if path_arg == "-":
        text = sys.stdin.read()
    else:
        with open(path_arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_instance(text)


def _need_f(inst: Instance) -> VectorFunction:
    if inst.f is None:
        raise ValueError("this command needs vertex f-values (header 'hg <p>' with p >= 1)")
    return inst.f


def _need_lists(inst: Instance) -> dict[str, set[str]]:
    if inst.lists is None:
        raise ValueError("this command needs list lines ('l <vertex> <colors...>')")
    return inst.lists


def _cmd_blocks(args) -> int:
    inst = _read_instance(args.file)
    for bt in block_trees(inst.H):
        print(f"blocks {len(bt.blocks)}")
        for i, b in enumerate(bt.blocks, 1):
            print(f"b {i} " + " ".join(sorted(b)))
        print("cut" + "".join(" " + v for v in sorted(bt.cut_vertices)))
    return 0


def _cmd_col(args) -> int:
    inst = _read_instance(args.file)
    print(f"col {col(inst.H)}")
    return 0


def _cmd_degenerate(args) -> int:
    inst = _read_instance(args.file)
    f = _need_f(inst)
    if f.p != 1:
        raise ValueError("degenerate expects a single-coordinate instance (hg 1)")
    wit = is_strictly_degenerate(inst.H, f.coordinate(1))
    if wit:
        print("degenerate" + "".join(" " + v for v in wit.removal_order))
        return 0
    print("core" + "".join(" " + v for v in sorted(wit.core)))
    return 2


def _answer(found, emit, certificates) -> int:
    """Write emit(found) and return 0, or, when nothing was found, the
    certificates and return 2."""
    if found is None:
        sys.stdout.write(emit_certificates(certificates))
        return 2
    sys.stdout.write(emit(found))
    return 0


def _cmd_is_hard(args) -> int:
    inst = _read_instance(args.file)
    certs = {comp: cert for comp, cert in hard_components(inst.H, _need_f(inst)).items() if cert is not None}
    return _answer(None if certs else "not-hard\n", str, certs)


def _cmd_partition(args) -> int:
    inst = _read_instance(args.file)
    res = solve(inst.H, _need_f(inst))
    return _answer(res.partition, lambda P: emit_partition(P, inst.p), res.certificates)


def _cmd_refine_degrees(args) -> int:
    inst = _read_instance(args.file)
    f = _need_f(inst)
    res = solve(inst.H, f)
    return _answer(res.partition, lambda P: emit_partition(enforce_degree_bounds(inst.H, f, P), inst.p),
                   res.certificates)


def _cmd_list_color(args) -> int:
    inst = _read_instance(args.file)
    res = coloring_mod.list_color(inst.H, _need_lists(inst))
    return _answer(res.coloring, emit_coloring, res.certificates)


def _cmd_alpha(args) -> int:
    inst = _read_instance(args.file)
    a = coloring_mod.point_partition_number(inst.H, args.s, strict=not args.lick_white)
    print(f"alpha {a}")
    return 0


def _cmd_gen(args) -> int:
    if args.shape == "hard":
        if args.t != 1:
            raise ValueError(f"gen hard builds no t-fold pairs: --t must be 1, got {args.t}")
        plan = random_hard_plan(args.seed, max_blocks=args.blocks, p=args.p)
        H, f = make_hard(plan, args.p, seed=args.seed)
        sys.stdout.write(emit_instance(H, f=f))
        return 0
    if args.shape == "complete":
        H = complete_uniform(args.n, args.q)
    elif args.shape == "cycle":
        H = cycle(args.n)
    elif args.shape == "path":
        H = path(args.n)
    else:  # "random": argparse admits only the five shapes
        H = random_hypergraph(
            args.n, args.m, max_arity=args.max_arity, max_mult=args.max_mult,
            seed=args.seed, connected=args.connected,
        )
    sys.stdout.write(emit_instance(t_fold(H, args.t)))
    return 0


def _random_vector(rng: random.Random, d: int, p: int) -> tuple[int, ...]:
    vec = [0] * p
    for _ in range(d):
        vec[rng.randrange(p)] += 1
    return tuple(vec)


def _sweep_verdicts(args):
    """Seeded connected instances with f matching the degrees pointwise,
    each with its is_hard verdict and the oracle's partitionable verdict."""
    max_n, p = args.max_n, args.p
    if max_n < 2 or p < 1:
        raise ValueError(f"need --max-n >= 2 and --p >= 1, got --max-n {max_n} --p {p}")
    rng = random.Random(args.seed)
    for _ in range(args.count):
        n = rng.randint(2, max_n)
        m = rng.randint(1, min(8, 2 * n))
        H = random_hypergraph(n, m, max_arity=3, max_mult=2, seed=rng.randrange(2**32), connected=True)
        f = VectorFunction(p, {v: _random_vector(rng, H.degree(v), p) for v in sorted(H.vertices)})
        yield H, f, is_hard(H, f) is not None, oracle.brute_partitionable(H, f).partitionable


def _cmd_oracle_check(args) -> int:
    checked = 0
    disagreements = 0
    for H, f, hard, partitionable in _sweep_verdicts(args):
        disagreements += hard == partitionable
        disagreements += solve(H, f).partitionable != partitionable
        checked += 1
    print(f"checked {checked}")
    print(f"disagreements: {disagreements}")
    return 0 if disagreements == 0 else 2


def _cmd_census(args) -> int:
    stats: dict[int, list[int]] = {}
    disagreements = 0
    for H, _, hard, partitionable in _sweep_verdicts(args):
        stats.setdefault(H.order, [0, 0])[0 if hard else 1] += 1
        disagreements += hard == partitionable
    for n in sorted(stats):
        hard_n, part_n = stats[n]
        print(f"n {n} instances {hard_n + part_n} hard {hard_n} partitionable {part_n}")
    print(f"disagreements: {disagreements}")
    return 0 if disagreements == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenpart",
        description="Partitions of multihypergraphs into strictly degenerate parts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_file=True):
        sp = sub.add_parser(name)
        if needs_file:
            sp.add_argument("file", help="instance file, or - for stdin")
        sp.set_defaults(fn=fn)
        return sp

    add("blocks", _cmd_blocks)
    add("col", _cmd_col)
    add("degenerate", _cmd_degenerate)
    add("is-hard", _cmd_is_hard)
    add("partition", _cmd_partition)
    add("refine-degrees", _cmd_refine_degrees)
    add("list-color", _cmd_list_color)
    sp = add("alpha", _cmd_alpha)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--lick-white", action="store_true",
                    help="count s-degenerate classes instead of strictly s-degenerate ones")

    sp = add("gen", _cmd_gen, needs_file=False)
    sp.add_argument("shape", choices=["complete", "cycle", "path", "random", "hard"])
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--m", type=int, default=6)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--blocks", type=int, default=3)
    sp.add_argument("--max-arity", type=int, default=3)
    sp.add_argument("--max-mult", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--connected", action="store_true")

    for name, fn in (("oracle-check", _cmd_oracle_check), ("census", _cmd_census)):
        sp = add(name, fn, needs_file=False)
        sp.add_argument("--max-n", type=int, default=5)
        sp.add_argument("--p", type=int, default=2)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--count", type=int, default=100)

    return parser


BROKEN_PIPE = 141  # 128 + SIGPIPE: stdout's reader is gone


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except BrokenPipeError:
        return BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = BROKEN_PIPE
    if code == BROKEN_PIPE:
        # what is still buffered goes to devnull, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()

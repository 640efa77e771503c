"""End-to-end benchmark of the degenpart CLI on seeded workloads.

    python3 bench/run.py --workload tight --seed 1 --seconds 35 --trace 0

Set-up imports degenpart from this checkout's src/, writes the seeded
instance files of one workload (see workloads.py) under .bench_work/ and
answers one warm-up request; it runs SETUP_REPEATS times and setup_s is
the median.  Each request then calls degenpart.cli.main in this process,
single-threaded, with stdout captured.  A pass answers every request
once; passes repeat while the next one still fits in --seconds.

On a shared host Python can run 20-40% slower or faster from one minute
to the next, for every program alike (seen on a 2-vCPU Xeon KVM guest),
so raw request times of the same code spread past any useful bound.  The
end-to-end times are therefore given in probes: a probe is one run of a
fixed pure-Python task that shares no code with the library (probe()),
timed just before and just after every request, and a request's time in
probes is its seconds over the mean of those two probe times.  A faster
or slower program moves its time in probes as it moves its seconds; a
faster or slower machine moves both alike and cancels out.
ops_per_kprobe is the number of answers per thousand probes of their
total time; op_probes.p50 and op_probes.p90 are percentiles over the
requests of each one's mean time in probes over the passes.  The raw
figures in seconds are printed on a line of their own.

Every answer is checked outside the timed region (check.py): the first
answer of each request by the checker, later ones for being
byte-identical to it.  The sha256 digest of the first pass's
concatenated stdout is printed, so two runs of the same code can be
compared byte for byte.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of one
traced pass (medians over the traced passes) from spans.py, plus
trace.overhead_s, the traced minus the untraced pass time.  The last
traced pass's spans are written to .bench_work/<workload>.spans.tsv.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import check
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5


_PROBE_KEYS = [f"v{i}" for i in range(400)]


def _probe_once() -> float:
    start = time.perf_counter()
    sets = {k: {k, _PROBE_KEYS[j * 7 % 400]} for j, k in enumerate(_PROBE_KEYS)}
    union: set[str] = set()
    for members in sets.values():
        union |= members
    sorted(union)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds of a fixed pure-Python task of dicts, sets and a sort, which
    shares no code with the library: how fast the machine runs Python at
    this moment.  The median of five short runs, with the collector paused,
    so that a collection or an interrupt in one of them does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_probe_once() for _ in range(5))
    finally:
        if enabled:
            gc.enable()


def answer(cli, req: workloads.Request, path: str):
    """(exit code, stdout, traceback or None, seconds) of one in-process CLI request."""
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([req.command, path])
    except Exception:  # a traceback is a failed request, not a failed benchmark
        code, error = None, traceback.format_exc(limit=3)
    return code, out.getvalue(), error, time.perf_counter() - start


def set_up(workload: str, seed: int, workdir: Path):
    """Import degenpart afresh, generate and write the requests, answer one."""
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "degenpart" or m.startswith("degenpart.")]:
        del sys.modules[name]
    cli = importlib.import_module("degenpart.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"degenpart imported from {cli.__file__}, not from {SRC}")
    requests = workloads.GENERATORS[workload](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, req in enumerate(requests):
        path = workdir / f"r{i:04d}.hg"
        path.write_text(req.text, encoding="utf-8")
        paths.append(str(path))
    warm = min(range(len(requests)), key=lambda i: len(requests[i].text))
    answer(cli, requests[warm], paths[warm])
    return time.perf_counter() - start, cli, requests, paths


class Bench:
    """The requests of one workload, their answers so far, and the failures."""

    def __init__(self, cli, requests, paths):
        self.cli, self.requests, self.paths = cli, requests, paths
        self.reference: list[str | None] = [None] * len(requests)
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None

    def run_pass(self, tracer: spans.Tracer | None = None) -> tuple[list[float], list[float]]:
        """Answer every request once; return the per-request seconds and,
        for each request, the mean probe time just before and after it."""
        gc.collect()
        times, probes, answers = [], [], []
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            before = probe()
            for i, (req, path) in enumerate(zip(self.requests, self.paths)):
                if tracer is not None:
                    tracer.request = i
                code, out, error, seconds = answer(self.cli, req, path)
                after = probe()
                times.append(seconds)
                probes.append((before + after) / 2)
                answers.append((code, out, error))
                before = after
        finally:
            if tracer is not None:
                tracer.uninstall()
        self._judge(answers)
        return times, probes

    def _judge(self, answers) -> None:
        if self.digest is None:
            self.digest = hashlib.sha256("".join(out for _, out, _ in answers).encode()).hexdigest()
        for i, (req, (code, out, error)) in enumerate(zip(self.requests, answers)):
            self.attempted += 1
            if error is not None:
                problem = f"error: {error.strip()}"
            elif self.reference[i] is not None:
                same = code == req.expect_exit and out == self.reference[i]
                problem = None if same else "answer differs from the first answer to it"
            else:
                problem = check.check(req, code, out)
                if problem is None:
                    self.reference[i] = out
            if problem is not None:
                self.failures.append(f"request {i} ({req.command}): {problem}")


# Which end-to-end metric each layer should move, and on which workload:
#   separating_vertices, components, shrink_away, Hypergraph construction
#       -> ops_per_kprobe, op_probes.p90 on tight and slack (0 separating_vertices
#          calls on hard)
#   is_hard, induced, blocks -> ops_per_kprobe, op_probes.p90 on hard (a small share
#       on tight)
#   reduce_pair calls and useful_ratio -> op_probes.p90 on slack (useful_ratio
#       about 1 on tight)
#   solve, enforce_degree_bounds, list_color self time -> op_probes.p50 on slack
#   verify_partition, is_strictly_degenerate -> none: self-verification
#       keeps running, at least one verify_partition call per partition or
#       colouring answer on every workload
#   parse_instance, emit, cli.main self time -> ops_per_kprobe, peak_rss_mb on
#       hard (long certificates)
#   trace.overhead_s -> none
# per_layer prints whether the two predictions about call counts hold.
PER_LAYER = (
    "structure.separating_vertices.calls",
    "structure.separating_vertices.self_s",
    "structure.components.calls",
    "structure.components.self_s",
    "hypergraph.shrink_away.calls",
    "hypergraph.shrink_away.self_s",
    "hypergraph.Hypergraph.calls",
    "hardpair.is_hard.calls",
    "hardpair.is_hard.self_s",
    "hardpair.is_hard.cert_ratio",
    "hypergraph.induced.calls",
    "hypergraph.induced.self_s",
    "structure.blocks.calls",
    "structure.blocks.self_s",
    "partition.reduce_pair.calls",
    "partition.reduce_pair.useful_ratio",
    "partition.solve.self_s",
    "partition.enforce_degree_bounds.self_s",
    "coloring.list_color.self_s",
    "partition.verify_partition.calls",
    "partition.verify_partition.self_s",
    "degeneracy.is_strictly_degenerate.calls",
    "degeneracy.is_strictly_degenerate.self_s",
    "instancefile.parse_instance.self_s",
    "instancefile.emit.self_s",
    "cli.main.self_s",
    "trace.overhead_s",
)
END_TO_END_UNITS = {
    "ops_per_kprobe": "1/kprobe",
    "op_probes.p50": "probe",
    "op_probes.p90": "probe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _repeat(seconds: float, step) -> None:
    """Call step(), which returns the seconds it measured, while one more
    call like the last still fits in `seconds`; always call it once."""
    measured = 0.0
    while True:
        last = step()
        measured += last
        if measured + last > seconds:
            return


def _summary(passes: list[list[float]]) -> tuple[float, float, float]:
    """(answers per unit of total time, p50, p90): the percentiles are over
    the requests of each request's mean time over the passes, so that every
    request is averaged over the whole run before they are ranked."""
    means = [statistics.fmean(times) for times in zip(*passes)]
    return len(means) / sum(means), statistics.median(means), statistics.quantiles(means, n=10)[8]


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Throughput and per-request percentiles, in probes (see the module
    docstring); the same in seconds are printed."""
    raw: list[list[float]] = []
    in_probes: list[list[float]] = []
    probe_s: list[float] = []

    def step() -> float:
        times, probes = bench.run_pass()
        raw.append(times)
        in_probes.append([t / p for t, p in zip(times, probes)])
        probe_s.extend(probes)
        return sum(times)

    _repeat(seconds, step)
    n = len(bench.requests)
    ops, p50, p90 = _summary(in_probes)
    raw_ops, raw_p50, raw_p90 = _summary(raw)
    above = sum(1 for t in map(statistics.fmean, zip(*in_probes)) if t > p90)
    print(f"{len(raw)} passes of {n} requests ({len(raw) * n} samples), {above} requests above p90")
    print(f"in seconds: ops_per_s {raw_ops:.4f} op_s.p50 {raw_p50:.6f} op_s.p90 {raw_p90:.6f}; "
          f"median probe {statistics.median(probe_s) * 1000:.4f} ms")
    return {"ops_per_kprobe": 1000 * ops, "op_probes.p50": p50, "op_probes.p90": p90}


def per_layer(bench: Bench, seconds: float, tracer: spans.Tracer, workload: str) -> dict:
    """Alternate untraced and traced passes; per-layer values of one traced pass."""
    rows, overheads = [], []

    def step() -> float:
        plain = sum(bench.run_pass()[0])
        traced = sum(bench.run_pass(tracer)[0])
        rows.append(tracer.totals())
        overheads.append(traced - plain)
        return plain + traced

    _repeat(seconds, step)

    def med(layer: str, key: str) -> float:
        # median_low keeps the per-pass call counts whole numbers
        return statistics.median_low(row[layer][key] for row in rows)

    def ratio(hits: float, calls: float) -> float:
        return hits / calls if calls else 0.0

    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.calls"] = med(layer, "calls")
        out[f"{layer}.self_s"] = med(layer, "self_s")
    out["hypergraph.Hypergraph.calls"] = med("hypergraph.Hypergraph", "calls")
    out["hardpair.is_hard.cert_ratio"] = ratio(med("hardpair.is_hard", "hits"), med("hardpair.is_hard", "calls"))
    useful = sum(req.useful for req in bench.requests)
    out["partition.reduce_pair.useful_ratio"] = ratio(useful, med("partition.reduce_pair", "calls"))
    out["trace.overhead_s"] = statistics.median(overheads)

    row = rows[-1]
    print(f"{len(rows)} untraced/traced pass pairs; the last traced pass:")
    for layer, t in sorted(row.items(), key=lambda item: -item[1]["self_s"]):
        print(f"  {layer:36s} calls {t['calls']:9d}  self {t['self_s']:9.4f} s  total {t['total_s']:9.4f} s")
    under = ratio(row["structure.separating_vertices"]["total_s"], row["cli.main"]["total_s"])
    print(f"share of traced time under structure.separating_vertices: {under:.3f}")
    if tracer.absent:
        print("absent from the library (reported as 0): " + ", ".join(tracer.absent))
    answers = sum(1 for req in bench.requests if req.expect_exit == 0)
    for claim, holds in (
        ("no separating_vertices calls on hard",
         workload != "hard" or out["structure.separating_vertices.calls"] == 0),
        ("at least one verify_partition call per partition or colouring answer",
         out["partition.verify_partition.calls"] >= answers),
    ):
        print(f"prediction: {claim}: {'holds' if holds else 'VIOLATED'}")
    return {name: out[name] for name in PER_LAYER}


def _unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(".calls"):
        return "count"
    return "ratio" if metric.endswith("_ratio") else "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "degenpart" / "__init__.py").is_file():
        print(f"error: no degenpart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            # the last set-up's objects go before the next is made, so peak RSS counts one
            cli = requests = paths = None
            gc.collect()
            seconds, cli, requests, paths = set_up(args.workload, args.seed, workdir)
            setup_s.append(seconds)
        # the benchmark's own objects stay out of the library's garbage collections
        gc.collect()
        gc.freeze()
        bench = Bench(cli, requests, paths)
        if args.trace:
            tracer = spans.Tracer()
            metrics = per_layer(bench, args.seconds, tracer, args.workload)
            tracer.write(WORK / f"{args.workload}.spans.tsv")
        else:
            metrics = end_to_end(bench, args.seconds)
            metrics["setup_s"] = statistics.median(setup_s)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in bench.failures[:20]:
        print(failure, file=sys.stderr)
    failed = len(bench.failures)
    print(f"workload {args.workload} seed {args.seed}: digest sha256:{bench.digest}")
    print(f"failed_frac {failed / bench.attempted}")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

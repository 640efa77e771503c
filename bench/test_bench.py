"""Tests of the benchmark's own parts: generators, answer checker, tracer.

    python3 -m pytest bench
"""

from __future__ import annotations

import importlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def dp():
    """The degenpart package currently imported (run.set_up re-imports it)."""
    import degenpart

    return degenpart


def answer_of(req: workloads.Request, tmp_path: Path) -> tuple[int, str]:
    path = tmp_path / "instance.hg"
    path.write_text(req.text)
    out = io.StringIO()
    with redirect_stdout(out):
        code = importlib.import_module("degenpart.cli").main([req.command, str(path)])
    return code, out.getvalue()


def degrees(req: workloads.Request) -> dict[str, int]:
    deg = dict.fromkeys(req.vertices, 0)
    for m in req.edges.values():
        for v in m:
            deg[v] += 1
    return deg


def library_pair(req: workloads.Request):
    H = dp().Hypergraph(req.vertices, req.edges)
    f = dp().VectorFunction(len(next(iter(req.f.values()))), req.f)
    return H, f


@pytest.fixture(scope="module")
def generated():
    return {name: gen(7) for name, gen in workloads.GENERATORS.items()}


def test_generators_are_deterministic(generated):
    for name, gen in workloads.GENERATORS.items():
        again = gen(7)
        assert [r.text for r in again] == [r.text for r in generated[name]]
        assert [r.command for r in again] == [r.command for r in generated[name]]
        assert [r.text for r in gen(8)] != [r.text for r in again]


def test_passes_have_ten_samples_above_p90(generated):
    for requests in generated.values():
        assert len(requests) >= 110


def test_every_slack_instance_has_spare_somewhere(generated):
    for req in generated["slack"]:
        deg = degrees(req)
        budget = {v: len(req.lists[v]) for v in deg} if req.lists else {v: sum(req.f[v]) for v in deg}
        assert all(budget[v] >= deg[v] for v in deg)
        assert any(budget[v] > deg[v] for v in deg)
        assert dp().is_connected(dp().Hypergraph(req.vertices, req.edges))


def test_every_hard_instance_is_hard(generated):
    for req in generated["hard"]:
        H, f = library_pair(req)
        assert req.expect_exit == 2
        assert dp().is_hard(H, f) is not None


def test_tight_instances_are_tight_and_not_hard(generated):
    for req in generated["tight"][:40]:
        H, f = library_pair(req)
        assert all(f.sum_at(v) == H.degree(v) for v in H.vertices)
        assert dp().is_connected(H)
        assert dp().is_hard(H, f) is None


def test_checker_agrees_with_library_on_corrupted_partitions(generated, tmp_path):
    rng = random.Random(1)
    rejected = 0
    for req in generated["tight"][:10]:
        code, out = answer_of(req, tmp_path)
        assert check.check(req, code, out) is None
        H, f = library_pair(req)
        P = {tok[1]: int(tok[2]) for tok in map(str.split, out.splitlines()[1:])}
        for _ in range(5):
            v = rng.choice(req.vertices)
            bad = dict(P, **{v: rng.choice([c for c in range(1, f.p + 1) if c != P[v]])})
            text = dp().instancefile.emit_partition(bad, f.p)
            assert (check.check(req, 0, text) is None) == bool(dp().verify_partition(H, f, bad))
            rejected += not dp().verify_partition(H, f, bad)
        assert check.check(req, 0, "\n".join(out.splitlines()[:-1]) + "\n") is not None
        assert check.check(req, 2, out) is not None
    assert rejected > 0


def test_checker_rejects_corrupted_certificates(generated, tmp_path):
    req = next(r for r in generated["hard"] if len(r.edges) < 80)
    code, out = answer_of(req, tmp_path)
    assert code == 2
    assert check.check(req, code, out) is None
    lines = out.splitlines()
    f_line = next(i for i, line in enumerate(lines) if line.startswith("f "))
    tok = lines[f_line].split()
    tok[3] = str(int(tok[3]) + 1)
    bumped = lines[:f_line] + [" ".join(tok)] + lines[f_line + 1:]
    assert check.check(req, 2, "\n".join(bumped) + "\n") is not None
    t_line = next(i for i, line in enumerate(lines) if line.startswith("t "))
    retagged = lines[:t_line] + [lines[t_line].split()[0] + " " + lines[t_line].split()[1] + " M 1"] + lines[t_line + 1:]
    if retagged != lines:
        assert check.check(req, 2, "\n".join(retagged) + "\n") is not None
    assert check.check(req, 2, "\n".join(lines[:-1]) + "\n") is not None
    assert check.check(req, 0, out) is not None


def test_checker_rejects_corrupted_colourings(generated, tmp_path):
    req = next(r for r in generated["slack"] if r.command == "list-color")
    code, out = answer_of(req, tmp_path)
    assert check.check(req, code, out) is None
    colour = {tok[1]: tok[2] for tok in map(str.split, out.splitlines()[1:])}
    e, m = next(iter(req.edges.items()))
    for bad in (dict(colour, **{m[0]: "nowhere"}), dict(colour, **{v: colour[m[0]] for v in m})):
        text = "coloring\n" + "".join(f"c {v} {bad[v]}\n" for v in sorted(bad))
        assert check.check(req, 0, text) is not None


def test_peeling_matches_definition():
    edges = {"a": ("x", "y"), "b": ("y", "z"), "c": ("x", "z")}
    triangle = {"x", "y", "z"}
    assert not check.peels(triangle, edges, dict.fromkeys(triangle, 2))
    assert check.peels(triangle, edges, {"x": 3, "y": 2, "z": 2})
    assert check.peels({"x", "y"}, edges, {"x": 2, "y": 1})


def test_tracer_self_times_add_up_and_originals_return(generated, tmp_path):
    structure = sys.modules["degenpart.structure"]
    original = structure.separating_vertices
    tracer = spans.Tracer()
    tracer.install()
    try:
        for req in generated["tight"][:3] + generated["hard"][:3]:
            answer_of(req, tmp_path)
    finally:
        tracer.uninstall()
    assert structure.separating_vertices is original
    assert sys.modules["degenpart.partition"].separating_vertices is original
    totals = tracer.totals()
    assert totals["cli.main"]["calls"] == 6
    assert totals["structure.separating_vertices"]["calls"] > 0
    assert totals["hypergraph.Hypergraph"]["calls"] > 0
    spent = sum(t["self_s"] for t in totals.values())
    assert spent == pytest.approx(totals["cli.main"]["total_s"], rel=1e-6)
    parents = {sid: parent for sid, parent in zip(tracer.spans["id"], tracer.spans["parent"])}
    roots = [sid for sid, parent in parents.items() if parent == -1]
    assert len(roots) == 6


def test_tracer_reports_missing_layers_as_absent(monkeypatch):
    monkeypatch.delattr(sys.modules["degenpart.structure"], "separating_vertices")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["structure:separating_vertices"]


def test_summary_averages_each_request_over_the_passes():
    # the second pass ran on a machine twice as slow; in probes it reads the same
    times = [[float(i) for i in range(1, 21)], [2.0 * i for i in range(1, 21)]]
    probes = [[0.5] * 20, [1.0] * 20]
    in_probes = [[t / p for t, p in zip(ts, ps)] for ts, ps in zip(times, probes)]
    assert run._summary(in_probes) == run._summary([in_probes[0]])
    ops, p50, p90 = run._summary(times)
    assert (ops, p50) == (20 / sum(1.5 * i for i in range(1, 21)), 1.5 * 10.5)
    assert 1.5 * 18 < p90 < 1.5 * 19


def test_probe_times_a_task_outside_the_library():
    import gc

    assert gc.isenabled()
    assert 0 < run.probe() < 1
    assert gc.isenabled()


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.GENERATORS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run._unit(m["name"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_result_line(trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "TIGHT_LADDER", ((8, 12),))
    assert run.main(["--workload", "tight", "--seed", "3", "--seconds", "0.01", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    names = run.PER_LAYER if trace == "1" else tuple(run.END_TO_END_UNITS)
    assert list(result["metrics"]) == list(names)


def test_run_refuses_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "hard", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""

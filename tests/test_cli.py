import hashlib
import os
import random
import subprocess
import sys

import pytest

import degenpart as dp
from degenpart.cli import main
from degenpart import structure
from degenpart.hardpair import VectorFunction
from degenpart.instancefile import (
    emit_certificates,
    emit_instance,
    parse_certificates,
    parse_coloring,
    parse_instance,
    parse_partition,
)
from conftest import (
    balanced_plan,
    count_calls,
    disconnected_instance,
    disjoint_union,
    reference_hard_components,
    refinement_instances,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def c4_instance():
    H = dp.cycle(4)
    return emit_instance(H, VectorFunction.constant(H.vertices, (1, 1)))


def c5_instance():
    H = dp.cycle(5)
    return emit_instance(H, VectorFunction.constant(H.vertices, (1, 1)))


class TestCommands:
    def test_partition_found(self, tmp_path, capsys):
        path = write(tmp_path, "c4.hg", c4_instance())
        assert main(["partition", path]) == 0
        P, p = parse_partition(capsys.readouterr().out)
        assert p == 2
        H = dp.cycle(4)
        assert dp.verify_partition(H, VectorFunction.constant(H.vertices, (1, 1)), P)

    def test_partition_certificate_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "c5.hg", c5_instance())
        assert main(["partition", path]) == 2
        (cert,) = parse_certificates(capsys.readouterr().out)
        H = dp.cycle(5)
        assert dp.verify_certificate(H, VectorFunction.constant(H.vertices, (1, 1)), cert)

    def test_is_hard(self, tmp_path, capsys):
        assert main(["is-hard", write(tmp_path, "c5.hg", c5_instance())]) == 2
        parse_certificates(capsys.readouterr().out)
        assert main(["is-hard", write(tmp_path, "c4.hg", c4_instance())]) == 0
        assert capsys.readouterr().out == "not-hard\n"

    def test_is_hard_per_component(self, tmp_path, capsys):
        # two hard components, and a tight C4 that is not hard and holds the smallest vertex
        H1, f1 = dp.make_hard(dp.random_hard_plan(3, max_blocks=12, p=3), 3, seed=3)
        H2, f2 = dp.make_hard(dp.random_hard_plan(5, max_blocks=6, p=3), 3, seed=5)
        C = dp.cycle(4)
        H, f = disjoint_union([("x.", H1, f1), ("y.", H2, f2), ("a.", C, VectorFunction.constant(C.vertices, (1, 1, 0)))])
        assert main(["is-hard", write(tmp_path, "h.hg", emit_instance(H, f))]) == 2
        out = capsys.readouterr().out
        want = reference_hard_components(H, f)
        assert len(want) == 2 and out == emit_certificates(want)
        for cert in parse_certificates(out):
            comp = frozenset().union(*cert.blocks)
            assert dp.verify_certificate(H.induced(comp), f.restrict(comp), cert)

    def test_is_hard_matches_component_driver(self, tmp_path, capsys):
        hard = 0
        for seed in range(40):
            H, f = disconnected_instance(seed)
            want = reference_hard_components(H, f)
            code = main(["is-hard", write(tmp_path, f"{seed}.hg", emit_instance(H, f))])
            assert (code, capsys.readouterr().out) == ((2, emit_certificates(want)) if want else (0, "not-hard\n"))
            hard += code == 2
        assert 10 <= hard < 40

    def test_col(self, tmp_path, capsys):
        path = write(tmp_path, "k4.hg", emit_instance(dp.complete_uniform(4, 2)))
        assert main(["col", path]) == 0
        assert capsys.readouterr().out == "col 4\n"

    def test_blocks(self, tmp_path, capsys):
        text = "hg 0\nv a\nv b\nv c\ne e1 a b\ne e2 b c\n"
        assert main(["blocks", write(tmp_path, "p.hg", text)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "blocks 2"
        assert out[-1] == "cut b"

    def test_blocks_of_every_component_from_one_pass(self, tmp_path, monkeypatch, capsys):
        # the reference copies each component out and decomposes it alone
        H, _ = disconnected_instance(4)
        want = []
        for comp in dp.components(H):
            bt = dp.blocks(H.induced(comp))
            want.append(f"blocks {len(bt.blocks)}")
            want += [f"b {i} " + " ".join(sorted(b)) for i, b in enumerate(bt.blocks, 1)]
            want.append("cut" + "".join(" " + v for v in sorted(bt.cut_vertices)))
        assert len(dp.components(H)) >= 4 and want.count("blocks 1") < len(dp.components(H))
        path = write(tmp_path, "h.hg", emit_instance(H))
        counts = {}
        for owner, name in ((structure, "block_forest"), (structure, "components"), (dp.Hypergraph, "induced")):
            count_calls(monkeypatch, counts, owner, name)
        assert main(["blocks", path]) == 0
        assert capsys.readouterr().out.splitlines() == want
        assert counts == {"block_forest": 1, "components": 0, "induced": 0}

    def test_degenerate(self, tmp_path, capsys):
        H = dp.path(3)
        text = emit_instance(H, VectorFunction.constant(H.vertices, (2,)))
        assert main(["degenerate", write(tmp_path, "p.hg", text)]) == 0
        assert capsys.readouterr().out.startswith("degenerate ")
        H = dp.cycle(3)
        text = emit_instance(H, VectorFunction.constant(H.vertices, (2,)))
        assert main(["degenerate", write(tmp_path, "c.hg", text)]) == 2
        assert capsys.readouterr().out == "core v1 v2 v3\n"

    def test_refine_degrees(self, tmp_path, capsys):
        H = dp.cycle(4)
        f = VectorFunction.constant(H.vertices, (1, 1))
        assert main(["refine-degrees", write(tmp_path, "c4.hg", c4_instance())]) == 0
        P, _ = parse_partition(capsys.readouterr().out)
        assert dp.verify_partition(H, f, P)

    def test_refine_degrees_certificate_exit_2(self, tmp_path, capsys):
        assert main(["refine-degrees", write(tmp_path, "c5.hg", c5_instance())]) == 2
        (cert,) = parse_certificates(capsys.readouterr().out)
        H = dp.cycle(5)
        assert dp.verify_certificate(H, VectorFunction.constant(H.vertices, (1, 1)), cert)

    def test_list_color(self, tmp_path, capsys):
        H = dp.cycle(4)
        text = emit_instance(H, lists={v: {"1", "2"} for v in H.vertices})
        assert main(["list-color", write(tmp_path, "c4l.hg", text)]) == 0
        col = parse_coloring(capsys.readouterr().out)
        assert dp.is_proper(H, col)
        H = dp.cycle(5)
        text = emit_instance(H, lists={v: {"1", "2"} for v in H.vertices})
        assert main(["list-color", write(tmp_path, "c5l.hg", text)]) == 2
        parse_certificates(capsys.readouterr().out)

    def test_alpha(self, tmp_path, capsys):
        path = write(tmp_path, "k5.hg", emit_instance(dp.complete_uniform(5, 2)))
        assert main(["alpha", path, "--s", "2"]) == 0
        assert capsys.readouterr().out == "alpha 3\n"
        assert main(["alpha", path, "--s", "1", "--lick-white"]) == 0
        assert capsys.readouterr().out == "alpha 3\n"
        assert main(["alpha", path, "--s", "0", "--lick-white"]) == 0
        assert capsys.readouterr().out == "alpha 5\n"
        path12 = write(tmp_path, "p12.hg", emit_instance(dp.path(12)))
        assert main(["alpha", path12, "--s", "1"]) == 0
        assert capsys.readouterr().out == "alpha 2\n"
        # past the oracle's range: the proven bounds, as an error
        path = write(tmp_path, "k12.hg", emit_instance(dp.complete_uniform(12, 2)))
        assert main(["alpha", path, "--s", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: alpha: 2 <= alpha <= 6; ")
        assert err.endswith("brute_partitionable guard exceeded (n=12, p=2)\n")

    def test_gen_round_trips(self, capsys):
        assert main(["gen", "cycle", "--n", "6"]) == 0
        text = capsys.readouterr().out
        assert emit_instance(dp.cycle(6)) == text
        assert main(["gen", "hard", "--seed", "3", "--p", "2"]) == 0
        capsys.readouterr()
        assert main(["gen", "random", "--n", "5", "--m", "6", "--seed", "1"]) == 0
        capsys.readouterr()

    def test_gen_hard_is_hard(self, tmp_path, capsys):
        assert main(["gen", "hard", "--seed", "7", "--p", "3"]) == 0
        text = capsys.readouterr().out
        assert main(["is-hard", write(tmp_path, "h.hg", text)]) == 2

    def test_stdin(self, tmp_path, monkeypatch, capsys):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(c4_instance()))
        assert main(["partition", "-"]) == 0
        parse_partition(capsys.readouterr().out)


class TestGenHardDigests:
    """gen hard prints the same bytes as the recursive construction did."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("--seed 0 --blocks 40 --p 3", "e335ab20b416d57c63f92345c344a54dde2781a887054a1f9d1d16f5d81dd1c0"),
            ("--seed 7 --p 3", "3ecd818dabd81c426eee61521b0ed5e3930c9013db16eee1fafa7225a82ff7c8"),
            ("--seed 4 --blocks 200 --p 5", "6c79a12b2cd4c7a79691967e696514157b8bd550878adb5fdfc5159f157eb41f"),
        ],
    )
    def test_digest(self, args, digest, capsys):
        assert main(["gen", "hard"] + args.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_deep_plan_digest_and_certificate(self, tmp_path, capsys):
        # seed 0 draws 1578 blocks, each merged one level deeper than the last
        assert main(["gen", "hard", "--seed", "0", "--blocks", "3000", "--p", "3"]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f8aa4d67975d1d2bf6c159b3f5bd1989e76c5fb22bf78b68d7053c3b6c96ef1d"
        )
        assert main(["partition", write(tmp_path, "deep.hg", text)]) == 2
        (cert,) = parse_certificates(capsys.readouterr().out)
        inst = parse_instance(text)
        assert dp.verify_certificate(inst.H, inst.f, cert)


def uniform_cycle_3(n):
    """The 3-uniform cycle with edges {v_i, v_i+1, v_i+2}, indices mod n."""
    vs = [f"v{i}" for i in range(1, n + 1)]
    return dp.Hypergraph(vs, {f"e{i}": (vs[i - 1], vs[i % n], vs[(i + 1) % n]) for i in range(1, n + 1)})


class TestSolverDigests:
    """partition and refine-degrees print pinned bytes.  The tight families
    below take the is_hard fallback at every tight step but the last."""

    @pytest.mark.parametrize(
        "H, vec, digest",
        [
            (dp.cycle(6), (1, 1), "c0d87501d4f03b09c0471a86695fb126bd7315e88cb94294a6428c0ea5ca6695"),
            (dp.cycle(40), (1, 1), "22fc1fe7c532673a0fb84768febe3a65339c008b936c33225ecca50dd83209db"),
            (dp.cycle(200), (1, 1), "24c26d3ad59f0d1e39c622fd63880fe37071bcdeb580b4e839d398edcd6d6ac9"),
            (uniform_cycle_3(7), (2, 1), "3a3aecf7150a5d31a29dd968aa4f3202655f9d541021eb0a5befa04f0e000869"),
            (uniform_cycle_3(40), (2, 1), "953e0eaf6e7f494bc206afad803d755ac3c367095cc47fa5a1e189b20fab37e2"),
            (uniform_cycle_3(100), (2, 1), "e0c44eb29bf99b78c0faef3bf46acf2a9d182a89df1d29ee92e37adc6ae33ca7"),
        ],
        ids=["C6", "C40", "C200", "C3_7", "C3_40", "C3_100"],
    )
    def test_partition_digest(self, H, vec, digest, tmp_path, capsys):
        text = emit_instance(H, VectorFunction.constant(H.vertices, vec))
        assert main(["partition", write(tmp_path, "tight.hg", text)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_refine_degrees_digest(self, tmp_path, capsys):
        # the refinement instances whose partition needs moves
        outs = []
        for H, f in refinement_instances(30):
            P = dp.solve(H, f).partition
            if P is None or dp.enforce_degree_bounds(H, f, P) == P:
                continue
            assert main(["refine-degrees", write(tmp_path, "r.hg", emit_instance(H, f))]) == 0
            outs.append(capsys.readouterr().out)
        assert len(outs) == 147
        assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
            "dc823a395fccdb4343a2ce68f1df670d73ed192a146235f6a0b4f70b68f49fa8"
        )


class TestErrors:
    def test_parse_error_exit_1(self, tmp_path, capsys):
        assert main(["partition", write(tmp_path, "bad.hg", "v a 1\n")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_1(self, capsys):
        assert main(["partition", "/nonexistent/x.hg"]) == 1

    def test_missing_f_values(self, tmp_path, capsys):
        # an instance that reads well but lacks what the command needs names no line
        cases = [
            ("partition", emit_instance(dp.cycle(3)),
             "this command needs vertex f-values (header 'hg <p>' with p >= 1)"),
            ("degenerate", "hg 2\nv a 1 1\n", "degenerate expects a single-coordinate instance (hg 1)"),
            ("list-color", "hg 1\nv a 1\n", "this command needs list lines ('l <vertex> <colors...>')"),
        ]
        for command, text, message in cases:
            assert main([command, write(tmp_path, "c.hg", text)]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: {message}\n"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("gen hard --blocks 0", "error: random_hard_plan needs max_blocks >= 1 and p >= 1, got 0 and 2"),
            ("gen hard --p 0", "error: random_hard_plan needs max_blocks >= 1 and p >= 1, got 3 and 0"),
            ("oracle-check --max-n 1", "error: need --max-n >= 2 and --p >= 1, got --max-n 1 --p 2"),
            ("census --max-n 1", "error: need --max-n >= 2 and --p >= 1, got --max-n 1 --p 2"),
            ("oracle-check --p 0", "error: need --max-n >= 2 and --p >= 1, got --max-n 5 --p 0"),
            ("gen cycle --n 5 --t 0", "error: t_fold needs t >= 1, got 0"),
            ("gen hard --t 3 --seed 1", "error: gen hard builds no t-fold pairs: --t must be 1, got 3"),
        ],
    )
    def test_argument_error_one_line(self, argv, message, capsys):
        assert main(argv.split()) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == message + "\n"

    def test_internal_error_one_line(self, tmp_path, monkeypatch, capsys):
        import degenpart.cli as cli

        def broken(H):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "col", broken)
        path = write(tmp_path, "k4.hg", emit_instance(dp.complete_uniform(4, 2)))
        assert main(["col", path]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: internal error: RuntimeError: boom\n"


class TestChecks:
    def test_oracle_check_agrees(self, capsys):
        assert main(["oracle-check", "--count", "40", "--max-n", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "checked 40" in out
        assert "disagreements: 0" in out

    def test_census_output(self, capsys):
        assert main(["census", "--count", "40", "--max-n", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "disagreements: 0"
        assert all(line.startswith("n ") for line in out[:-1])


class TestDeterminism:
    def _run(self, argv, stdin_text):
        return subprocess.run(
            [sys.executable, "-m", "degenpart.cli"] + argv,
            input=stdin_text.encode(),
            capture_output=True,
        )

    def test_byte_identical_over_runs(self):
        for argv, text in [
            (["partition", "-"], c4_instance()),
            (["partition", "-"], c5_instance()),
            (["is-hard", "-"], c5_instance()),
            (["blocks", "-"], "hg 0\nv a\nv b\nv c\ne e1 a b\ne e2 b c\n"),
        ]:
            a = self._run(argv, text)
            b = self._run(argv, text)
            assert a.returncode == b.returncode
            assert a.stdout == b.stdout

    def test_partition_independent_of_hash_seed(self):
        # a tight instance that takes seven tight steps, and one whose
        # finisher meets five vertices at the same distance
        rng = random.Random(4)
        H = dp.random_hypergraph(8, 11, seed=4, connected=True)
        values = {}
        for v in sorted(H.vertices):
            vec = [0, 0]
            for _ in range(H.degree(v)):
                vec[rng.randrange(2)] += 1
            values[v] = tuple(vec)
        K = dp.complete_uniform(6, 2)
        g = VectorFunction(3, {v: (3, 1, 1) if v == "v1" else (2, 2, 1) for v in K.vertices})
        # a 40-block hard pair, and the same pair with one unit of f moved
        rng = random.Random(40)
        bases = [dp.random_hard_plan(rng.randrange(2**32), max_blocks=1, p=3) for _ in range(40)]
        Hh, fh = dp.make_hard(balanced_plan(bases), 3, seed=40)
        v = min(u for u in Hh.vertices if fh[u][0])
        moved = fh.with_value(v, (fh[v][0] - 1, fh[v][1] + 1, fh[v][2]))
        cases = [
            ("partition", emit_instance(H, VectorFunction(2, values)), 0),
            ("partition", emit_instance(K, g), 0),
            ("is-hard", emit_instance(Hh, fh), 2),
            ("is-hard", emit_instance(Hh, moved), 0),
        ]
        for command, text, code in cases:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "degenpart.cli", command, "-"],
                    input=text.encode(),
                    capture_output=True,
                    env={**os.environ, "PYTHONHASHSEED": seed},
                )
                for seed in ("0", "1")
            ]
            assert runs[0].returncode == runs[1].returncode == code
            assert runs[0].stdout == runs[1].stdout

    def test_sweeps_independent_of_hash_seed(self):
        # each instance's vectors are drawn in vertex-name order, not in
        # the hash order of the vertex set
        for argv in (["census", "--count", "60"], ["oracle-check", "--count", "40"]):
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "degenpart.cli"] + argv,
                    capture_output=True,
                    env={**os.environ, "PYTHONHASHSEED": seed},
                )
                for seed in ("0", "1")
            ]
            assert runs[0].returncode == runs[1].returncode == 0
            assert runs[0].stdout == runs[1].stdout

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the answer outgrows the 64 KiB pipe buffer, so the CLI is still
        # writing when the reader closes the pipe after one line
        vs = [f"v{i}" for i in range(1, 20001)]
        path = write(tmp_path, "wide.hg", emit_instance(dp.Hypergraph(vs, {"e": vs})))
        proc = subprocess.Popen(
            [sys.executable, "-m", "degenpart.cli", "blocks", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert first == b"blocks 1\n" and err == b""

    def test_gen_seeded_reproducible(self):
        a = self._run(["gen", "random", "--n", "6", "--m", "7", "--seed", "9"], "")
        b = self._run(["gen", "random", "--n", "6", "--m", "7", "--seed", "9"], "")
        assert a.stdout == b.stdout and a.returncode == 0

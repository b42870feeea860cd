import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sct
from sct import reduction
from sct.cli import main
from sct.fixtures import ACKERMANN_SOURCE


@pytest.fixture
def ack_file(tmp_path):
    path = tmp_path / "ackermann.sct"
    path.write_text(ACKERMANN_SOURCE)
    return str(path)


@pytest.fixture
def fixture_dir(tmp_path):
    assert main(["fixtures", "-o", str(tmp_path / "fx")]) == 0
    return tmp_path / "fx"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalyze:
    def test_ackermann(self, capsys, ack_file):
        code, report = run_json(capsys, ["analyze", ack_file])
        assert code == 0
        assert report["sct"] is True
        assert report["closure_size"] == 2
        assert [g["name"] for g in report["description"]["graphs"]] == [
            "tau0",
            "tau1",
            "tau2",
        ]

    def test_swap_program(self, capsys, tmp_path, fixture_dir):
        prog = tmp_path / "swap.sct"
        assert main(["synth", str(fixture_dir / "swap-graphs.json"), "-o", str(prog)]) == 0
        capsys.readouterr()
        code, report = run_json(capsys, ["analyze", str(prog)])
        assert code == 1
        assert report["sct"] is False
        assert report["counterexample"]["lasso"]["period"] == ["tau0", "tau0"]

    def test_missing_file(self, capsys):
        assert main(["analyze", "no-such-file.sct"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.sct"
        bad.write_text("f(x) = if x then 1 else 2")
        assert main(["analyze", str(bad)]) == 2

    def test_byte_stable(self, capsys, ack_file):
        main(["analyze", ack_file])
        first = capsys.readouterr().out
        main(["analyze", ack_file])
        assert capsys.readouterr().out == first


class TestPipeline:
    def test_extract_synth_analyze(self, capsys, ack_file, tmp_path):
        graphs = tmp_path / "graphs.json"
        prog = tmp_path / "resynth.sct"
        assert main(["extract", ack_file, "-o", str(graphs)]) == 0
        data = json.loads(graphs.read_text())
        assert len(data["graphs"]) == 3
        assert main(["synth", str(graphs), "-o", str(prog)]) == 0
        code, report = run_json(capsys, ["analyze", str(prog), "--mode", "syntactic"])
        assert code == 0 and report["sct"] is True

    def test_extract_modes_differ_on_unguarded_decrement(self, capsys, tmp_path):
        src = tmp_path / "p.sct"
        src.write_text("f(x) = f(x-1)")
        code, guarded = run_json(capsys, ["extract", str(src)])
        assert code == 0
        code, syntactic = run_json(capsys, ["extract", str(src), "--mode", "syntactic"])
        assert guarded["graphs"][0]["arcs"][0]["kind"] == "nonstrict"
        assert syntactic["graphs"][0]["arcs"][0]["kind"] == "strict"


class TestRun:
    def test_value(self, capsys, ack_file):
        code, report = run_json(capsys, ["run", ack_file, "A", "2", "2"])
        assert code == 0 and report["value"] == 7

    def test_out_of_fuel(self, capsys, ack_file):
        code, report = run_json(capsys, ["run", ack_file, "A", "3", "3", "--fuel", "10"])
        assert code == 1 and report["out_of_fuel"] is True

    def test_wrong_arity(self, capsys, ack_file):
        assert main(["run", ack_file, "A", "2"]) == 2

    @pytest.mark.parametrize("args, value", [(("2", "100"), 203), (("3", "5"), 253)])
    def test_deep_recursion(self, capsys, ack_file, args, value):
        # hundreds of nested calls: fuel is the interpreter's only bound
        code, report = run_json(capsys, ["run", ack_file, "A", *args])
        assert code == 0 and report["value"] == value

    @pytest.mark.parametrize(
        "extra", [["A", "-1", "2"], ["A", "2", "2", "--fuel", "-5"]], ids=["arg", "fuel"]
    )
    def test_negative_input_exits_2(self, capsys, ack_file, extra):
        assert main(["run", ack_file, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_internal_error_exits_3(self, capsys, ack_file, monkeypatch):
        def crash(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("sct.interp.eval_program", crash)
        assert main(["run", ack_file, "A", "2", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal error: RecursionError: maximum recursion depth exceeded\n"
        )


class TestGraphsCheck:
    def test_ackermann_fixture(self, capsys, fixture_dir):
        capsys.readouterr()
        code, report = run_json(
            capsys, ["graphs", "check", str(fixture_dir / "ackermann-graphs.json")]
        )
        assert code == 0 and report["sct"] is True

    def test_swap_with_oracle(self, capsys, fixture_dir):
        capsys.readouterr()
        code, report = run_json(
            capsys,
            ["graphs", "check", str(fixture_dir / "swap-graphs.json"), "--oracle", "2"],
        )
        assert code == 1
        assert report["lasso"]["period"] == ["S", "S"]
        assert report["oracle"]["agrees"] is True
        assert report["oracle"]["counterexample"]["period"] == ["S"]

    @pytest.mark.parametrize("bound", ["0", "-1"])
    @pytest.mark.parametrize("graphs", ["empty", "swap"])
    def test_oracle_bound_below_one_exits_2(self, capsys, tmp_path, fixture_dir, graphs, bound):
        # checked before the set is read, so an empty set is no exception
        path = fixture_dir / "swap-graphs.json"
        if graphs == "empty":
            path = tmp_path / "empty.json"
            path.write_text('{"functions": [], "graphs": []}')
        capsys.readouterr()
        assert main(["graphs", "check", str(path), "--oracle", bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_len must be at least 1\n"

    def test_schema_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"functions": [{"name": "f", "params": ["x"]}],'
            ' "graphs": [{"source": "f", "target": "f",'
            ' "arcs": [{"from": "nope", "kind": "strict", "to": "x"}]}]}'
        )
        assert main(["graphs", "check", str(bad)]) == 2
        assert "/graphs/0/arcs/0/from" in capsys.readouterr().err


class TestOracleCommand:
    def test_compare_agrees(self, capsys, fixture_dir):
        capsys.readouterr()
        code, report = run_json(
            capsys,
            [
                "oracle",
                str(fixture_dir / "ackermann-graphs.json"),
                "--max-word-len",
                "3",
                "--compare",
            ],
        )
        assert code == 0
        assert report["counterexample"] is None
        assert report["criterion_agrees"] is True

    def test_large_bound_prints_every_digit(self, capsys, fixture_dir):
        capsys.readouterr()
        argv = ["oracle", str(fixture_dir / "ackermann-graphs.json"), "--max-word-len", "20000"]
        assert main(argv) == 0
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            digits = str(2**20001 - 2)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(digits) == 6021
        assert capsys.readouterr().out == (
            f'{{\n  "max_word_len": 20000,\n  "words_checked": {digits},\n  "counterexample": null\n}}\n'
        )

    def test_spp_family_at_sixty_within_a_second(self, capsys, tmp_path):
        path = str(tmp_path / "k3.json")
        assert main(["principles", "spp-family", "--k", "3", "-o", path]) == 0
        capsys.readouterr()
        start = time.perf_counter()
        code, report = run_json(capsys, ["oracle", path, "--max-word-len", "60"])
        assert time.perf_counter() - start < 1.0
        assert (code, report["counterexample"]) == (0, None)
        assert report["words_checked"] == sum(8**length for length in range(1, 61))


class TestNothingToClose:
    """A graph set without graphs, and a program without calls, terminate with
    an empty closure; the oracle of ``graphs check`` is skipped on them."""

    VERDICT = '{\n  "sct": true,\n  "closure_size": 0\n}\n'

    @pytest.fixture
    def empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"functions": [], "graphs": []}')
        return str(path)

    @pytest.mark.parametrize("flags", [[], ["--oracle", "2"]], ids=["plain", "oracle"])
    def test_graphs_check(self, capsys, empty_file, flags):
        assert main(["graphs", "check", empty_file, *flags]) == 0
        assert capsys.readouterr() == (self.VERDICT, "")

    def test_oracle_compare(self, capsys, empty_file):
        assert main(["oracle", empty_file, "--max-word-len", "3", "--compare"]) == 0
        assert capsys.readouterr() == (
            '{\n  "max_word_len": 3,\n  "words_checked": 0,\n  "counterexample": null,\n'
            '  "criterion_agrees": true\n}\n',
            "",
        )

    @pytest.mark.parametrize("mode", ["guarded", "syntactic"])
    def test_analyze_call_free_program(self, capsys, tmp_path, mode):
        path = tmp_path / "id.sct"
        path.write_text("f(x) = x\n")
        assert main(["analyze", str(path), "--mode", mode]) == 0
        assert capsys.readouterr() == (
            f'{{\n  "mode": "{mode}",\n  "sct": true,\n  "closure_size": 0,\n'
            '  "description": {\n    "functions": [],\n    "graphs": []\n  }\n}\n',
            "",
        )


class TestPrinciples:
    def test_spp_family(self, capsys):
        code, data = run_json(capsys, ["principles", "spp-family", "--k", "2"])
        assert code == 0 and len(data["graphs"]) == 3

    @pytest.mark.parametrize("k", ["0", "7"])
    def test_spp_family_bad_k_exits_2(self, capsys, k):
        assert main(["principles", "spp-family", "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the spp family is built for 1 <= k <= 6, got k = {k}\n"

    def test_reversal(self, capsys):
        code, data = run_json(
            capsys, ["principles", "reversal", "--k", "2", "--period", "0,1"]
        )
        assert code == 0
        assert data["descent"]["param"] == "z01"

    @pytest.mark.parametrize("k", ["13", "40"])
    def test_reversal_beyond_the_color_bound_exits_2(self, capsys, monkeypatch, k):
        def no_sets(*args):
            raise AssertionError("index sets allocated")

        monkeypatch.setattr(reduction.itertools, "combinations", no_sets)
        assert main(["principles", "reversal", "--k", k, "--period", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: index sets are built for 1 <= k <= 12 colors, got k = {k}\n"

    def test_star(self, capsys):
        code, data = run_json(
            capsys,
            ["principles", "star", "--n", "20", "--k", "2", "--min-triangles", "5"],
        )
        assert code == 0
        assert (data["center"], data["color"]) == (0, 0)
        assert data["triangles"] >= 5

    @pytest.fixture
    def star_file(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text('{"k": 2, "n": 4, "rows": [[0, 0, 0], [0, 0], [0]]}', encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "flags", [[], ["--n", "4"], ["--k", "2"], ["--n", "4", "--k", "2"]],
        ids=["none", "n", "k", "n-and-k"],
    )
    def test_star_file_takes_n_and_k_from_the_file(self, capsys, star_file, flags):
        argv = ["principles", "star", "--pattern", "file", "--file", star_file, *flags]
        code, data = run_json(capsys, [*argv, "--min-triangles", "3"])
        assert code == 0
        assert (data["center"], data["color"], data["triangles"]) == (0, 0, 3)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "3"], "--n 3 does not match the file's n = 4"),
            (["--k", "3"], "--k 3 does not match the file's k = 2"),
            (["--n", "4", "--k", "1"], "--k 1 does not match the file's k = 2"),
        ],
        ids=["n", "k", "n-and-k"],
    )
    def test_star_file_mismatch_exits_2(self, capsys, star_file, flags, message):
        assert main(["principles", "star", "--pattern", "file", "--file", star_file, *flags]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("pattern", ["parity", "constant"])
    def test_star_pattern_without_n_exits_2(self, capsys, pattern):
        assert main(["principles", "star", "--pattern", pattern, "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: --pattern {pattern} needs --n\n")

    def test_star_without_colors_exits_2(self, capsys):
        assert main(["principles", "star", "--k", "0", "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least one color, got k = 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "-3"],
            ["--n", "0"],
            ["--n", "5", "--min-triangles", "-1"],
            ["--n", "5", "--min-triangles", "0"],
        ],
        ids=["n-negative", "n-zero", "min-triangles-negative", "min-triangles-zero"],
    )
    def test_star_bad_size_exits_2(self, capsys, argv):
        assert main(["principles", "star", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need at least one ")
        assert captured.err.count("\n") == 1


class TestFixtures:
    def test_files_written(self, fixture_dir):
        names = sorted(p.name for p in fixture_dir.iterdir())
        assert names == [
            "ackermann-graphs.json",
            "ackermann.sct",
            "spp-warmup.json",
            "swap-graphs.json",
        ]


class TestUnwritableOutput:
    """An output path that cannot be written is an input error (exit 2)."""

    @pytest.mark.parametrize(
        "argv, target, reason",
        [
            (["extract", "ackermann.sct", "-o", "missing/x.json"], "missing/x.json",
             "No such file or directory"),
            (["synth", "ackermann-graphs.json", "-o", "."], ".", "Is a directory"),
            (["principles", "spp-family", "--k", "2", "-o", "missing/x.json"], "missing/x.json",
             "No such file or directory"),
            (["fixtures", "-o", "ackermann.sct/sub"], "ackermann.sct/sub", "Not a directory"),
            (["fixtures", "-o", "ackermann.sct"], "ackermann.sct", "File exists"),
        ],
        ids=["extract", "synth", "spp-family", "fixtures-under-file", "fixtures-onto-file"],
    )
    def test_exits_2(self, capsys, fixture_dir, monkeypatch, argv, target, reason):
        monkeypatch.chdir(fixture_dir)
        capsys.readouterr()  # what writing the fixtures printed
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {target}: {reason}\n"


# sha256 of stdout and the exit code of whole `sct` processes run in the
# fixtures directory; stdout must not depend on the hash seed
GOLDEN = {
    "analyze-guarded": (
        ["analyze", "ackermann.sct"],
        0,
        "f1d0effad5977e9a038f81891cdbf6702b35cabbc107888a2103278617bf0334",
    ),
    "analyze-syntactic": (
        ["analyze", "ackermann.sct", "--mode", "syntactic"],
        0,
        "47a2f6d49ca6e1e89215b9ed9616a48372c1bb69c21d83eb2cfa3e8da5700ea7",
    ),
    "graphs-check-ackermann-oracle": (
        ["graphs", "check", "ackermann-graphs.json", "--oracle", "4"],
        0,
        "4cb0109f69dded82c9e22cbb60a0764cb13a3e67c50551211a20ee3902cd2db9",
    ),
    "graphs-check-swap-oracle": (
        ["graphs", "check", "swap-graphs.json", "--oracle", "2"],
        1,
        "b3932b1e51e7163818d728867710fd4a3c8a3f1d8f435a987ccfc55767bb7f82",
    ),
    "oracle-swap-compare": (
        ["oracle", "swap-graphs.json", "--max-word-len", "3", "--compare"],
        1,
        "4fa9e2c869587468f11e523e4cf05a4a17ff012b5a8bae0c0d38fa7d412440ff",
    ),
    "oracle-warmup-compare": (
        ["oracle", "spp-warmup.json", "--max-word-len", "3", "--compare"],
        0,
        "27aff3dc549039f23b3480b90d92bf992d638357f9c6f50df077ec4c0552783d",
    ),
    "principles-reversal": (
        ["principles", "reversal", "--k", "3", "--period", "0,1,2", "--prefix", "2"],
        0,
        "59e42fcea1c61b3f2f5d91b638ad864707fc6977db683db75790c7812db21173",
    ),
    "extract-guarded": (
        ["extract", "ackermann.sct"],
        0,
        "59fde0db8e353fcc2e5e3b670c83afaa2671636c23de36c3d63583d7793bc47d",
    ),
    "extract-syntactic": (
        ["extract", "ackermann.sct", "--mode", "syntactic"],
        0,
        "59fde0db8e353fcc2e5e3b670c83afaa2671636c23de36c3d63583d7793bc47d",
    ),
    "synth-ackermann": (
        ["synth", "ackermann-graphs.json"],
        0,
        "a62eae8e0c9c42f49d083b222ce0b75834cef9cf22eaf24a1d6c416e66d6cf3b",
    ),
    "synth-warmup": (
        ["synth", "spp-warmup.json"],
        0,
        "cf874f9e44d5ef5a6aecda652e45b6988c6b17ee14a1ed7a7c8ad23d57321dfd",
    ),
    "run-ackermann": (
        ["run", "ackermann.sct", "A", "2", "3"],
        0,
        "e1219a664b15a22490674ca760142d633d97f2f2329fc870a52f18804ecd0b48",
    ),
    "run-out-of-fuel": (
        ["run", "ackermann.sct", "A", "3", "3", "--fuel", "100"],
        1,
        "5b10af5b66afd52ea9eb72a21b15784ed1a810bd39f0ebf308e4e68a13069c48",
    ),
    "principles-spp-family": (
        ["principles", "spp-family", "--k", "2"],
        0,
        "bf1aaa76213e7392fe636dd2589918480a19e62c1cc5f44b02d5efed26b1e6a3",
    ),
    "principles-spp-family-k3": (
        ["principles", "spp-family", "--k", "3"],
        0,
        "e4fa4eb6b4519f8075041939606be2e8a9b62886389a0c79292f0fd6a8b492b9",
    ),
    "principles-spp-family-k4": (
        ["principles", "spp-family", "--k", "4"],
        0,
        "48a325546ea79653cc4bdd56f8acf81e8e1ccf74fde213801161b1b6ecea0e03",
    ),
    "principles-star-parity": (
        ["principles", "star", "--n", "20", "--min-triangles", "5"],
        0,
        "42a97e917adea50343db112e4645565ee777eef6c8d26fedf969ad58bc9dc096",
    ),
    "principles-star-constant": (
        ["principles", "star", "--n", "6", "--pattern", "constant"],
        0,
        "d8d4277dfc3e5f8f91417199cc21f8ab193370dd74d450389dbb31d3095d6de7",
    ),
}


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(fixture_dir, name, hash_seed):
    argv, code, digest = GOLDEN[name]
    src = str(Path(sct.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "sct.cli", *argv],
        cwd=fixture_dir,
        env=env,
        capture_output=True,
        check=False,
    )
    assert proc.stderr == b""
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == (code, digest)

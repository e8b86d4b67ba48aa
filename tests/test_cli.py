import atexit
import contextlib
import errno
import gc
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biarcs.cli import COMMON, SETTINGS, build_parser, main, resolve_settings

FOUR_PI2 = 4 * math.pi**2


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestEnergyCommand:
    def test_circle_values(self, capsys):
        code, out, _ = run(capsys, ["energy", "--curve", "circle", "--n", "8", "--q", "3"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kind", "q", "n", "value", "grid", "curve", "seed"]
        discrete = next(r for r in rows if r["kind"] == "discrete")
        continuous = next(r for r in rows if r["kind"] == "continuous")
        assert float(discrete["value"]) == pytest.approx(FOUR_PI2 * 7 / 8, rel=1e-10)
        assert float(continuous["value"]) == pytest.approx(FOUR_PI2, abs=1e-6)

    def test_continuous_energy_at_a_tiny_radius(self, capsys):
        # E(R circle) = R^(2 - q) E(circle), so 1e300 times the value at
        # R = 1, though kappa^4 and the pair terms x^4 overflow
        values = []
        for radius in ("1", "1e-150"):
            argv = ["energy", "--curve", "circle", "--params", radius, "--n", "16", "--q", "4"]
            code, out, _ = run(capsys, argv)
            assert code == 0
            values.append(next(r for r in parse_csv(out)[1] if r["kind"] == "continuous"))
        assert [row["value"] for row in values] == ["39.4784176044", "3.94784176044e+301"]

    @pytest.mark.parametrize(
        "curve, unit, tiny",
        [("ellipse", "2,1", "2e-13,1e-13"), ("torus_knot", "2,3,2,0.5", "2,3,2e-13,0.5e-13")],
    )
    def test_energies_at_a_tiny_size(self, capsys, curve, unit, tiny):
        # the arclength speed floor is relative to the largest speed, so a
        # curve 1e-13 in size has 1e13 times the energies, q = 3, in all 12 digits
        values = []
        for params in (unit, tiny):
            argv = ["energy", "--curve", curve, "--params", params, "--n", "16", "--q", "3"]
            code, out, _ = run(capsys, argv)
            assert code == 0
            values.append([row["value"] for row in parse_csv(out)[1]])
        assert values[1] == [f"{float(v) * 1e13:.12g}" for v in values[0]]

    def test_unknown_curve_is_config_error(self, capsys):
        code, _, err = run(capsys, ["energy", "--curve", "nope"])
        assert code == 2
        assert "unknown curve" in err

    @pytest.mark.parametrize(
        "curve, params, message",
        [
            ("circle", "", "circle takes 1 parameter R; got 0"),
            ("circle", "1,2", "circle takes 1 parameter R; got 2"),
            ("ellipse", "2", "ellipse takes 2 parameters a, b; got 1"),
            ("ellipse", "2,1,1", "ellipse takes 2 parameters a, b; got 3"),
            ("torus_knot", "2,3", "torus_knot takes 4 parameters p, q, R, r; got 2"),
            ("torus_knot", "2,3,2,0.5,1", "torus_knot takes 4 parameters p, q, R, r; got 5"),
        ],
        ids=["circle-0", "circle-2", "ellipse-1", "ellipse-3", "torus_knot-2", "torus_knot-5"],
    )
    def test_wrong_parameter_count_is_config_error(self, capsys, curve, params, message):
        code, _, err = run(capsys, ["energy", "--curve", curve, "--params", params])
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "curve, params, message",
        [
            ("circle", "inf", "circle parameters must be finite"),
            ("circle", "nan", "circle parameters must be finite"),
            ("torus_knot", "inf,3,2,0.5", "torus_knot parameters must be finite"),
            ("torus_knot", "2,3,inf,0.5", "torus_knot parameters must be finite"),
            ("torus_knot", "2000,3,2,0.5", "torus knot winding numbers need |p| + |q| < 1024"),
        ],
        ids=["circle-inf", "circle-nan", "torus_knot-p-inf", "torus_knot-R-inf", "torus_knot-2000"],
    )
    def test_bad_parameter_values_are_config_errors(self, capsys, curve, params, message):
        # in process, so a RuntimeWarning on the way would raise
        code, _, err = run(capsys, ["energy", "--curve", curve, "--params", params])
        assert code == 2
        assert err == f"error: {message}\n"

    def test_grid_must_be_power_of_two(self, capsys):
        code, _, err = run(capsys, ["energy", "--curve", "circle", "--grid", "300"])
        assert code == 2
        assert "power of two" in err


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["energy", "--curve", "circle", "--n", "3"], "n >= 4"),
            (["energy", "--curve", "circle", "--partition", "jitter:0.5"], "jitter amplitude"),
            (["converge", "--curve", "circle", "--n-sweep", "3,8"], "n >= 4"),
            (["mollify", "--curve", "circle", "--n-sweep", "0,4"], "positive"),
            (["anneal", "--curve", "circle", "--steps", "-5"], "steps must be >= 0"),
            (["energy", "--curve", "circle", "--partition", "jitter(0.1)"], "partition mode"),
            # a slope needs two points
            (["converge", "--curve", "ellipse", "--params", "2,1", "--n-sweep", "64", "--grid", "256"],
             "at least two sweep values"),
            # q is finite, above 2 where the continuous energy is computed, at
            # least 2 for the anneal, above 1 for mollify's smoothness 1 - 1/q
            (["energy", "--q", "2"], "q must be finite and above 2, got 2.0"),
            (["converge", "--q", "2", "--n-sweep", "16,32"], "q must be finite and above 2, got 2.0"),
            (["mollify", "--q", "1", "--n-sweep", "4,8"], "q must be finite and above 1, got 1.0"),
            (["mollify", "--q", "0.5", "--n-sweep", "4,8"], "q must be finite and above 1, got 0.5"),
            (["energy", "--q", "inf"], "q must be finite and above 2, got inf"),
            (["converge", "--q", "inf", "--n-sweep", "16,32"], "q must be finite and above 2, got inf"),
            (["anneal", "--q", "inf", "--steps", "5"], "q must be finite and at least 2, got inf"),
            (["energy", "--q", "nan"], "q must be finite and above 2, got nan"),
            (["anneal", "--q", "nan"], "q must be finite and at least 2, got nan"),
            (["converge", "--n-sweep", "8,x"], "bad integer list '8,x'"),
            (["converge", "--n-sweep", ","], "empty sweep"),
            (["energy", "--curve", "ellipse", "--params", "2,b"], "bad number list '2,b'"),
            (["energy", "--format", "xml"], "unknown format 'xml'"),
            (["ropelength"], "ropelength needs an n-sweep"),
            (["mollify"], "mollify needs an n-sweep"),
            # a negative seed, whether or not the command draws from it
            (["anneal", "--seed", "-1", "--steps", "5"], "seed must be a non-negative integer, got -1"),
            (["energy", "--partition", "jitter:0.1", "--seed", "-1"],
             "seed must be a non-negative integer, got -1"),
            (["energy", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
            (["converge", "--n-sweep", "16,32", "--seed", "-2"], "seed must be a non-negative integer, got -2"),
            (["ropelength", "--n-sweep", "16,32", "--seed", "-3"], "seed must be a non-negative integer, got -3"),
            (["mollify", "--n-sweep", "4,8", "--seed", "-4"], "seed must be a non-negative integer, got -4"),
        ],
    )
    def test_bad_sizes_exit_2(self, capsys, argv, message):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("energy", "q = abc", "q: expected float, got 'abc'"),
            ("energy", "n = 3.5", "n: expected int, got '3.5'"),
            ("energy", "q 3", "exp.cfg:1: expected key = value"),
            # the anneal schedule and the seminorm grid are constants
            ("anneal", "cooling_rate = 0.9", "unknown key 'cooling_rate' for anneal"),
            ("mollify", "seminorm_grid = 64", "unknown key 'seminorm_grid' for mollify"),
        ],
    )
    def test_bad_config_values_exit_2(self, tmp_path, capsys, command, line, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        sweep = ["--n-sweep", "8,16"] if command in ("converge", "ropelength", "mollify") else []
        code, _, err = run(capsys, [command, "--config", str(cfg), *sweep])
        assert code == 2
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv, initial, message",
        [
            (["energy", "--config", "{dir}/none.cfg"], None, "No such file"),
            (["anneal", "--initial", "{dir}/none.txt"], None, "No such file"),
            (["anneal", "--initial", "{dir}/start.txt"], "1 0 0 0 1\n", "expected 7 fields, got 5"),
            (["anneal", "--initial", "{dir}/start.txt"], "1 0 0 0 0 0 1\n", "tangent must be nonzero"),
            (["anneal", "--initial", "{dir}/start.txt"], "# no junctions\n", "three junction lines"),
            (["energy", "--out", "{dir}/none/e.csv"], None, "No such file"),
            (
                ["anneal", "--initial", "{dir}/start.txt"],
                "1 2 3 0 1 0 1\n2 nan 3 0 1 0 1\n",
                "junction line 2: point must be finite",
            ),
            (
                ["anneal", "--initial", "{dir}/start.txt"],
                "1 2 3 0 1 0 1\n\n2 abc 3 0 1 0 1\n",
                "junction line 3: could not convert string to float: 'abc'",
            ),
            (
                ["anneal", "--initial", "{dir}/start.txt"],
                "1 2 3 0 1 0 1\n2 2 3 0 1 0 nan\n",
                "junction line 2: segment length must be finite and positive",
            ),
        ],
    )
    def test_bad_files_exit_2(self, tmp_path, capsys, argv, initial, message):
        if initial is not None:
            (tmp_path / "start.txt").write_text(initial)
        code, _, err = run(capsys, [arg.format(dir=tmp_path) for arg in argv])
        assert code == 2
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("flag", [["--format", "json"], ["--grid", "64"]])
    def test_anneal_rejects_flags_it_does_not_read(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["anneal", "--curve", "circle", "--n", "8", "--steps", "10", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["energy", "--n", "8"], ["--n-sweep", "8,16"]),
            (["converge", "--n-sweep", "8,16"], ["--n", "8"]),
            (["ropelength", "--n-sweep", "8,16"], ["--n", "8"]),
            (["ropelength", "--n-sweep", "8,16"], ["--q", "5"]),
            (["mollify", "--n-sweep", "4,8"], ["--n", "8"]),
            (["mollify", "--n-sweep", "4,8"], ["--partition", "jitter:0.1"]),
            (["anneal", "--n", "8", "--steps", "3"], ["--n-sweep", "8,16"]),
        ],
        ids=lambda v: v[0].lstrip("-"),
    )
    def test_commands_reject_settings_they_do_not_read(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"{flag[0][2:]} = {flag[1]}\n")
        code, out, err = run(capsys, [*argv, "--config", str(cfg)])
        assert code == 2 and out == ""
        assert "unknown key" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "--n", "999", "--n-sweep", "8,16"],
            ["converge", "--n-sw", "8,16"],
            ["energy", "--part", "jitter:0.1"],
            ["anneal", "--init", "start.txt"],
        ],
    )
    def test_abbreviated_flags_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            # the benchmark workloads (perfbench/workloads.py), with the seed and
            # the output path the benchmark appends
            ["converge", "--curve", "ellipse", "--params", "2,1", "--q", "3",
             "--n-sweep", "64,128,256,512,1024,2048", "--grid", "2048",
             "--partition", "jitter:0.1", "--seed", "0"],
            ["ropelength", "--curve", "torus_knot", "--params", "2,3,2,0.5",
             "--n-sweep", "64,128,256,512,1024", "--grid", "2048", "--partition", "jitter:0.1",
             "--seed", "0"],
            ["anneal", "--curve", "torus_knot", "--params", "2,3,2,0.5", "--n", "64", "--q", "4",
             "--steps", "1500", "--seed", "0", "--out", "anneal.csv"],
            ["mollify", "--curve", "torus_knot", "--params", "2,3,2,0.5", "--q", "3",
             "--n-sweep", "4,8,16,32", "--grid", "512", "--seed", "0"],
            # the README example session
            ["converge", "--curve", "ellipse", "--params", "2,1", "--q", "3",
             "--n-sweep", "16,32,64,128,256", "--out", "converge.csv"],
            ["ropelength", "--curve", "torus_knot", "--params", "2,3,2,0.5",
             "--n-sweep", "32,64,128,256", "--out", "rope.csv"],
            ["anneal", "--curve", "circle", "--n", "32", "--q", "4", "--steps", "20000",
             "--seed", "11", "--out", "trace.csv"],
        ],
        ids=["bench-converge", "bench-ropelength", "bench-anneal", "bench-mollify",
             "readme-converge", "readme-ropelength", "readme-anneal"],
    )
    def test_documented_argvs_parse(self, argv):
        settings = resolve_settings(build_parser().parse_args(argv))
        flags = dict(zip(argv[1::2], argv[2::2]))
        assert settings["seed"] == int(flags.get("--seed", 0))
        assert settings["out"] == flags.get("--out", "-")

    @pytest.mark.parametrize("command", ["converge", "ropelength"])
    @pytest.mark.parametrize(
        "sweep, partition, message",
        [("64,128", "jitter:0.5", "jitter amplitude"), ("3,128", "uniform", "n >= 4")],
    )
    def test_sweep_partitions_are_checked_before_the_reference(
        self, capsys, monkeypatch, command, sweep, partition, message
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("the reference ran")

        monkeypatch.setattr("biarcs.cli.continuous_tp_energy", unreachable)
        monkeypatch.setattr("biarcs.cli.thickness_and_ropelength", unreachable)
        argv = [command, "--curve", "ellipse", "--params", "2,1", "--n-sweep", sweep,
                "--grid", "4096", "--partition", partition]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["anneal", "--curve", "circle", "--n", "8", "--steps", "3"], "format = json\ngrid = 64\n"),
            (["anneal", "--curve", "circle", "--n", "8", "--steps", "3"], "grid = 64\n"),
            (["energy", "--curve", "circle", "--n", "8"], "steps = 10\n"),
            (["energy", "--curve", "circle", "--n", "8"], "seminorm_grid = 128\n"),
            (["converge", "--curve", "circle", "--n-sweep", "8,16"], "initial = start.txt\n"),
            (["mollify", "--curve", "circle", "--n-sweep", "4,8"], "cooling_rate = 0.9\n"),
        ],
    )
    def test_config_keys_the_command_does_not_read_exit_2(self, tmp_path, capsys, argv, lines):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(lines)
        code, out, err = run(capsys, [*argv, "--config", str(cfg)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "unknown key" in err and argv[0] in err

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["anneal", "--curve", "circle", "--n", "8", "--steps", "3"], "q = 4\nsteps = 2\n"),
            (["mollify", "--curve", "circle", "--n-sweep", "4,8", "--grid", "64"], "q = 4\nseed = 3\n"),
            (["converge", "--curve", "circle", "--grid", "64"], "n_sweep = 8,16\nformat = json\n"),
            # blank and comment lines are skipped
            (["energy", "--curve", "circle", "--n", "8"], "# wibble = 3\n\n   \nq = 4\n"),
        ],
    )
    def test_config_keys_of_the_command_are_read(self, tmp_path, capsys, argv, lines):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(lines)
        code, _, err = run(capsys, [*argv, "--config", str(cfg)])
        assert code == 0, err

    @pytest.mark.parametrize(
        "argv, compute",
        [
            (["converge", "--curve", "ellipse", "--n-sweep", "64,128"], "continuous_tp_energy"),
            (["anneal", "--curve", "circle", "--n", "8", "--steps", "3"], "anneal_discrete"),
            (["mollify", "--curve", "circle", "--n-sweep", "4,8"], "_mollify_sweep"),
        ],
    )
    def test_unwritable_out_exits_2_before_the_compute(self, tmp_path, capsys, monkeypatch, argv, compute):
        def unreachable(*args, **kwargs):
            raise AssertionError("the compute ran")

        monkeypatch.setattr(f"biarcs.cli.{compute}", unreachable)
        (tmp_path / "taken").mkdir()
        for out, message in (("none/x.csv", "No such file"), ("taken", "Is a directory")):
            code, _, err = run(capsys, [*argv, "--out", str(tmp_path / out)])
            assert code == 2
            assert err.startswith("error: ") and message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert not any((tmp_path / "taken").iterdir())

    def test_unwritable_out_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        # root writes anywhere, so the refusal is stood in by os.access
        monkeypatch.setattr("biarcs.cli.os.access", lambda path, mode: False)
        out = tmp_path / "e.csv"
        code, stdout, err = run(capsys, ["energy", "--curve", "circle", "--n", "8", "--out", str(out)])
        assert (code, stdout) == (2, "")
        assert err == f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{tmp_path}'\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["ropelength", "--curve", "circle", "--n-sweep", "16", "--grid", "64"],
            ["mollify", "--curve", "circle", "--n-sweep", "4", "--grid", "64"],
        ],
        ids=["ropelength", "mollify"],
    )
    def test_one_sweep_value_is_accepted_where_nothing_is_fitted(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert len(parse_csv(out)[1]) == 1


class TestConvergeCommand:
    def test_circle_slope(self, capsys):
        code, out, _ = run(
            capsys,
            ["converge", "--curve", "circle", "--q", "3", "--n-sweep", "8,16,32,64", "--grid", "256"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["fitted_slope"]) == pytest.approx(-1.0, abs=1e-9)
        for row in rows:
            n = float(row["n"])
            assert float(row["abs_error"]) == pytest.approx(FOUR_PI2 / n, rel=1e-9)

    def test_reference_at_a_huge_radius(self, capsys):
        # the reference 4 pi^2 R^-2 is about 4e-299, and x^4 of its grid
        # pairs, about 1e-600, underflows
        argv = ["converge", "--curve", "circle", "--params", "1e150", "--q", "4",
                "--n-sweep", "16,32", "--grid", "256"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row["reference_energy"]) == pytest.approx(FOUR_PI2 * 1e-300, rel=1e-9)
            assert float(row["fitted_slope"]) == pytest.approx(-1.0, abs=1e-9)

    def test_missing_sweep(self, capsys):
        code, _, err = run(capsys, ["converge", "--curve", "circle"])
        assert code == 2

    def test_non_increasing_sweep(self, capsys):
        code, _, err = run(capsys, ["converge", "--curve", "circle", "--n-sweep", "16,8"])
        assert code == 2
        assert "increasing" in err

    def test_build_failure_advises_larger_n(self, capsys):
        code, _, err = run(
            capsys,
            ["converge", "--curve", "torus_knot", "--n-sweep", "4,8", "--grid", "128"],
        )
        assert code == 3
        assert "larger n" in err


class TestRopelengthCommand:
    def test_circle_gap_decreases(self, capsys):
        code, out, err = run(
            capsys,
            ["ropelength", "--curve", "circle", "--n-sweep", "16,32,64", "--grid", "64"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        gaps = [float(r["gap"]) for r in rows]
        assert gaps[2] < gaps[1] < gaps[0]
        assert float(rows[0]["reference"]) == pytest.approx(2 * math.pi, abs=1e-3)

    def test_not_embedded_exits_3_before_the_sweep(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a sweep row was computed")

        monkeypatch.setattr("biarcs.cli.build_biarc_curve", unreachable)
        # torus_knot(2, 4) is the (1, 2) torus knot traversed twice
        argv = ["ropelength", "--curve", "torus_knot", "--params", "2,4,2,0.5", "--n-sweep", "16,32"]
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == "numerical failure: curve is not embedded: distinct parameters collide\n"

    def test_q_is_rejected(self, capsys):
        # the proxy forces q = n
        with pytest.raises(SystemExit) as exc:
            main(["ropelength", "--curve", "circle", "--n-sweep", "8,16", "--grid", "64", "--q", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --q 5" in capsys.readouterr().err


def child_run(args):
    """``python ARGS`` with this checkout's src first on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_cli_run_imports_only_numpy_and_the_standard_library():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import biarcs.cli\n"
        "argv = ['ropelength', '--curve', 'torus_knot', '--params', '2,3,2,0.5',"
        " '--n-sweep', '16,32', '--grid', '64']\n"
        "assert biarcs.cli.main(argv) == 0\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'biarcs'}))\n"
    )
    run = child_run(["-c", code])
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


JITTERED = ["--partition", "jitter:0.1", "--seed", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--curve", "ellipse", "--n-sweep", "16,32", "--grid", "64", *JITTERED],
        ["ropelength", "--curve", "circle", "--n-sweep", "16,32", "--grid", "64", *JITTERED],
        ["energy", "--curve", "circle", "--n", "16", "--grid", "64", *JITTERED],
        # the anneal's normal, integer and uniform draws are numpy's stream,
        # reproduced on the package's own PCG64
        ["anneal", "--curve", "circle", "--n", "12", "--steps", "20",
         "--out", "{tmp}/a.csv", *JITTERED],
        ["mollify", "--curve", "circle", "--n-sweep", "4,8", "--grid", "64", "--seed", "3"],
    ],
    ids=["converge", "ropelength", "energy", "anneal", "mollify"],
)
def test_no_command_imports_numpy_random(tmp_path, argv):
    # numpy 1.x imports numpy.random with numpy itself, numpy 2 on first use;
    # only the anneal's normals read the ziggurat tables
    eager = int(np.__version__.split(".")[0]) < 2
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = (
        "import atexit, sys\n"
        "atexit.register(lambda: print('numpy.random' in sys.modules,"
        " 'biarcs._ziggurat' in sys.modules))\n"
        "import numpy\n"
        "print('numpy.random' in sys.modules)\n"
        "import biarcs.cli\n"
        f"assert biarcs.cli.main({argv!r}) == 0\n"
    )
    child = child_run(["-c", code])
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert (lines[0], lines[-1]) == (str(eager), f"{eager} {argv[0] == 'anneal'}")


def test_cli_process_freezes_its_heap_at_exit_and_keeps_its_outputs(tmp_path, capsys):
    # atexit hooks run last in, first out: a checker registered before main
    # runs after the CLI's hook
    converge = ["converge", "--curve", "circle", "--n-sweep", "8,16", "--grid", "64"]
    code = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "import biarcs.cli\n"
        f"sys.exit(biarcs.cli.main({converge!r}))\n"
    )
    child = child_run(["-c", code])
    assert (child.returncode, child.stderr) == (0, "frozen True\n")
    assert child.stdout == run(capsys, converge)[1]

    anneal = ["anneal", "--curve", "circle", "--n", "12", "--q", "3", "--steps", "300", "--seed", "4"]
    assert run(capsys, [*anneal, "--out", str(tmp_path / "here.csv")])[0] == 0
    child = child_run(["-m", "biarcs", *anneal, "--out", str(tmp_path / "child.csv")])
    assert (child.returncode, child.stdout, child.stderr) == (0, "", "")
    for suffix in (".csv", ".junctions.txt"):
        assert (tmp_path / f"child{suffix}").read_bytes() == (tmp_path / f"here{suffix}").read_bytes()

    failing = [
        ["converge", "--curve", "circle"],
        ["converge", "--curve", "torus_knot", "--n-sweep", "4,8", "--grid", "128"],
    ]
    for argv, exit_code in zip(failing, (2, 3)):
        here = run(capsys, argv)
        child = child_run(["-m", "biarcs", *argv])
        assert here[0] == exit_code
        assert (child.returncode, child.stdout, child.stderr) == here


def test_only_main_registers_the_exit_hook(capsys, monkeypatch):
    # a fresh import of the package and its CLI registers nothing
    for name in [m for m in sys.modules if m == "biarcs" or m.startswith("biarcs.")]:
        monkeypatch.delitem(sys.modules, name)
    before = atexit._ncallbacks()
    importlib.import_module("biarcs")
    cli = importlib.import_module("biarcs.cli")
    assert atexit._ncallbacks() == before
    # its main adds one hook, once however often it runs, and freezes
    # nothing while its caller lives
    argv = ["energy", "--curve", "circle", "--n", "8", "--q", "3", "--grid", "64"]
    for _ in range(3):
        assert cli.main(argv) == 0
        assert atexit._ncallbacks() == before + 1
        assert gc.get_freeze_count() == 0


class TestMollifyCommand:
    def test_ellipse_columns_decrease(self, capsys):
        code, out, _ = run(
            capsys,
            ["mollify", "--curve", "ellipse", "--params", "2,1", "--q", "3",
             "--n-sweep", "4,8,16", "--grid", "256"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        c1 = [float(r["c1_distance"]) for r in rows]
        sn = [float(r["tangent_seminorm"]) for r in rows]
        assert c1[2] < c1[1] < c1[0]
        assert sn[2] < sn[1] < sn[0]

    def test_benchmark_argv_output_is_pinned(self, capsys):
        # the mollify_knot workload's argv; values from the untruncated
        # 2049-mode polynomials, which the kept modes reproduce to 1e-10
        code, out, _ = run(
            capsys,
            ["mollify", "--curve", "torus_knot", "--params", "2,3,2,0.5", "--q", "3",
             "--n-sweep", "4,8,16,32", "--grid", "512"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        expected = {
            "c1_distance": [0.00375879092977, 0.000944029235523, 0.000236280753057, 5.90873555506e-05],
            "tangent_seminorm": [7.74491011114e-07, 1.2327368044e-08, 1.93511762533e-10, 3.02713767654e-12],
        }
        assert [r["k"] for r in rows] == ["4", "8", "16", "32"]
        for col, values in expected.items():
            assert [float(r[col]) for r in rows] == pytest.approx(values, rel=1e-10)

    def test_sweep_that_fails_to_decrease_exits_3(self, capsys, monkeypatch):
        seminorms = iter([1.0, 2.0, 3.0])
        monkeypatch.setattr("biarcs.cli.gagliardo_seminorm", lambda *args: next(seminorms))
        code, out, err = run(capsys, ["mollify", "--curve", "circle", "--n-sweep", "4,8,16", "--grid", "64"])
        assert (code, out) == (3, "")
        assert err == "numerical failure: tangent_seminorm failed to decrease along the smoothing sweep\n"

    @pytest.mark.parametrize("radius", ["1", "256", "65536"])
    def test_reproduced_circle_passes_the_decrease_check_at_every_scale(self, capsys, radius):
        # the mollified circle is the circle to rounding, so both columns
        # sit at their noise floor; the position part's grows with the
        # radius (1.3e-8 at 65536), and an absolute slack of 1e-12 exited 3
        # from radius 256 on
        code, out, err = run(capsys, ["mollify", "--curve", "circle", "--params", radius,
                                      "--n-sweep", "4,16,32,64"])
        assert (code, err) == (0, "")
        assert [row["k"] for row in parse_csv(out)[1]] == ["4", "16", "32", "64"]

    def test_huge_circle_seminorm_is_finite_under_warnings_as_errors(self, capsys):
        # distances in cells of 1e147 made the power |x-y|^(1+s rho) overflow,
        # a RuntimeWarning, and the seminorm read 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["mollify", "--curve", "circle", "--params", "1e150",
                                          "--n-sweep", "2,4"])
        assert (code, err) == (0, "")
        semi = [float(row["tangent_seminorm"]) for row in parse_csv(out)[1]]
        assert all(0.0 < value < math.inf for value in semi)

    def test_eps_bound(self, capsys):
        # a short curve makes eps = 1/1 exceed a quarter of the length
        code, _, err = run(
            capsys,
            ["mollify", "--curve", "circle", "--params", "0.5", "--q", "3", "--n-sweep", "1,2"],
        )
        assert code == 2
        assert "quarter" in err


# unit-size shapes of each preset; the drawn argvs scale them by 2^k
UNIT_SHAPES = {
    "circle": ["1"],
    "ellipse": ["2,1", "1,0.5", "3,1"],
    "torus_knot": ["2,3,2,0.5", "2,3,2,0.8", "3,2,2,0.5"],
}


def dilated(argv, factor):
    """The argv with its preset's lengths times ``factor``: a torus knot's
    radii, every parameter of the other presets."""
    at = argv.index("--params") + 1
    params = [float(v) for v in argv[at].split(",")]
    first = 2 if argv[argv.index("--curve") + 1] == "torus_knot" else 0
    params[first:] = [factor * v for v in params[first:]]
    return [*argv[:at], ",".join(map(repr, params)), *argv[at + 1 :]]


def output_rows(text):
    """The rows of a command's CSV or JSON output, as dicts of strings or numbers."""
    return json.loads(text) if text.startswith("[") else parse_csv(text)[1]


@st.composite
def cli_argvs(draw, commands=("energy", "converge", "ropelength", "anneal", "mollify")):
    """An argv of any command with cheap sizes: a preset at scale 2^k,
    q <= 8, jitter below 0.2 and at most 40 anneal steps, so no energy
    beyond the double range and no length gate can put an inf in stdout.
    Jittered gaps lie within (1 +- 2 rho) L/n, and the gate takes
    [L/(2n), 2L/n]: jitter 0.27 already failed it on the (2, 3) knots at
    n = 16 and 32."""
    command = draw(st.sampled_from(commands))
    name = draw(st.sampled_from(sorted(UNIT_SHAPES)))
    scale = 2.0 ** draw(st.integers(-30, 30))
    unit = draw(st.sampled_from(UNIT_SHAPES[name]))
    params = [float(v) for v in unit.split(",")]
    if name == "torus_knot":
        params[2:] = [scale * v for v in params[2:]]
    else:
        params = [scale * v for v in params]
    argv = [command, "--curve", name, "--params", ",".join(map(repr, params))]
    argv += ["--seed", str(draw(st.integers(0, 2**32)))]
    if command != "ropelength":
        argv += ["--q", repr(draw(st.floats(2.1, 8.0)))]
    sweep = sorted(draw(st.lists(st.sampled_from([4, 8, 16, 32]), min_size=2, max_size=3, unique=True)))
    if command in ("energy", "anneal"):
        argv += ["--n", str(sweep[0])]
    else:
        argv += ["--n-sweep", ",".join(map(str, sweep))]
    if command == "anneal":
        argv += ["--steps", str(draw(st.integers(1, 40)))]
    else:
        argv += ["--grid", str(draw(st.sampled_from([32, 64])))]
    if command != "mollify":
        rho = draw(st.one_of(st.none(), st.floats(0.0, 0.2, exclude_max=True)))
        argv += ["--partition", "uniform" if rho is None else f"jitter:{rho!r}"]
    if command != "anneal" and draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


class TestContract:
    """Any legal argv exits 0 with finite numbers, 2 for a configuration
    error or 3 for a numerical failure, each with one line of stderr, and
    warns of nothing. An anneal's numbers are its trace and the junction
    text after it."""

    @settings(max_examples=75, deadline=None)
    @given(argv=cli_argvs())
    def test_drawn_argvs_keep_the_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3), err
        if code:
            assert (out, err.count("\n"), err[-1:]) == ("", 1, "\n")
        else:
            numbers = []
            for token in re.split(r'[\s,\[\]{}:"]+', out):
                with contextlib.suppress(ValueError):
                    numbers.append(float(token))
            assert numbers and all(map(math.isfinite, numbers)), out

    @settings(max_examples=30, deadline=None)
    @given(argv=cli_argvs(commands=("converge", "ropelength")), k=st.integers(-8, 8))
    def test_dilation_keeps_the_scale_free_columns(self, argv, k):
        # a ropelength and the slope of an error that scales as the energy,
        # d^(2 - q), do not move when the curve is dilated by d = 2^k
        runs = []
        for args in (argv, dilated(argv, 2.0**k)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(args)
            runs.append((code, output_rows(out.getvalue()) if code == 0 else []))
        (code, rows), (dilated_code, dilated_rows) = runs
        assert code == dilated_code and len(rows) == len(dilated_rows)
        for row, dilated_row in zip(rows, dilated_rows):
            for key in ("proxy", "reference", "fitted_slope"):
                if key in row:
                    assert float(dilated_row[key]) == pytest.approx(float(row[key]), rel=1e-10, abs=0)


class TestAnnealCommand:
    def test_writes_trace_and_junctions(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code, _, _ = run(
            capsys,
            ["anneal", "--curve", "circle", "--n", "12", "--q", "3",
             "--steps", "300", "--seed", "4", "--out", str(out)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,energy,temperature,accepted"
        assert len(lines) == 301
        sidecar = tmp_path / "run.junctions.txt"
        assert sidecar.exists()
        from biarcs.interpolate import junctions_from_text

        best = junctions_from_text(sidecar.read_text())
        assert best.n_segments == 12

    def test_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run(
                capsys,
                ["anneal", "--curve", "circle", "--n", "8", "--q", "3",
                 "--steps", "200", "--seed", "9", "--out", str(out)],
            )
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_restart_from_junctions(self, tmp_path, capsys):
        out = tmp_path / "first.csv"
        run(capsys, ["anneal", "--curve", "circle", "--n", "8", "--q", "3",
                     "--steps", "100", "--out", str(out)])
        code, _, _ = run(
            capsys,
            ["anneal", "--initial", str(tmp_path / "first.junctions.txt"),
             "--q", "3", "--steps", "50", "--out", str(tmp_path / "second.csv")],
        )
        assert code == 0

    def test_improper_initial_pair_exits_3(self, tmp_path, capsys):
        # eight junctions on the unit circle, the tangent of junction 4
        # reversed: the pair from junction 3 to 4 is the first improper one
        angles = 2 * math.pi * np.arange(8) / 8
        rows = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(8),
                                -np.sin(angles), np.cos(angles), np.zeros(8), np.full(8, 0.8)])
        rows[4, 3:6] *= -1.0
        start = tmp_path / "start.txt"
        start.write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows.tolist()))
        code, out, err = run(capsys, ["anneal", "--initial", str(start), "--q", "3", "--steps", "5"])
        assert code == 3 and out == ""
        assert "segment 3: pair is not proper" in err

    def test_tiny_radius_trace_is_the_unit_trace_scaled(self, capsys):
        # energies and temperatures 1e300 times those at R = 1, where the
        # raw pair terms x^4 overflow
        traces = []
        for radius in ("1", "1e-150"):
            argv = ["anneal", "--curve", "circle", "--params", radius, "--n", "16",
                    "--q", "4", "--steps", "20"]
            code, out, err = run(capsys, argv)
            assert code == 0, err
            lines = out.splitlines()[1:21]
            traces.append(np.array([[float(v) for v in line.split(",")] for line in lines]))
        unit, tiny = traces
        assert np.all(np.isfinite(tiny))
        assert np.array_equal(tiny[:, 3], unit[:, 3])
        np.testing.assert_allclose(tiny[:, 1:3], 1e300 * unit[:, 1:3], rtol=1e-9)

    def test_small_scale(self, capsys):
        # junctions about 4e-4 apart: the distance floor is relative to L / n
        argv = ["anneal", "--curve", "ellipse", "--params", "2e-3,1e-3", "--n", "16",
                "--steps", "200"]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "step,energy,temperature,accepted"
        assert len(lines) == 1 + 200 + 16  # header, trace rows, junction lines


class TestConfigFile:
    def test_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("curve = circle\nn = 8\nq = 3\nseed = 2\n")
        code, out, _ = run(capsys, ["energy", "--config", str(cfg), "--n", "16"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["n"] == "16"  # flag wins over file
        assert rows[0]["seed"] == "2"  # file value survives

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("curve = circle\nwibble = 3\n")
        code, _, err = run(capsys, ["energy", "--config", str(cfg)])
        assert code == 2
        assert "wibble" in err


class TestOutputFormats:
    def test_csv_round_trip(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        run(capsys, ["converge", "--curve", "circle", "--q", "3",
                     "--n-sweep", "8,16,32", "--grid", "128", "--out", str(out)])
        text = out.read_text()
        header, rows = parse_csv(text)
        lines = [",".join(header)]
        for row in rows:
            rebuilt = []
            for col in header:
                raw = row[col]
                try:
                    as_int = int(raw)
                    rebuilt.append(str(as_int))
                except ValueError:
                    rebuilt.append(f"{float(raw):.12g}")
            lines.append(",".join(rebuilt))
        assert "\n".join(lines) + "\n" == text

    def test_json_round_trip(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        run(capsys, ["converge", "--curve", "circle", "--q", "3",
                     "--n-sweep", "8,16,32", "--grid", "128",
                     "--format", "json", "--out", str(out)])
        text = out.read_text()
        data = json.loads(text)
        assert [row["n"] for row in data] == [8, 16, 32]
        assert json.dumps(data, indent=2) + "\n" == text

    def test_same_config_same_bytes(self, tmp_path, capsys):
        texts = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            run(capsys, ["ropelength", "--curve", "circle", "--n-sweep", "8,16",
                         "--grid", "64", "--seed", "3", "--out", str(out)])
            texts.append(out.read_text())
        assert texts[0] == texts[1]


class TestReadme:
    def test_library_tour_runs(self):
        """README's library-tour code block runs as written."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(tour, namespace)
        assert namespace["delta"] == 0.5
        assert namespace["e_disc"] < namespace["e_cont"]
        assert namespace["chain_delta"] == pytest.approx(0.5, rel=1e-3)

    def test_flag_table_matches_the_settings(self):
        """README's table of each command's own flags, `--flag DEFAULT` or
        `--flag PLACEHOLDER` where the default is None, names exactly the
        command's settings other than the common ones, with their defaults."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = {}
        for line in readme.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 2 and cells[0].strip("`") in SETTINGS:
                flags = re.findall(r"`--([a-z-]+) ([^`]+)`", cells[1])
                rows[cells[0].strip("`")] = {flag.replace("-", "_"): v for flag, v in flags}
        assert rows.keys() == SETTINGS.keys()
        for command, table in rows.items():
            own = {k: v for k, v in SETTINGS[command].items() if k not in COMMON}
            assert table.keys() == own.keys(), command
            for key, setting in own.items():
                if setting.default is not None:
                    assert table[key] == str(setting.default), (command, key)


def ledger_rows():
    """The rows of docs/claims.md: (claim, command, quoted values, guard)."""
    root = Path(__file__).resolve().parents[1]
    rows = []
    for line in (root / "docs" / "claims.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        command = re.fullmatch(r"`biarcs ([^`]+)`", cells[1]) if len(cells) == 5 else None
        if command:
            quoted = re.findall(r"`(\w+)\[([^\]]+)\] = ([-+.e0-9]+)`", cells[2])
            rows.append((cells[0], command.group(1), quoted, cells[3]))
    return rows


class TestClaimsLedger:
    def test_one_row_per_claim(self):
        rows = ledger_rows()
        assert len(rows) == 4
        assert all(quoted for _, _, quoted, _ in rows)

    @pytest.mark.parametrize("row", ledger_rows(), ids=lambda row: row[1].split()[0])
    def test_quoted_digits_are_printed(self, capsys, row):
        """Each row's command prints its quoted values to the quoted digits,
        and each test named as its guard exists."""
        _, command, quoted, guard = row
        code, out, _ = run(capsys, command.split())
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        # an anneal's junction lines follow its trace and hold no commas
        table = {fields[0]: dict(zip(header, fields))
                 for fields in (line.split(",") for line in lines[1:]) if len(fields) == len(header)}
        for column, key, value in quoted:
            digits = len(Decimal(value).as_tuple().digits)
            printed = float(table[key][column])
            assert Decimal(f"{printed:.{digits}g}") == Decimal(value), (column, key, printed)
        root = Path(__file__).resolve().parents[1]
        for path, name in re.findall(r"`(tests/[\w/]+\.py)::(\w+)`", guard):
            assert re.search(rf"^\s*(def|class) {name}\b", (root / path).read_text(), re.M), name

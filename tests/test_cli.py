import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biarcs.cli import main

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

    def test_unknown_curve_is_config_error(self, capsys):
        code, _, err = run(capsys, ["energy", "--curve", "nope"])
        assert code == 2
        assert "unknown curve" in err

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
            ("anneal", "cooling_rate = 2", "cooling rate"),
            ("anneal", "initial_temperature = 0", "initial temperature"),
            ("anneal", "initial_temperature = -1", "initial temperature"),
            ("mollify", "seminorm_grid = 32", "seminorm_grid must be at least 64"),
        ],
    )
    def test_bad_config_values_exit_2(self, tmp_path, capsys, command, line, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run(capsys, [command, "--config", str(cfg), "--n-sweep", "8,16"])
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
            (["anneal", "--curve", "circle", "--n", "8", "--steps", "3"], "sigma_tangent = 0.1\nsteps = 2\n"),
            (["mollify", "--curve", "circle", "--n-sweep", "4,8", "--grid", "64"], "seminorm_grid = 64\nseed = 3\n"),
            (["converge", "--curve", "circle", "--grid", "64"], "n_sweep = 8,16\nformat = json\n"),
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
            (["mollify", "--curve", "circle", "--n-sweep", "4,8"], "mollify"),
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

    def test_q_warning(self, capsys):
        code, _, err = run(
            capsys,
            ["ropelength", "--curve", "circle", "--n-sweep", "8,16", "--grid", "64", "--q", "5"],
        )
        assert code == 0
        assert "ignored" in err


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
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


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

    def test_eps_bound(self, capsys):
        # a short curve makes eps = 1/1 exceed a quarter of the length
        code, _, err = run(
            capsys,
            ["mollify", "--curve", "circle", "--params", "0.5", "--q", "3", "--n-sweep", "1,2"],
        )
        assert code == 2
        assert "quarter" in err


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

"""Batch experiment runner.

Subcommands: energy, converge, ropelength, anneal, mollify. Settings come
from an optional flat key=value config file overridden one-for-one by
command-line flags; results are emitted as CSV or JSON with 12 significant
digits so that files round-trip byte-identically.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np

from .curve import (
    arclength_reparametrize,
    gagliardo_seminorm,
    make_partition,
    mollify,
    preset_curve,
)
from .energy import (
    continuous_tp_energy,
    discrete_tp_energy,
    ropelength_proxy,
    thickness_and_ropelength,
)
from .interpolate import (
    BiarcCurveBuildError,
    build_biarc_curve,
    junctions_from_text,
    junctions_to_text,
)
from .optimize import AnnealConfig, anneal_discrete, trace_to_csv


class ConfigError(Exception):
    pass


GRID_DEFAULTS = {"energy": 512, "converge": 1024, "ropelength": 64, "mollify": 512}
# annealing settings whose defaults are those of AnnealConfig
ANNEAL_KEYS = (
    "steps",
    "initial_temperature",
    "cooling_rate",
    "sigma_position",
    "sigma_tangent",
    "min_pair_distance",
)
# config file keys a command reads besides those of its flags
FILE_ONLY_KEYS = {"mollify": ("seminorm_grid",), "anneal": ANNEAL_KEYS}


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def load_config_file(path: str, command: str, keys) -> dict:
    """The settings of a flat key = value file; a key outside ``keys``,
    those the command reads, is an error."""
    settings = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        settings[key] = value
    return settings


def parse_int_list(text: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc
    if not values:
        raise ConfigError("empty sweep")
    if min(values) < 1:
        raise ConfigError("sweep values must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("sweep must be strictly increasing")
    return values


def parse_float_list(text: str):
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biarcs",
        description="Biarc interpolation and tangent-point energy experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("energy", "discrete and continuous tangent-point energy of one configuration"),
        ("converge", "energy error sweep against the continuous reference"),
        ("ropelength", "ropelength proxy sweep against the thickness reference"),
        ("anneal", "simulated annealing on a junction configuration"),
        ("mollify", "smoothing sweep: C1 distance and tangent seminorm"),
    ]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="flat key = value settings file")
        cmd.add_argument("--curve", help="preset name: circle, ellipse, torus_knot")
        cmd.add_argument("--params", help="comma-separated preset parameters")
        cmd.add_argument("--q", type=float, help="energy power")
        cmd.add_argument("--n", type=int, help="number of biarcs")
        cmd.add_argument("--n-sweep", dest="n_sweep", help="comma-separated sweep values")
        cmd.add_argument("--partition", help="uniform or jitter:RHO")
        cmd.add_argument("--seed", type=int, help="random seed")
        cmd.add_argument("--out", help="output path ('-' for stdout)")
        if name == "anneal":
            cmd.add_argument("--steps", type=int, help="annealing steps")
            cmd.add_argument("--initial", help="junction text file to start from")
        else:
            cmd.add_argument("--grid", type=int, help="quadrature / search grid")
            cmd.add_argument("--format", choices=["csv", "json"], help="output format")
    return parser


def resolve_settings(args: argparse.Namespace) -> dict:
    settings: dict = {}
    explicit = set()
    # the command's flags, as its subparser registered them
    flags = set(vars(args)) - {"command", "config"}
    if args.config:
        keys = flags.union(FILE_ONLY_KEYS.get(args.command, ()))
        file_settings = load_config_file(args.config, args.command, keys)
        settings.update(file_settings)
        explicit.update(file_settings)
    for key in flags:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
            explicit.add(key)

    def convert(key, kind, default=None):
        if key not in settings:
            return default
        try:
            return kind(settings[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: expected {kind.__name__}, got {settings[key]!r}") from exc

    out = {
        "curve": settings.get("curve", "circle"),
        "params": None,
        "q": convert("q", float, 3.0),
        "n": convert("n", int, 16),
        "n_sweep": None,
        "partition": settings.get("partition", "uniform"),
        "seed": convert("seed", int, 0),
        "grid": convert("grid", int),
        "seminorm_grid": convert("seminorm_grid", int, 256),
        "out": settings.get("out", "-"),
        "format": settings.get("format", "csv"),
        "steps": convert("steps", int),
        "cooling_rate": convert("cooling_rate", float),
        "initial_temperature": convert("initial_temperature", float),
        "sigma_position": convert("sigma_position", float),
        "sigma_tangent": convert("sigma_tangent", float),
        "min_pair_distance": convert("min_pair_distance", float),
        "initial": settings.get("initial"),
        "explicit": explicit,
    }
    if out["format"] not in ("csv", "json"):
        raise ConfigError(f"unknown format {out['format']!r}")
    params = settings.get("params")
    if params is None:
        defaults = {"circle": [1.0], "ellipse": [2.0, 1.0], "torus_knot": [2, 3, 2.0, 0.5]}
        if out["curve"] not in defaults:
            raise ConfigError(f"unknown curve preset {out['curve']!r}")
        out["params"] = defaults[out["curve"]]
    else:
        out["params"] = parse_float_list(params) if isinstance(params, str) else params
    if settings.get("n_sweep") is not None:
        sweep = settings["n_sweep"]
        out["n_sweep"] = parse_int_list(sweep) if isinstance(sweep, str) else sweep
    for key in ("grid", "seminorm_grid"):
        g = out[key]
        if g is not None and (g < 2 or g & (g - 1)):
            raise ConfigError(f"{key} must be a power of two, got {g}")
    if out["seminorm_grid"] < 64:
        raise ConfigError(f"seminorm_grid must be at least 64, got {out['seminorm_grid']}")
    mode = out["partition"]
    if mode != "uniform" and not mode.startswith("jitter:"):
        raise ConfigError(f"unknown partition mode {mode!r}")
    return out


def resolved_curve(settings: dict):
    try:
        raw = preset_curve(settings["curve"], settings["params"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return arclength_reparametrize(raw)


def _partition(curve, n: int, settings: dict):
    """The partition of the curve into n cells that the settings ask for;
    its invalid sizes and modes are configuration errors."""
    try:
        return make_partition(curve.length, n, settings["partition"], settings["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def check_output(settings: dict) -> None:
    """Raise the OSError that writing the output would raise, for a missing
    or unwritable directory or an output path that is a directory, before
    any compute is spent. Nothing is created; an anneal's sidecar goes into
    the same directory."""
    if settings["out"] == "-":
        return
    out = Path(settings["out"])
    directory = out.parent
    if not directory.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(directory))
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
    if not os.access(directory, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(directory))


def emit(rows: list[dict], columns: list[str], settings: dict) -> None:
    if settings["format"] == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        payload = []
        for row in rows:
            obj = {}
            for c in columns:
                v = row[c]
                obj[c] = float(fmt(v)) if isinstance(v, float) else v
            payload.append(obj)
        text = json.dumps(payload, indent=2) + "\n"
    if settings["out"] == "-":
        sys.stdout.write(text)
    else:
        Path(settings["out"]).write_text(text)


def cmd_energy(settings: dict) -> int:
    curve = resolved_curve(settings)
    n = settings["n"]
    grid = settings["grid"] or GRID_DEFAULTS["energy"]
    part = _partition(curve, n, settings)
    beta = build_biarc_curve(curve, part)
    meta = {"q": settings["q"], "grid": grid, "curve": settings["curve"], "seed": settings["seed"]}
    rows = [
        {
            "kind": "discrete",
            "n": n,
            "value": discrete_tp_energy(beta, settings["q"], gated=True, L=curve.length),
            **meta,
        },
        {
            "kind": "continuous",
            "n": 0,
            "value": continuous_tp_energy(curve, settings["q"], grid),
            **meta,
        },
    ]
    emit(rows, ["kind", "q", "n", "value", "grid", "curve", "seed"], settings)
    return 0


def cmd_converge(settings: dict) -> int:
    if settings["n_sweep"] is None:
        raise ConfigError("converge needs an n-sweep")
    curve = resolved_curve(settings)
    grid = settings["grid"] or GRID_DEFAULTS["converge"]
    q = settings["q"]
    reference = continuous_tp_energy(curve, q, grid)
    rows = []
    for i, n in enumerate(settings["n_sweep"]):
        part = _partition(curve, n, settings)
        try:
            beta = build_biarc_curve(curve, part)
        except BiarcCurveBuildError as exc:
            if i == 0:
                raise RuntimeError(
                    f"interpolation failed at the smallest sweep value n={n}: {exc}; "
                    "start the sweep at a larger n"
                ) from exc
            raise
        energy = discrete_tp_energy(beta, q, gated=False, L=curve.length)
        rows.append(
            {
                "n": n,
                "discrete_energy": energy,
                "reference_energy": reference,
                "abs_error": abs(reference - energy),
            }
        )
    ns = np.array([row["n"] for row in rows], dtype=float)
    errs = np.array([row["abs_error"] for row in rows])
    slope = float(np.polyfit(np.log(ns), np.log(np.maximum(errs, 1e-300)), 1)[0])
    for row in rows:
        row["fitted_slope"] = slope
    emit(rows, ["n", "discrete_energy", "reference_energy", "abs_error", "fitted_slope"], settings)
    return 0


def cmd_ropelength(settings: dict) -> int:
    if settings["n_sweep"] is None:
        raise ConfigError("ropelength needs an n-sweep")
    if "q" in settings["explicit"]:
        print("warning: the ropelength proxy forces q = n; --q is ignored", file=sys.stderr)
    curve = resolved_curve(settings)
    grid = settings["grid"] or GRID_DEFAULTS["ropelength"]
    _, reference = thickness_and_ropelength(curve, grid)
    rows = []
    for n in settings["n_sweep"]:
        part = _partition(curve, n, settings)
        beta = build_biarc_curve(curve, part)
        proxy = ropelength_proxy(beta, curve.length)
        rows.append({"n": n, "proxy": proxy, "reference": reference, "gap": abs(proxy - reference)})
    emit(rows, ["n", "proxy", "reference", "gap"], settings)
    return 0


def cmd_mollify(settings: dict) -> int:
    sweep = settings["n_sweep"]
    if sweep is None:
        raise ConfigError("mollify needs an n-sweep of scale denominators k (eps = 1/k)")
    curve = resolved_curve(settings)
    L = curve.length
    q = settings["q"]
    grid = settings["grid"] or GRID_DEFAULTS["mollify"]
    for k in sweep:
        if 1.0 / k >= L / 4.0:
            raise ConfigError(f"eps = 1/{k} is not below a quarter of the length {L:.6g}")
    s_exp = 1.0 - 1.0 / q
    samples = np.linspace(0.0, L, grid, endpoint=False)
    base_pos = curve.position(samples)
    base_tan = curve.derivative(samples)
    rows = []
    for k in sweep:
        eps = 1.0 / k
        smooth = mollify(curve, eps)
        dpos = np.linalg.norm(smooth.position(samples) - base_pos, axis=-1).max()
        dtan = np.linalg.norm(smooth.derivative(samples) - base_tan, axis=-1).max()

        def tangent_difference(x, smooth=smooth):
            return smooth.derivative(x) - curve.derivative(x)

        semi = gagliardo_seminorm(
            tangent_difference, s_exp, q, settings["seminorm_grid"], L
        )
        rows.append(
            {"k": k, "eps": eps, "c1_distance": float(dpos + dtan), "tangent_seminorm": semi}
        )
    for col in ("c1_distance", "tangent_seminorm"):
        tail = [row[col] for row in rows[1:]]
        # absolute slack keeps noise-floor values (exactly reproduced
        # curves) from tripping the check
        if any(b > a * (1 + 1e-9) + 1e-12 for a, b in zip(tail, tail[1:])):
            raise RuntimeError(f"{col} failed to decrease along the smoothing sweep")
    emit(rows, ["k", "eps", "c1_distance", "tangent_seminorm"], settings)
    return 0


def cmd_anneal(settings: dict) -> int:
    curve = resolved_curve(settings)
    n = settings["n"]
    if settings["initial"]:
        try:
            initial = junctions_from_text(Path(settings["initial"]).read_text())
        except BiarcCurveBuildError:
            raise
        except ValueError as exc:  # a malformed file, not a failed chain build
            raise ConfigError(f"{settings['initial']}: {exc}") from exc
        n = initial.n_segments
        L = initial.total_length
    else:
        part = _partition(curve, n, settings)
        initial = build_biarc_curve(curve, part)
        L = curve.length
    tuning = {key: settings[key] for key in ANNEAL_KEYS if settings[key] is not None}
    try:
        cfg = AnnealConfig(q=settings["q"], n=n, L=L, seed=settings["seed"], **tuning)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    best, trace = anneal_discrete(initial, cfg)
    text = trace_to_csv(trace)
    if settings["out"] == "-":
        sys.stdout.write(text)
        sys.stdout.write(junctions_to_text(best))
    else:
        out = Path(settings["out"])
        out.write_text(text)
        sidecar = out.with_suffix(".junctions.txt")
        sidecar.write_text(junctions_to_text(best))
    return 0


COMMANDS = {
    "energy": cmd_energy,
    "converge": cmd_converge,
    "ropelength": cmd_ropelength,
    "anneal": cmd_anneal,
    "mollify": cmd_mollify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve_settings(args)
        check_output(settings)
        return COMMANDS[args.command](settings)
    except (ConfigError, OSError) as exc:
        # every OSError comes from a file named in the settings
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

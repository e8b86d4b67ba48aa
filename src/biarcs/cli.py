"""Batch experiment runner.

Subcommands: energy, converge, ropelength, anneal, mollify. Settings come
from an optional flat key=value config file overridden one-for-one by
command-line flags; results are emitted as CSV or JSON with 12 significant
digits so that files round-trip byte-identically.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import functools
import gc
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .curve import (
    _PRESETS,
    _mollify_sweep,
    arclength_reparametrize,
    gagliardo_seminorm,
    make_partition,
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


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def load_config_file(path: str, command: str, keys) -> dict:
    """The settings of a flat key = value file; a key outside ``keys``,
    those of the command's flags, is an error."""
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


class Setting(NamedTuple):
    """How a command reads one setting: ``kind`` converts the text of its
    flag or config key, ``default`` stands when neither gives it, and
    ``help`` is the help of its flag."""

    kind: Callable
    default: object
    help: str


# settings every command reads; mollify draws nothing at random but takes a
# seed, so that one argv tail seeds any command
COMMON = {
    "curve": Setting(str, "circle", "preset name: circle, ellipse, torus_knot"),
    "params": Setting(parse_float_list, None, "comma-separated preset parameters"),
    "seed": Setting(int, 0, "random seed, a non-negative integer"),
    "out": Setting(str, "-", "output path ('-' for stdout)"),
}
Q = Setting(float, 3.0, "energy power")
N = Setting(int, 16, "number of biarcs")
N_SWEEP = Setting(parse_int_list, None, "comma-separated sweep values of n")
PARTITION = Setting(str, "uniform", "uniform or jitter:RHO")
FORMAT = Setting(str, "csv", "output format: csv or json")
# The settings of each command, each read from its flag --key-name, else from
# the config key key_name, else from its default.
SETTINGS = {
    "energy": {
        **COMMON, "q": Q, "n": N, "partition": PARTITION, "format": FORMAT,
        "grid": Setting(int, 512, "continuous quadrature grid"),
    },
    "converge": {
        **COMMON, "q": Q, "n_sweep": N_SWEEP, "partition": PARTITION, "format": FORMAT,
        "grid": Setting(int, 1024, "reference quadrature grid"),
    },
    "ropelength": {
        **COMMON, "n_sweep": N_SWEEP, "partition": PARTITION, "format": FORMAT,
        "grid": Setting(int, 64, "thickness search grid"),
    },
    "anneal": {
        **COMMON, "q": Q, "n": N, "partition": PARTITION,
        "steps": Setting(int, AnnealConfig.steps, "annealing steps"),
        "initial": Setting(str, None, "junction text file to start from"),
    },
    "mollify": {
        **COMMON, "q": Q, "format": FORMAT,
        "n_sweep": Setting(parse_int_list, None, "comma-separated k of the scales eps = 1/k"),
        "grid": Setting(int, 512, "sample grid of the C1 distance"),
    },
}
# grid of the tangent seminorm of the mollify command
SEMINORM_GRID = 256


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biarcs",
        description="Biarc interpolation and tangent-point energy experiments",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in COMMANDS.items():
        cmd = sub.add_parser(name, help=run.__doc__, allow_abbrev=False)
        cmd.add_argument("--config", help="flat key = value settings file")
        for key, setting in SETTINGS[name].items():
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, help=setting.help)
    return parser


def resolve_settings(args: argparse.Namespace) -> dict:
    """Every setting of the command, from its flag, else the config file,
    else its default."""
    table = SETTINGS[args.command]
    given = load_config_file(args.config, args.command, table) if args.config else {}
    given.update((key, getattr(args, key)) for key in table if getattr(args, key, None) is not None)
    settings = {key: setting.default for key, setting in table.items()}
    for key, text in given.items():
        kind = table[key].kind
        try:
            settings[key] = kind(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected {kind.__name__}, got {text!r}") from exc
    if settings.get("format", "csv") not in ("csv", "json"):
        raise ConfigError(f"unknown format {settings['format']!r}")
    g = settings.get("grid", 2)
    if g < 2 or g & (g - 1):
        raise ConfigError(f"grid must be at least 2 and a power of two, got {g}")
    # q is finite and past the power each command needs: 2 for the continuous
    # energy, 2 included for the anneal, 1 for mollify's smoothness 1 - 1/q
    low, closed = {"anneal": (2.0, True), "mollify": (1.0, False)}.get(args.command, (2.0, False))
    q = settings.get("q", 3.0)
    if not (np.isfinite(q) and (low <= q if closed else low < q)):
        raise ConfigError(f"q must be finite and {'at least' if closed else 'above'} {low:g}, got {q}")
    if settings["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {settings['seed']}")
    if "n_sweep" in settings and settings["n_sweep"] is None:
        raise ConfigError(f"{args.command} needs an n-sweep")
    return settings


def resolved_curve(settings: dict):
    name, params = settings["curve"], settings["params"]
    try:
        raw = preset_curve(name, list(_PRESETS.get(name, {}).values()) if params is None else params)
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
    write_output(settings, text)


def write_output(settings: dict, text: str, sidecar: str = "") -> None:
    """Write text to the output path, and a sidecar text (an anneal's
    junctions) next to it with the suffix .junctions.txt; to stdout, the
    two follow each other."""
    if settings["out"] == "-":
        sys.stdout.write(text + sidecar)
        return
    out = Path(settings["out"])
    out.write_text(text)
    if sidecar:
        out.with_suffix(".junctions.txt").write_text(sidecar)


def cmd_energy(settings: dict) -> int:
    """discrete and continuous tangent-point energy of one configuration"""
    curve = resolved_curve(settings)
    n = settings["n"]
    grid = settings["grid"]
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
    """energy error sweep against the continuous reference"""
    if len(settings["n_sweep"]) < 2:
        raise ConfigError("converge fits a slope and needs at least two sweep values")
    curve = resolved_curve(settings)
    parts = [_partition(curve, n, settings) for n in settings["n_sweep"]]
    q = settings["q"]
    reference = continuous_tp_energy(curve, q, settings["grid"])
    rows = []
    for n, part in zip(settings["n_sweep"], parts):
        beta = build_biarc_curve(curve, part)
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
    """ropelength proxy sweep against the thickness reference"""
    curve = resolved_curve(settings)
    parts = [_partition(curve, n, settings) for n in settings["n_sweep"]]
    _, reference = thickness_and_ropelength(curve, settings["grid"])
    rows = []
    for n, part in zip(settings["n_sweep"], parts):
        beta = build_biarc_curve(curve, part)
        proxy = ropelength_proxy(beta, curve.length)
        rows.append({"n": n, "proxy": proxy, "reference": reference, "gap": abs(proxy - reference)})
    emit(rows, ["n", "proxy", "reference", "gap"], settings)
    return 0


def cmd_mollify(settings: dict) -> int:
    """smoothing sweep: C1 distance and tangent seminorm"""
    sweep = settings["n_sweep"]
    curve = resolved_curve(settings)
    L = curve.length
    q = settings["q"]
    grid = settings["grid"]
    for k in sweep:
        if 1.0 / k >= L / 4.0:
            raise ConfigError(f"eps = 1/{k} is not below a quarter of the length {L:.6g}")
    s_exp = 1.0 - 1.0 / q
    samples = np.linspace(0.0, L, grid, endpoint=False)
    base_pos = curve.position(samples)
    base_tan = curve.derivative(samples)
    scales = [1.0 / k for k in sweep]
    rows = []
    for k, eps, smooth in zip(sweep, scales, _mollify_sweep(curve, scales)):
        dpos = np.linalg.norm(smooth.position(samples) - base_pos, axis=-1).max()
        dtan = np.linalg.norm(smooth.derivative(samples) - base_tan, axis=-1).max()

        def tangent_difference(x, smooth=smooth):
            return smooth.derivative(x) - curve.derivative(x)

        semi = gagliardo_seminorm(tangent_difference, s_exp, q, SEMINORM_GRID, L)
        rows.append(
            {"k": k, "eps": eps, "c1_distance": float(dpos + dtan), "tangent_seminorm": semi}
        )
    # an absolute slack keeps noise-floor values (exactly reproduced curves)
    # from tripping the check. It dilates as each column does, so the
    # verdict holds at every scale: the position part of c1_distance grows
    # with L, its tangent part not at all, and the seminorm goes as
    # L^(1 - s q); beyond the float range the slack is inf or 0
    with np.errstate(over="ignore", under="ignore"):
        slacks = {
            "c1_distance": 1e-12 * (1.0 + L),
            "tangent_seminorm": 1e-12 * np.float64(L) ** (1.0 - s_exp * q),
        }
    for col, slack in slacks.items():
        tail = [row[col] for row in rows[1:]]
        if any(b > a * (1 + 1e-9) + slack for a, b in zip(tail, tail[1:])):
            raise RuntimeError(f"{col} failed to decrease along the smoothing sweep")
    emit(rows, ["k", "eps", "c1_distance", "tangent_seminorm"], settings)
    return 0


def cmd_anneal(settings: dict) -> int:
    """simulated annealing on a junction configuration"""
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
    try:
        cfg = AnnealConfig(
            q=settings["q"], n=n, L=L, steps=settings["steps"], seed=settings["seed"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    best, trace = anneal_discrete(initial, cfg)
    write_output(settings, trace_to_csv(trace), junctions_to_text(best))
    return 0


COMMANDS = {
    "energy": cmd_energy,
    "converge": cmd_converge,
    "ropelength": cmd_ropelength,
    "anneal": cmd_anneal,
    "mollify": cmd_mollify,
}


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Register `gc.freeze` to run at exit, once. Exit hooks run after
    threads are joined and before the interpreter's teardown collections,
    which then skip every object alive, the tracked objects of numpy and
    biarcs whose memory the OS takes back anyway. At exit, not now, so that
    a caller that lives on (a test runner) keeps collecting its garbage."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
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

"""The demos that use the single-pair views (`Biarc.first/second`,
`BiarcCurve.biarcs`, `biarc_parameter`), the energy-rate and ropelength
demos (the latter runs the thickness refinement), the mollification demo
and the annealing demo (8000 moves, each rebuilding two biarcs on Python
floats) run to completion in-process."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, last_heading",
    [
        ("01_biarcs.py", "--- skew ---"),
        ("02_interpolation.py", "jittered partitions"),
        ("03_energy_rate.py", "--- ellipse(2.0, 1.0): TP_3"),
        ("04_ropelength.py", "--- torus_knot(2, 3, 2.0, 0.5) ---"),
        ("05_mollification.py", "circle at eps=1/8"),
        ("06_annealing.py", "best-so-far along the accepted moves:"),
    ],
)
def test_demo_runs(script, last_heading, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert last_heading in capsys.readouterr().out

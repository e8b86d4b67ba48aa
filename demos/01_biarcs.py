"""Biarc basics: build the balanced biarc of a point-tangent pair, read its
matching point, and inspect the two arcs that interpolate the data."""

import numpy as np

from biarcs import (
    PointTangent,
    biarc_parameter,
    build_balanced_biarc,
    eval_biarc,
)

pairs = {
    "straight": (PointTangent([0, 0, 0], [1, 0, 0]), PointTangent([1, 0, 0], [1, 0, 0])),
    "quarter circle": (
        PointTangent([1, 0, 0], [0, 1, 0]),
        PointTangent([0, 1, 0], [-1, 0, 0]),
    ),
    "skew": (
        PointTangent([0, 0, 0], [1, 0, 0]),
        PointTangent([1.0, 0.3, 0.2], np.array([1.0, 0.2, -0.1]) / np.linalg.norm([1.0, 0.2, -0.1])),
    ),
}

for name, (a, b) in pairs.items():
    print(f"--- {name} ---")
    biarc = build_balanced_biarc(a, b)
    m = biarc.matching_point
    print("matching point:", np.round(m, 6))
    print(
        "balance |m-q0| vs |q1-m|:",
        round(np.linalg.norm(m - a.point), 9),
        round(np.linalg.norm(b.point - m), 9),
    )
    print(
        "arc lengths:",
        round(biarc.first.length, 6),
        "+",
        round(biarc.second.length, 6),
        "=",
        round(biarc.total_length, 6),
    )
    print("matching-point parameter:", round(biarc_parameter(biarc), 6))
    # sample along the biarc; tangents stay unit and positions interpolate
    for frac in (0.0, 0.5, 1.0):
        pos, tan = eval_biarc(biarc, frac * biarc.total_length)
        print(f"  s={frac:.1f}L  pos={np.round(pos, 4)}  |tan|={np.linalg.norm(tan):.6f}")
    print()

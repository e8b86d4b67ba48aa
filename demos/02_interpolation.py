"""Interpolating closed curves with balanced biarc chains.

Doubling the number of biarcs drives three errors down together: how far
segment lengths deviate from the partition gaps, how far the chain length
deviates from the curve length, and the C1 distance between chain and
curve.
"""

import numpy as np

from biarcs import (
    arclength_reparametrize,
    biarc_parameter,
    build_biarc_curve,
    c1_distance,
    check_Bn,
    make_partition,
    preset_curve,
)

ellipse = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
print(f"ellipse(2,1): length {ellipse.length:.6f}")
print(f"{'n':>4} {'max|lam/gap-1|':>15} {'|len ratio - 1|':>16} {'C1 distance':>12} {'gate':>5}")
for n in (16, 32, 64, 128, 256):
    part = make_partition(ellipse.length, n)
    beta = build_biarc_curve(ellipse, part)
    ratio = np.abs(beta.segment_lengths / part.gaps - 1.0).max()
    lenerr = abs(beta.total_length / ellipse.length - 1.0)
    c1 = c1_distance(ellipse, beta, 2048)
    gate = check_Bn(beta, ellipse.length)
    print(f"{n:>4} {ratio:>15.3e} {lenerr:>16.3e} {c1:>12.3e} {str(gate):>5}")

print()
print("matching-point parameters concentrate near 1/2 as the mesh refines:")
for n in (32, 256):
    beta = build_biarc_curve(ellipse, make_partition(ellipse.length, n))
    lams = np.array([biarc_parameter(b) for b in beta.biarcs])
    print(f"  n={n:>3}: min {lams.min():.4f}  max {lams.max():.4f}")

print()
print("jittered partitions keep the gate and the trends:")
for seed in (1, 2):
    part = make_partition(ellipse.length, 64, "jitter:0.3", seed=seed)
    beta = build_biarc_curve(ellipse, part)
    print(
        f"  seed {seed}: gaps in [{part.min_gap:.4f}, {part.max_gap:.4f}],"
        f" C1 distance {c1_distance(ellipse, beta, 2048):.3e}"
    )

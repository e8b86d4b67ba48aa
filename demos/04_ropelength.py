"""Ropelength through energies: the n-th root of the n-th power energy.

The quantity L^((n-2)/n) (E_n^n)^(1/n) needs no minimization, only a
double sum, yet it approaches length/thickness. Powers like x^256 overflow
long before n gets interesting, so the pair sum is taken relative to its
largest quotient, (x / x_max)^n <= 1, and the root is taken of its log.
Beside each proxy stands the chain's own ropelength, L/Delta of the biarc
chain measured as a curve through `beta.spec`.
"""

import math

from biarcs import (
    arclength_reparametrize,
    build_biarc_curve,
    make_partition,
    preset_curve,
    ropelength_proxy,
    thickness_and_ropelength,
)

for name, params, sweep in (
    ("circle", [1.0], [16, 32, 64, 128]),
    ("torus_knot", [2, 3, 2.0, 0.5], [32, 64, 128, 256]),
):
    curve = arclength_reparametrize(preset_curve(name, params))
    delta, rope = thickness_and_ropelength(curve, 64)
    print(f"--- {name}{tuple(params)} ---")
    print(f"thickness {delta:.6f}, ropelength reference {rope:.6f}")
    for n in sweep:
        beta = build_biarc_curve(curve, make_partition(curve.length, n))
        proxy = ropelength_proxy(beta, curve.length)
        _, chain = thickness_and_ropelength(beta.spec, 64)
        print(f"  n={n:>4}  proxy={proxy:.6f}  gap={abs(proxy - rope):.4f}  chain={chain:.6f}")
    print()

print("circle sanity: reference is 2 pi =", round(2 * math.pi, 6))

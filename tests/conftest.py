import numpy as np

from biarcs import curve, energy
from biarcs.biarc import IncompatiblePairError, PointTangent


def unit(v):
    return np.asarray(v, dtype=float) / np.linalg.norm(v)


def reference_tiles(points, tangents):
    """The pair quotients row tile by row tile, each of about
    `curve.PAIR_TILE` pairs with every row against every column, from
    differences taken by np.subtract: (lo, dist2, x) for each tile, in fresh
    arrays, with dist2 NaN and x 0 on the diagonal. The reference of the
    pair kernel's triangle walk, tiled apart from it."""
    p = np.asarray(points, dtype=float).T
    frame = energy._normal_frame(np.asarray(tangents, dtype=float).T)[:, :, None, :]
    n = p.shape[1]
    span = max(1, curve.PAIR_TILE // n)
    for lo in range(0, n, span):
        hi = min(lo + span, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.subtract(p[:, lo:hi, None], p[:, None, :], order="C")
            dist2, x = energy._quotients(d, frame)
        rows = np.arange(hi - lo)
        dist2[rows, lo + rows] = np.nan
        x[rows, lo + rows] = 0.0
        yield lo, dist2, x


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def is_proper(a, b):
    """Both tangents make a positive inner product with the chord."""
    d = b.point - a.point
    return float(np.dot(d, a.tangent)) > 0.0 and float(np.dot(d, b.tangent)) > 0.0


def random_proper_pair(rng, scale=1.0, spread=0.6):
    """Random proper, constructible point-tangent pair.

    Tangents are drawn around the chord direction with the given spread and
    rejected until both make a positive inner product with the chord.
    """
    while True:
        q0 = rng.normal(scale=scale, size=3)
        d = rng.normal(scale=scale, size=3)
        if np.linalg.norm(d) < 0.2 * scale:
            continue
        q1 = q0 + d
        e = unit(d)
        t0 = unit(e + spread * rng.normal(size=3))
        t1 = unit(e + spread * rng.normal(size=3))
        a = PointTangent(q0, t0)
        b = PointTangent(q1, t1)
        if not is_proper(a, b):
            continue
        return a, b


def random_cocircular_pair(rng):
    """Compatible cocircular pair: two points of a random circle with its
    own tangents, oriented so the pair is proper."""
    center = rng.normal(scale=2.0, size=3)
    radius = rng.uniform(0.3, 3.0)
    rot = random_rotation(rng)
    u, v = rot[:, 0], rot[:, 1]

    def at(angle):
        p = center + radius * (np.cos(angle) * u + np.sin(angle) * v)
        t = -np.sin(angle) * u + np.cos(angle) * v
        return PointTangent(p, t)

    a0 = rng.uniform(0.0, 2 * np.pi)
    a1 = a0 + rng.uniform(0.2, 0.9 * np.pi)
    return at(a0), at(a1), center, radius


def require_constructible(a, b):
    if not is_proper(a, b):
        raise IncompatiblePairError
    return a, b


def jittered_circle_config(rng, n, pos_scale=0.03, tan_scale=0.05):
    """Random closed biarc configuration near the unit circle that passes
    the length gate for L = 2 pi."""
    from biarcs.interpolate import BiarcCurveBuildError, check_Bn, from_junctions

    two_pi = 2 * np.pi
    theta = np.arange(n) / n * two_pi
    base_p = np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=-1)
    base_t = np.stack([-np.sin(theta), np.cos(theta), np.zeros(n)], axis=-1)
    while True:
        pts = base_p + rng.normal(scale=pos_scale, size=(n, 3))
        tans = base_t + rng.normal(scale=tan_scale, size=(n, 3))
        tans = tans / np.linalg.norm(tans, axis=-1, keepdims=True)
        try:
            beta = from_junctions(pts, tans)
        except BiarcCurveBuildError:
            continue
        if check_Bn(beta, two_pi):
            return beta

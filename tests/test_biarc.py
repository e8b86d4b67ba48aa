import math

import numpy as np
import pytest
from conftest import random_cocircular_pair, random_proper_pair, random_rotation, unit
from hypothesis import given, settings
from hypothesis import strategies as st

from biarcs.biarc import (
    JOIN_TOL,
    Arc,
    ImproperPairError,
    PairError,
    PointTangent,
    _balanced_arcs,
    _move_lengths,
    biarc_parameter,
    build_balanced_biarc,
    eval_biarc,
)

S2 = math.sqrt(2.0) / 2.0


def tangent_point_radius(p, t, q) -> float:
    """Reference: radius of the circle through p and q that is tangent to
    the unit vector t at p; inf when q lies on the tangent line through p."""
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    dist2 = float(np.dot(d, d))
    if dist2 == 0.0:
        raise ValueError("tangent-point radius needs two distinct points")
    h = float(np.linalg.norm(d - np.dot(d, t) * t))
    if h == 0.0:
        return math.inf
    return dist2 / (2.0 * h)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestTangentPointRadius:
    def test_circle_point_pair(self):
        # both points on the unit circle, tangent taken at the first
        theta = math.pi / 3
        r = tangent_point_radius([1, 0, 0], [0, 1, 0], [math.cos(theta), math.sin(theta), 0])
        assert r == pytest.approx(1.0)

    def test_direct_evaluation(self):
        # |p-q|^2 = 2, distance from q to the tangent line is 1
        assert tangent_point_radius([0, 0, 0], [1, 0, 0], [1, 1, 0]) == pytest.approx(1.0)

    def test_point_on_tangent_line(self):
        assert tangent_point_radius([0, 0, 0], [1, 0, 0], [2, 0, 0]) == math.inf

    def test_recovers_circle_radius(self):
        # random pairs of points on a circle of radius R: result is R
        rng = np.random.default_rng(11)
        for _ in range(200):
            rad = rng.uniform(0.1, 10.0)
            a, b = rng.uniform(0.0, 2 * math.pi, size=2)
            if abs(math.sin((a - b) / 2)) < 1e-6:
                continue
            p = rad * np.array([math.cos(a), math.sin(a), 0.0])
            q = rad * np.array([math.cos(b), math.sin(b), 0.0])
            t = np.array([-math.sin(a), math.cos(a), 0.0])
            assert tangent_point_radius(p, t, q) == pytest.approx(rad, rel=1e-9)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            tangent_point_radius([1, 2, 3], [1, 0, 0], [1, 2, 3])


def straight_pair():
    return PointTangent([0, 0, 0], [1, 0, 0]), PointTangent([1, 0, 0], [1, 0, 0])


def quarter_circle_pair():
    return PointTangent([1, 0, 0], [0, 1, 0]), PointTangent([0, 1, 0], [-1, 0, 0])


class TestMatchingPoint:
    def test_straight_midpoint(self):
        m = build_balanced_biarc(*straight_pair()).matching_point
        assert np.allclose(m, [0.5, 0, 0], atol=1e-14)

    def test_quarter_circle(self):
        m = build_balanced_biarc(*quarter_circle_pair()).matching_point
        assert np.allclose(m, [S2, S2, 0], atol=1e-12)

    def test_improper_pair_rejected(self):
        a = PointTangent([0, 0, 0], [-1, 0, 0])
        b = PointTangent([1, 0, 0], [1, 0, 0])
        with pytest.raises(ImproperPairError):
            build_balanced_biarc(a, b)

    def test_incompatible_pair_rejected(self):
        # a circle's pair traversed in opposing senses: t0 = -t1*, so w = 0,
        # but no such pair is proper, and it fails as an improper one
        a = PointTangent([0, 0, 0], [0, 1, 0])
        b = PointTangent([1, 0, 0], [0, -1, 0])
        with pytest.raises(ImproperPairError):
            build_balanced_biarc(a, b)

    def test_balance_property(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a, b = random_proper_pair(rng)
            m = build_balanced_biarc(a, b).matching_point
            assert abs(np.linalg.norm(m - a.point) - np.linalg.norm(b.point - m)) < 1e-10

    def test_matching_point_on_locus_circle(self):
        # m lies on the circle through both points tangent to t0 + t1* at q0
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b = random_proper_pair(rng)
            d = b.point - a.point
            e = unit(d)
            # b's tangent reflected at the chord's axis: 2 (e . t1) e - t1
            w = a.tangent + 2.0 * np.dot(e, b.tangent) * e - b.tangent
            if np.linalg.norm(np.cross(w / np.linalg.norm(w), e)) < 1e-6:
                continue
            m = build_balanced_biarc(a, b).matching_point
            w = unit(w)
            r = tangent_point_radius(a.point, w, b.point)
            perp = d - np.dot(d, w) * w
            center = a.point + r * perp / np.linalg.norm(perp)
            assert abs(np.linalg.norm(m - center) - r) < 1e-9


def check_biarc_invariants(biarc, a, b, tol=1e-10, scale=1.0):
    """Interpolation, C1 join and balance within tol, positions relative to
    scale."""
    p0, t0 = eval_biarc(biarc, 0.0)
    assert np.linalg.norm(p0 - a.point) <= tol * scale
    assert np.linalg.norm(t0 - a.tangent) <= tol
    p1, t1 = eval_biarc(biarc, biarc.total_length)
    assert np.linalg.norm(p1 - b.point) <= tol * scale
    assert np.linalg.norm(t1 - b.tangent) <= tol
    # C1 join at the matching point
    assert np.linalg.norm(biarc.first.end - biarc.matching_point) <= tol * scale
    assert np.linalg.norm(biarc.second.start - biarc.matching_point) <= tol * scale
    assert np.linalg.norm(biarc.first.end_tangent - biarc.second.direction) <= tol
    # balance
    assert (
        abs(
            np.linalg.norm(biarc.matching_point - a.point)
            - np.linalg.norm(b.point - biarc.matching_point)
        )
        <= tol * scale
    )
    assert biarc.total_length == pytest.approx(biarc.first.length + biarc.second.length)


def assert_move_matches_batch(a, b):
    """Chained into junction triples that hold it as the first and as the
    second pair, the pair gets bit for bit the biarc lengths of
    `_balanced_arcs` from the scalar move rebuild, or both raise PairError.
    The other pair of each triple has the same chord and the tangents
    swapped, so it is proper when the pair is."""
    d = b.point - a.point
    triples = (
        ([a.point, b.point, b.point + d], [a.tangent, b.tangent, a.tangent]),
        ([a.point - d, a.point, b.point], [b.tangent, a.tangent, b.tangent]),
    )
    outcomes = []
    for points, tangents in triples:
        points, tangents = np.array(points), np.array(tangents)
        try:
            arcs = _balanced_arcs(points[:2], tangents[:2], points[1:], tangents[1:])
            batch = [length.hex() for length in arcs[-1].tolist()]
        except PairError:
            batch = PairError
        try:
            scalar = [length.hex() for length in _move_lengths(points.tolist(), tangents.tolist())]
        except PairError:
            scalar = PairError
        assert scalar == batch
        outcomes.append(batch)
    return outcomes


class TestBuild:
    def test_straight_pair(self):
        biarc = build_balanced_biarc(*straight_pair())
        assert biarc.first.length == pytest.approx(0.5)
        assert biarc.second.length == pytest.approx(0.5)
        assert biarc.total_length == pytest.approx(1.0)
        assert np.allclose(biarc.first.curvature, 0)
        assert np.allclose(biarc.second.curvature, 0)

    def test_quarter_circle_pair(self):
        biarc = build_balanced_biarc(*quarter_circle_pair())
        assert biarc.first.length == pytest.approx(math.pi / 4, rel=1e-12)
        assert biarc.second.length == pytest.approx(math.pi / 4, rel=1e-12)
        assert biarc.total_length == pytest.approx(math.pi / 2, rel=1e-12)
        for s in np.linspace(0, biarc.total_length, 33):
            pos, _ = eval_biarc(biarc, s)
            assert abs(np.linalg.norm(pos) - 1.0) < 1e-12

    def test_generic_nonplanar_pair(self):
        a = PointTangent([0, 0, 0], [1, 0, 0])
        b = PointTangent([1, 0.2, 0.1], unit([1, 0.05, -0.1]))
        biarc = build_balanced_biarc(a, b)
        check_biarc_invariants(biarc, a, b)

    def test_random_pairs_satisfy_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a, b = random_proper_pair(rng)
            biarc = build_balanced_biarc(a, b)
            check_biarc_invariants(biarc, a, b)
            assert PairError not in assert_move_matches_batch(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            # coincident points
            (PointTangent([1, 2, 3], [1, 0, 0]), PointTangent([1, 2, 3], [0, 1, 0])),
            # improper: the first tangent points back along the chord
            (PointTangent([0, 0, 0], [-1, 0, 0]), PointTangent([1, 0, 0], [1, 0, 0])),
            # cocircular with opposing orientations
            (PointTangent([0, 0, 0], [0, 1, 0]), PointTangent([1, 0, 0], [0, -1, 0])),
            # both tangents 2e-8 and 3e-8 off the chord's normal: the balanced
            # point is found only to ~1e-9, and the arcs miss the C1 join
            (
                PointTangent([0, 0, 0], [math.sin(2e-8), math.cos(2e-8), 0]),
                PointTangent([1, 0, 0], [math.sin(3e-8), math.cos(3e-8), 0]),
            ),
        ],
        ids=["coincident", "improper", "incompatible_cocircular", "join_not_closing"],
    )
    def test_move_rebuild_fails_where_the_batch_fails(self, a, b):
        assert assert_move_matches_batch(a, b) == [PairError, PairError]

    def test_underflowing_chord_is_coincident(self):
        # the points are distinct, 1e-170 apart along the first tangent, but
        # the squared chord underflows to 0: the batch calls the pair
        # coincident, and the move rebuild fails on it too
        a = PointTangent([1e-170, 2e-170, -1e-170], [0.0, 0.6, 0.8])
        b = PointTangent(a.point + 1e-170 * a.tangent, a.tangent)
        assert not np.array_equal(a.point, b.point)
        with pytest.raises(ImproperPairError, match="coincident"):
            _balanced_arcs(a.point[None], a.tangent[None], b.point[None], b.tangent[None])
        assert assert_move_matches_batch(a, b) == [PairError, PairError]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_tilts=st.tuples(st.floats(-12.0, -5.0), st.floats(-12.0, -5.0)),
        scale=st.sampled_from([1e-6, 1e6]),
    )
    def test_nearly_straight_pairs(self, seed, log_tilts, scale):
        # each tangent tilts off the chord towards its own random side, so
        # both S- and C-shaped nearly straight pairs occur
        rng = np.random.default_rng(seed)
        e, u, v = random_rotation(rng).T
        tangents = []
        for log_tilt in log_tilts:
            tilt, side = 10.0**log_tilt, rng.uniform(0.0, 2 * math.pi)
            off = math.cos(side) * u + math.sin(side) * v
            tangents.append(math.cos(tilt) * e + math.sin(tilt) * off)
        q0 = scale * rng.normal(size=3)
        a = PointTangent(q0, tangents[0])
        b = PointTangent(q0 + scale * e, tangents[1])
        check_biarc_invariants(build_balanced_biarc(a, b), a, b, scale=scale)
        assert_move_matches_batch(a, b)

    @pytest.mark.parametrize("tilt", [4e-10, 1e-10, 1e-12])
    def test_equal_tangents_near_the_chord_normal_build(self, tilt):
        # a proper S-shaped pair: two semicircles of diameter 1/2, length
        # pi / 2 - tilt to first order; |w| = 2 sin(tilt) is tiny, but e.w > 0
        t = [math.sin(tilt), math.cos(tilt), 0.0]
        a, b = PointTangent([0, 0, 0], t), PointTangent([1, 0, 0], t)
        biarc = build_balanced_biarc(a, b)
        check_biarc_invariants(biarc, a, b)
        assert biarc.total_length == pytest.approx(math.pi / 2, abs=2 * tilt)
        assert PairError not in assert_move_matches_batch(a, b)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_tilt=st.floats(-13.0, -7.0),
        scale=st.sampled_from([1e-6, 1e6]),
    )
    def test_equal_tangents_near_the_chord_normal(self, seed, log_tilt, scale):
        # equal tangents tilted towards the chord from a random direction in
        # its normal plane: the pair is proper, so it builds a biarc that
        # passes every invariant or fails at a join, never as improper
        rng = np.random.default_rng(seed)
        e, u, v = random_rotation(rng).T
        tilt, side = 10.0**log_tilt, rng.uniform(0.0, 2 * math.pi)
        t = math.sin(tilt) * e + math.cos(tilt) * (math.cos(side) * u + math.sin(side) * v)
        q0 = scale * rng.normal(size=3)
        a, b = PointTangent(q0, t), PointTangent(q0 + scale * e, t)
        try:
            biarc = build_balanced_biarc(a, b)
        except PairError as exc:
            assert type(exc) is PairError
        else:
            # the tangents turn by about pi within a length of scale: the
            # join checks' own JOIN_TOL bounds the mismatch
            check_biarc_invariants(biarc, a, b, tol=JOIN_TOL, scale=scale)
        assert_move_matches_batch(a, b)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_delta=st.floats(-12.0, -6.0),
        scale=st.sampled_from([1e-6, 1e6]),
    )
    def test_nearly_cocircular_pairs(self, seed, log_delta, scale):
        # the end point moves off the circle by delta * radius and its
        # tangent tilts by about delta, both in random directions
        rng = np.random.default_rng(seed)
        a, b, _, radius = random_cocircular_pair(rng)
        delta = 10.0**log_delta
        moved = b.point + delta * radius * unit(rng.normal(size=3))
        tilted = unit(b.tangent + delta * unit(rng.normal(size=3)))
        a = PointTangent(scale * a.point, a.tangent)
        b = PointTangent(scale * moved, tilted)
        assert_move_matches_batch(a, b)
        try:
            biarc = build_balanced_biarc(a, b)
        except PairError:
            return
        check_biarc_invariants(biarc, a, b, scale=scale)

    def test_cocircular_pair_stays_on_circle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b, center, radius = random_cocircular_pair(rng)
            biarc = build_balanced_biarc(a, b)
            for s in np.linspace(0, biarc.total_length, 17):
                pos, _ = eval_biarc(biarc, s)
                assert abs(np.linalg.norm(pos - center) - radius) < 1e-9


class TestEval:
    def test_boundaries_and_junction(self):
        a, b = quarter_circle_pair()
        biarc = build_balanced_biarc(a, b)
        pos, tan = eval_biarc(biarc, 0.0)
        assert np.allclose(pos, a.point) and np.allclose(tan, a.tangent)
        pos, tan = eval_biarc(biarc, biarc.first.length)
        assert np.allclose(pos, biarc.matching_point, atol=1e-12)
        assert np.allclose(tan, biarc.second.direction, atol=1e-12)

    def test_circle_biarc_midpoint(self):
        biarc = build_balanced_biarc(*quarter_circle_pair())
        pos, _ = eval_biarc(biarc, math.pi / 4)
        assert np.allclose(pos, [S2, S2, 0], atol=1e-12)

    def test_out_of_range(self):
        biarc = build_balanced_biarc(*straight_pair())
        with pytest.raises(ValueError):
            eval_biarc(biarc, -0.01)
        with pytest.raises(ValueError):
            eval_biarc(biarc, biarc.total_length + 0.01)

    def test_unit_speed(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a, b = random_proper_pair(rng)
            biarc = build_balanced_biarc(a, b)
            ds = 1e-4 * biarc.total_length
            for frac in (0.1, 0.45, 0.8):
                s = frac * biarc.total_length
                p0, _ = eval_biarc(biarc, s)
                p1, _ = eval_biarc(biarc, s + ds)
                assert np.linalg.norm(p1 - p0) / ds == pytest.approx(1.0, abs=1e-6)


    def test_near_straight_arc_keeps_its_bend(self):
        # r (1 - cos phi) cancels to 0 here; the bend is k s^2 / 2 = 5e-9
        arc = Arc(start=np.zeros(3), direction=[1.0, 0, 0], curvature=[0, 1e-8, 0], length=1.0)
        pos, _ = arc.at(1.0)
        assert pos[1] == pytest.approx(5e-9, rel=1e-6)


class TestBiarcParameter:
    def test_straight(self):
        assert biarc_parameter(build_balanced_biarc(*straight_pair())) == pytest.approx(0.5)

    def test_quarter_circle(self):
        lam = biarc_parameter(build_balanced_biarc(*quarter_circle_pair()))
        assert lam == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)

    def test_finite_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_proper_pair(rng)
            lam = biarc_parameter(build_balanced_biarc(a, b))
            assert np.isfinite(lam) and lam > 0.0

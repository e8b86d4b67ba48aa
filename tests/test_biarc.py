import math

import numpy as np
import pytest
from conftest import random_cocircular_pair, random_proper_pair, random_rotation, unit

from biarcs.biarc import (
    Arc,
    ImproperPairError,
    IncompatiblePairError,
    PairClass,
    PointTangent,
    balanced_matching_point,
    biarc_parameter,
    build_balanced_biarc,
    classify_pair,
    eval_biarc,
)
from biarcs.geom import tangent_point_radius

S2 = math.sqrt(2.0) / 2.0


def straight_pair():
    return PointTangent([0, 0, 0], [1, 0, 0]), PointTangent([1, 0, 0], [1, 0, 0])


def quarter_circle_pair():
    return PointTangent([1, 0, 0], [0, 1, 0]), PointTangent([0, 1, 0], [-1, 0, 0])


class TestClassify:
    def test_straight(self):
        assert classify_pair(*straight_pair()) is PairClass.EQUAL_TANGENTS_TRANSVERSAL

    def test_quarter_circle_is_compatible(self):
        assert classify_pair(*quarter_circle_pair()) is PairClass.COCIRCULAR_COMPATIBLE

    def test_opposed_tangents_are_incompatible(self):
        a = PointTangent([0, 0, 0], [1, 0, 0])
        b = PointTangent([1, 0, 0], [-1, 0, 0])
        assert classify_pair(a, b) is PairClass.COCIRCULAR_INCOMPATIBLE

    def test_equal_tangents_perpendicular(self):
        a = PointTangent([0, 0, 0], [0, 1, 0])
        b = PointTangent([1, 0, 0], [0, 1, 0])
        assert classify_pair(a, b) is PairClass.EQUAL_TANGENTS_PERPENDICULAR

    def test_generic(self):
        a = PointTangent([0, 0, 0], unit([1, 0.3, 0]))
        b = PointTangent([1, 0, 0], unit([1, 0, 0.4]))
        assert classify_pair(a, b) is PairClass.GENERIC

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            classify_pair(PointTangent([0, 0, 0], [1, 0, 0]), PointTangent([0, 0, 0], [0, 1, 0]))

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b = random_proper_pair(rng)
            rot = random_rotation(rng)
            shift = rng.normal(scale=5.0, size=3)
            a2 = PointTangent(rot @ a.point + shift, rot @ a.tangent)
            b2 = PointTangent(rot @ b.point + shift, rot @ b.tangent)
            assert classify_pair(a2, b2) is classify_pair(a, b)


class TestMatchingPoint:
    def test_straight_midpoint(self):
        m = balanced_matching_point(*straight_pair())
        assert np.allclose(m, [0.5, 0, 0], atol=1e-14)

    def test_quarter_circle(self):
        m = balanced_matching_point(*quarter_circle_pair())
        assert np.allclose(m, [S2, S2, 0], atol=1e-12)

    def test_improper_pair_rejected(self):
        a = PointTangent([0, 0, 0], [-1, 0, 0])
        b = PointTangent([1, 0, 0], [1, 0, 0])
        with pytest.raises(ImproperPairError):
            balanced_matching_point(a, b)

    def test_incompatible_pair_rejected(self):
        # tangents reflected into exact opposition but proper is impossible
        # here, so build an incompatible yet proper-looking configuration:
        # a circle traversed in opposing senses is never proper, hence the
        # improper error also guards it; check the dedicated error on a
        # proper-side configuration with opposed reflected tangents.
        a = PointTangent([0, 0, 0], [0, 1, 0])
        b = PointTangent([1, 0, 0], [0, -1, 0])
        with pytest.raises((IncompatiblePairError, ImproperPairError)):
            balanced_matching_point(a, b)

    def test_balance_property(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a, b = random_proper_pair(rng)
            m = balanced_matching_point(a, b)
            assert abs(np.linalg.norm(m - a.point) - np.linalg.norm(b.point - m)) < 1e-10

    def test_matching_point_on_locus_circle(self):
        # m lies on the circle through both points tangent to t0 + t1* at q0
        rng = np.random.default_rng(17)
        from biarcs.geom import reflect_about

        for _ in range(200):
            a, b = random_proper_pair(rng)
            d = b.point - a.point
            e = unit(d)
            w = a.tangent + reflect_about(e, b.tangent)
            if np.linalg.norm(np.cross(w / np.linalg.norm(w), e)) < 1e-6:
                continue
            m = balanced_matching_point(a, b)
            w = unit(w)
            r = tangent_point_radius(a.point, w, b.point)
            perp = d - np.dot(d, w) * w
            center = a.point + r * perp / np.linalg.norm(perp)
            assert abs(np.linalg.norm(m - center) - r) < 1e-9


def check_biarc_invariants(biarc, a, b, tol=1e-10):
    p0, t0 = eval_biarc(biarc, 0.0)
    assert np.linalg.norm(p0 - a.point) <= tol
    assert np.linalg.norm(t0 - a.tangent) <= tol
    p1, t1 = eval_biarc(biarc, biarc.total_length)
    assert np.linalg.norm(p1 - b.point) <= tol
    assert np.linalg.norm(t1 - b.tangent) <= tol
    # C1 join at the matching point
    assert np.linalg.norm(biarc.first.end - biarc.matching_point) <= tol
    assert np.linalg.norm(biarc.second.start - biarc.matching_point) <= tol
    assert np.linalg.norm(biarc.first.end_tangent - biarc.second.direction) <= tol
    # balance
    assert (
        abs(
            np.linalg.norm(biarc.matching_point - a.point)
            - np.linalg.norm(b.point - biarc.matching_point)
        )
        <= tol
    )
    assert biarc.total_length == pytest.approx(biarc.first.length + biarc.second.length)


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

    def test_cocircular_pair_stays_on_circle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b, center, radius = random_cocircular_pair(rng)
            assert classify_pair(a, b) is PairClass.COCIRCULAR_COMPATIBLE
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

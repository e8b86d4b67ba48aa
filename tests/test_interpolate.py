import dataclasses
import math

import numpy as np
import pytest
from conftest import jittered_circle_config, random_rotation
from hypothesis import given, settings
from hypothesis import strategies as st

from biarcs.biarc import biarc_parameter, build_balanced_biarc
from biarcs.curve import (
    Partition,
    arclength_reparametrize,
    curvature_values,
    make_partition,
    preset_curve,
)
from biarcs.energy import discrete_tp_energy
from biarcs.interpolate import (
    BiarcCurve,
    BiarcCurveBuildError,
    build_biarc_curve,
    c1_distance,
    check_Bn,
    from_junctions,
    junctions_from_text,
    junctions_to_text,
)

TWO_PI = 2 * math.pi


def circle_interpolant(n, radius=1.0, mode="uniform", seed=0):
    circle = preset_curve("circle", [radius])
    part = make_partition(circle.length, n, mode, seed=seed)
    return circle, part, build_biarc_curve(circle, part)


def ellipse_interpolant(n):
    ellipse = arclength_reparametrize(preset_curve("ellipse", [2.0, 1.0]))
    part = make_partition(ellipse.length, n)
    return ellipse, part, build_biarc_curve(ellipse, part)


def tilted_stadium(delta, side=8):
    """Junctions of a stadium with straight sides of length ``side`` and
    unit caps; the tangents along the straight sides tilt alternately by
    +delta and -delta, so those pairs are nearly straight S-shapes."""
    pts, tans = [], []
    for x0, y, sense, caps in ((0, 0.0, 1, range(-60, 61, 30)), (side, 2.0, -1, range(120, 241, 30))):
        for i in range(side + 1):
            tilt = (-1) ** i * delta
            pts.append((x0 + sense * i, y))
            tans.append((sense * math.cos(tilt), math.sin(tilt)))
        for deg in caps:
            a = math.radians(deg)
            pts.append((side * (sense > 0) + math.cos(a), 1 + math.sin(a)))
            tans.append((-math.sin(a), math.cos(a)))
    return np.array([(x, y, 0.0) for x, y in pts]), np.array([(x, y, 0.0) for x, y in tans])


def assert_c1_joins(beta, tol=1e-9):
    """Position and tangent agree on both sides of every junction and
    matching point, and the junctions interpolate their data."""
    s, chain = beta.arc_offsets[:-1], beta.spec
    pa, ta = chain.position(s - 1e-12), chain.derivative(s - 1e-12)
    pb, tb = chain.position(s + 1e-12), chain.derivative(s + 1e-12)
    assert np.linalg.norm(pa - pb, axis=-1).max() < tol
    assert np.linalg.norm(ta - tb, axis=-1).max() < tol
    pos, tan = chain.position(beta.offsets[:-1]), chain.derivative(beta.offsets[:-1])
    assert np.abs(pos - beta.junction_points).max() < tol
    assert np.abs(tan - beta.junction_tangents).max() < tol


class TestBuild:
    def test_circle_uniform(self):
        # n = 4: quarter-circle pairs build too
        for n in (4, 8):
            _, _, beta = circle_interpolant(n)
            assert beta.n_segments == n
            assert beta.total_length == pytest.approx(TWO_PI, abs=1e-9)
            s = np.linspace(0, beta.total_length, 200)
            pos = beta.spec.position(s)
            assert np.abs(np.linalg.norm(pos, axis=-1) - 1.0).max() < 1e-9

    def test_junction_interpolation(self):
        curve, part, beta = ellipse_interpolant(32)
        pos, tan = beta.spec.position(beta.offsets[:-1]), beta.spec.derivative(beta.offsets[:-1])
        want_p = curve.position(part.samples[:-1])
        want_t = curve.derivative(part.samples[:-1])
        assert np.abs(pos - want_p).max() < 1e-10
        assert np.abs(tan - want_t).max() < 1e-10

    def test_c1_at_junctions(self):
        _, _, beta = ellipse_interpolant(16)
        chain = beta.spec
        for off in beta.offsets[:-1]:
            pa, ta = chain.position(off - 1e-12), chain.derivative(off - 1e-12)
            pb, tb = chain.position(off + 1e-12), chain.derivative(off + 1e-12)
            assert np.linalg.norm(pa - pb) < 1e-9
            assert np.linalg.norm(ta - tb) < 1e-9

    def test_length_trend(self):
        curve, _, beta32 = ellipse_interpolant(32)
        _, _, beta64 = ellipse_interpolant(64)
        err32 = abs(beta32.total_length / curve.length - 1.0)
        err64 = abs(beta64.total_length / curve.length - 1.0)
        assert err64 < err32

    def test_segment_ratio_trend(self):
        curve, p32, beta32 = ellipse_interpolant(32)
        _, p64, beta64 = ellipse_interpolant(64)
        r32 = np.abs(beta32.segment_lengths / p32.gaps - 1.0).max()
        r64 = np.abs(beta64.segment_lengths / p64.gaps - 1.0).max()
        assert r64 < r32

    def test_biarc_parameter_window(self):
        _, _, beta = ellipse_interpolant(64)
        lams = [biarc_parameter(b) for b in beta.biarcs]
        assert min(lams) >= 0.25 and max(lams) <= 0.75

    def test_all_pairs_proper(self):
        for make in (lambda: circle_interpolant(8), lambda: ellipse_interpolant(32)):
            _, _, beta = make()
            q = beta.junction_points
            t = beta.junction_tangents
            d = np.roll(q, -1, axis=0) - q
            assert np.all(np.einsum("ij,ij->i", d, t) > 0)
            assert np.all(np.einsum("ij,ij->i", d, np.roll(t, -1, axis=0)) > 0)

    def test_wide_gap_rejected(self):
        circle = preset_curve("circle", [1.0])
        part = Partition(np.array([0.0, 0.3, 0.6, 0.9, TWO_PI]))
        with pytest.raises(BiarcCurveBuildError):
            build_biarc_curve(circle, part)

    def test_wrong_period_rejected(self):
        circle = preset_curve("circle", [1.0])
        with pytest.raises(BiarcCurveBuildError):
            build_biarc_curve(circle, make_partition(1.0, 8))

    def test_improper_junctions_named(self):
        # reverse one tangent of a square-ish configuration
        angles = np.linspace(0, TWO_PI, 6, endpoint=False)
        points = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)
        tangents = np.stack([-np.sin(angles), np.cos(angles), np.zeros_like(angles)], axis=-1)
        tangents[2] = -tangents[2]
        with pytest.raises(BiarcCurveBuildError) as err:
            from_junctions(points, tangents)
        assert err.value.segment in (1, 2)

    def test_coincident_junctions_named(self):
        angles = np.linspace(0, TWO_PI, 6, endpoint=False)
        points = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)
        tangents = np.stack([-np.sin(angles), np.cos(angles), np.zeros_like(angles)], axis=-1)
        points[1] = points[0]
        with pytest.raises(BiarcCurveBuildError) as err:
            from_junctions(points, tangents)
        assert err.value.segment == 0

    @pytest.mark.parametrize(
        "case, segment, message",
        [
            ("two junctions", None, "at least three junctions"),
            ("(8, 2) arrays", None, r"matching \(n, 3\) arrays"),
            ("NaN point", 3, "junction 3: point not finite"),
            ("long tangent", 5, "junction 5: .* tangent not unit length"),
        ],
    )
    def test_malformed_junctions_rejected(self, case, segment, message):
        angles = np.linspace(0, TWO_PI, 8, endpoint=False)
        points = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)
        tangents = np.stack([-np.sin(angles), np.cos(angles), np.zeros_like(angles)], axis=-1)
        if case == "two junctions":
            points, tangents = points[:2], tangents[:2]
        elif case == "(8, 2) arrays":
            points, tangents = points[:, :2], tangents[:, :2]
        elif case == "NaN point":
            points[3, 1] = np.nan
        else:
            tangents[5] *= 1.1
        with pytest.raises(BiarcCurveBuildError, match=message) as err:
            from_junctions(points, tangents)
        assert err.value.segment == segment

    def test_source_must_be_arclength_parametrized(self):
        ellipse = preset_curve("ellipse", [2.0, 1.0])
        with pytest.raises(BiarcCurveBuildError, match="source curve must be arclength-parametrized"):
            build_biarc_curve(ellipse, make_partition(ellipse.period, 8))

    def test_overflow_is_a_build_error(self):
        # at radius 1e160 the squared chords overflow; the suite turns a
        # stray RuntimeWarning into an error, so only the typed error passes
        angles = np.linspace(0, TWO_PI, 16, endpoint=False)
        points = 1e160 * np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)
        tangents = np.stack([-np.sin(angles), np.cos(angles), np.zeros_like(angles)], axis=-1)
        with pytest.raises(BiarcCurveBuildError):
            from_junctions(points, tangents)

    @pytest.mark.parametrize("delta", [1e-8, 3e-8, 1e-7])
    def test_nearly_straight_stadium_closes(self, delta):
        # the alternating tilts make the straight sides nearly straight
        # S-shaped pairs, whose matching points sit ~delta off the chord
        beta = from_junctions(*tilted_stadium(delta))
        assert_c1_joins(beta)


class TestInvariance:
    """Segment lengths follow the symmetries of the construction."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 32), log_c=st.floats(-3.0, 3.0))
    def test_rigid_motion_and_dilation(self, seed, n, log_c):
        rng = np.random.default_rng(seed)
        beta = jittered_circle_config(rng, n)
        c = 10.0**log_c
        rot = random_rotation(rng)
        shift = c * rng.normal(size=3)
        moved = from_junctions(
            c * beta.junction_points @ rot.T + shift, beta.junction_tangents @ rot.T
        )
        np.testing.assert_allclose(moved.segment_lengths, c * beta.segment_lengths, rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 32), data=st.data())
    def test_cyclic_relabelling(self, seed, n, data):
        beta = jittered_circle_config(np.random.default_rng(seed), n)
        k = data.draw(st.integers(1, n - 1))
        rolled = from_junctions(
            np.roll(beta.junction_points, k, axis=0), np.roll(beta.junction_tangents, k, axis=0)
        )
        assert np.array_equal(rolled.segment_lengths, np.roll(beta.segment_lengths, k))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 32))
    def test_reversal(self, seed, n):
        beta = jittered_circle_config(np.random.default_rng(seed), n)
        back = from_junctions(beta.junction_points[::-1], -beta.junction_tangents[::-1])
        # reversed segment k is original segment n - 2 - k
        want = np.roll(beta.segment_lengths[::-1], -1)
        np.testing.assert_allclose(back.segment_lengths, want, rtol=1e-12)


class TestEval:
    def test_boundary_and_closure(self):
        _, _, beta = circle_interpolant(8)
        chain = beta.spec
        p0, t0 = chain.position(0.0), chain.derivative(0.0)
        pL, tL = chain.position(beta.total_length), chain.derivative(beta.total_length)
        assert np.allclose(p0, pL, atol=1e-12)
        assert np.allclose(t0, tL, atol=1e-12)
        assert np.allclose(p0, [1, 0, 0], atol=1e-12)

    def test_halfway_around_circle(self):
        _, _, beta = circle_interpolant(16)
        pos = beta.spec.position(math.pi)
        assert np.linalg.norm(pos - np.array([-1.0, 0.0, 0.0])) < 1e-9

    def test_periodic(self):
        _, _, beta = circle_interpolant(8)
        chain = beta.spec
        p1, t1 = chain.position(1.0), chain.derivative(1.0)
        p2, t2 = chain.position(1.0 + beta.total_length), chain.derivative(1.0 + beta.total_length)
        assert np.allclose(p1, p2, atol=1e-12) and np.allclose(t1, t2, atol=1e-12)


    def test_near_straight_arc_keeps_its_bend(self):
        # a stadium whose first biarc joins (0, 0) and (1, eps) with both
        # tangents along x: its first arc starts along x with curvature
        # k = 4 eps towards y, so at s = 1/4 it is k s^2 / 2 = eps / 8 off
        # the x axis; r (1 - cos phi) cancels to 0 there
        eps = 2.5e-9
        pts = [(0, 0), (1, eps), (2, 0)]
        tans = [(1, 0)] * 3
        for deg in (-45, 0, 45, 90, 135, 180, 225):
            a = math.radians(deg)
            cx = 2.0 if deg <= 90 else 0.0
            pts.append((cx + math.cos(a), 1 + math.sin(a)))
            tans.append((-math.sin(a), math.cos(a)))
            if deg == 90:
                pts += [(1, 2), (0, 2)]
                tans += [(-1, 0)] * 2
        beta = from_junctions(
            np.array([(x, y, 0.0) for x, y in pts]), np.array([(x, y, 0.0) for x, y in tans])
        )
        pos = beta.spec.position(0.25)
        assert pos[1] == pytest.approx(eps / 8, rel=1e-6)


class TestSpec:
    """``beta.spec``, the chain as a CurveSpec."""

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2, 2)])
    def test_any_shape_is_the_flat_evaluation(self, shape):
        _, _, beta = circle_interpolant(8)
        spec = beta.spec
        s = np.random.default_rng(0).uniform(-1.0, 8.0, size=shape)
        for f in (spec.position, spec.derivative, spec.second_derivative):
            assert np.array_equal(f(s), f(s.ravel()).reshape(shape + (3,)))

    def test_arclength_table_holds_the_arc_breaks(self):
        _, _, beta = ellipse_interpolant(16)
        spec = beta.spec
        assert spec.is_arclength
        assert spec.length == beta.arc_offsets[-1]
        assert np.array_equal(spec.arclength_table, np.column_stack([beta.arc_offsets] * 2))

    def test_curvature_at_arc_midpoints(self):
        # the untilted stadium's straight sides are arcs with k = 0
        stadium = from_junctions(*tilted_stadium(0.0))
        assert np.any(stadium.arc_k == 0.0)
        for beta in (ellipse_interpolant(32)[2], stadium):
            mid = 0.5 * (beta.arc_offsets[:-1] + beta.arc_offsets[1:])
            kappa = curvature_values(beta.spec, mid)
            np.testing.assert_allclose(kappa, beta.arc_k, rtol=1e-12, atol=0.0)


class TestRepresentation:
    """A chain is its five arc arrays: the junction data and biarc lengths
    are read from them, and none of them can be edited."""

    def test_built_chain_keeps_no_caller_array(self):
        # the chain once kept the caller's arrays: scaling them moved the
        # q = 3 energy of this chain from 47.2337 to 41.2470
        _, _, beta = ellipse_interpolant(16)
        points, tangents = beta.junction_points.copy(), beta.junction_tangents.copy()
        chain = from_junctions(points, tangents)
        before = (chain.junction_points.copy(), chain.arc_starts[::2].copy())
        energy = discrete_tp_energy(chain, 3.0, False, chain.total_length)
        points *= 1.1
        tangents *= -1.0
        assert np.array_equal(chain.junction_points, before[0])
        assert np.array_equal(chain.arc_starts[::2], before[1])
        assert discrete_tp_energy(chain, 3.0, False, chain.total_length) == energy

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_biarcs_have_the_built_arc_lengths(self, n):
        # lengths taken as differences of the arc offsets differed in their
        # last bits on 660 of these 672 arcs
        knot = arclength_reparametrize(preset_curve("torus_knot", [2, 3, 2, 0.5]))
        beta = build_biarc_curve(knot, make_partition(knot.length, n, "jitter:0.2", seed=1))
        for biarc in beta.biarcs:
            alone = build_balanced_biarc(*biarc.pair)
            assert biarc.first.length == alone.first.length
            assert biarc.second.length == alone.second.length

    def test_chain_data_is_read_only(self):
        _, _, beta = ellipse_interpolant(16)
        arrays = [beta.junction_points, beta.junction_tangents]
        arrays += [beta.arc_starts, beta.arc_dirs, beta.arc_normals, beta.arc_k, beta.arc_lengths]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_only_the_arc_arrays_are_stored(self):
        names = [f.name for f in dataclasses.fields(BiarcCurve)]
        assert names == ["arc_starts", "arc_dirs", "arc_normals", "arc_k", "arc_lengths", "source_params"]


class TestGate:
    def test_uniform_circle_passes(self):
        for n in (8, 16, 64):
            _, _, beta = circle_interpolant(n)
            assert check_Bn(beta, TWO_PI)

    def test_rescaled_fails(self):
        _, _, beta = circle_interpolant(8)
        big = from_junctions(4.0 * beta.junction_points, beta.junction_tangents)
        assert not check_Bn(big, TWO_PI)


class TestC1Distance:
    def test_circle_interpolant_is_exact(self):
        circle, _, beta = circle_interpolant(16)
        assert c1_distance(circle, beta, 512) < 1e-9

    def test_ellipse_trend(self):
        curve, _, b32 = ellipse_interpolant(32)
        _, _, b64 = ellipse_interpolant(64)
        assert c1_distance(curve, b64, 1024) < c1_distance(curve, b32, 1024)

    def test_underresolved_grid(self):
        curve, _, beta = ellipse_interpolant(32)
        with pytest.raises(ValueError):
            c1_distance(curve, beta, 32)

    def test_requires_partition_provenance(self):
        circle, _, beta = circle_interpolant(8)
        rebuilt = from_junctions(beta.junction_points, beta.junction_tangents)
        with pytest.raises(ValueError):
            c1_distance(circle, rebuilt, 512)


class TestSerialization:
    def test_round_trip(self):
        _, _, beta = circle_interpolant(12)
        text = junctions_to_text(beta)
        assert len(text.splitlines()) == 12
        back = junctions_from_text(text)
        assert np.abs(back.junction_points - beta.junction_points).max() < 1e-8
        assert np.abs(back.junction_tangents - beta.junction_tangents).max() < 1e-8
        assert back.total_length == pytest.approx(beta.total_length, abs=1e-7)

    def test_round_trip_keeps_a_small_chain(self):
        # junctions about 1e-7 apart: a fixed number of decimals would keep
        # only a few significant digits of them
        ellipse = arclength_reparametrize(preset_curve("ellipse", [2e-7, 1e-7]))
        beta = build_biarc_curve(ellipse, make_partition(ellipse.length, 16))
        back = junctions_from_text(junctions_to_text(beta))
        assert np.array_equal(back.junction_points, beta.junction_points)
        # renormalizing the read tangents moves them by about an ulp
        assert np.abs(back.junction_tangents - beta.junction_tangents).max() <= 2.3e-16
        rel = np.abs(back.segment_lengths / beta.segment_lengths - 1.0)
        assert rel.max() <= 4.5e-16

    def test_field_count_checked(self):
        with pytest.raises(ValueError):
            junctions_from_text("1 2 3 4\n")

    def test_comments_and_blanks_ignored(self):
        _, _, beta = circle_interpolant(8)
        text = "# junctions\n\n" + junctions_to_text(beta)
        back = junctions_from_text(text)
        assert back.n_segments == 8

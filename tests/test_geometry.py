"""Level-set projection, frames, curvature, and crossings."""
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twogrid import geometry, problems
from twogrid.errors import BadParams, NonConvergence
from twogrid.geometry import (InterfaceFrame, LevelSet, project_to_interface,
                              segment_crossing)
from twogrid.grid import GridParams, NodeTag, build_tube_two_grid_2d


def circle_ls(R=0.5):
    th = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
    pts = np.column_stack([R * np.cos(th), R * np.sin(th)])
    return LevelSet(phi=lambda x, y: np.hypot(x, y) - R, samples=pts)


def project_one(ls, p):
    """The frame of a batch of one point, with the batch axis dropped."""
    fr = project_to_interface(ls, np.asarray([p], dtype=float))
    return InterfaceFrame(foot=fr.foot[0], normal=fr.normal[0],
                          tangent=fr.tangent[0], curvature=fr.curvature[0])


def cross_one(ls, a, b):
    return segment_crossing(ls, np.asarray([a], dtype=float),
                            np.asarray([b], dtype=float))[0]


def flower_ls():
    def rho(theta):
        return 0.5 + 0.1 * np.sin(8.0 * theta)

    def phi(x, y):
        return np.hypot(x, y) - rho(np.arctan2(y, x))

    th = np.linspace(-np.pi, np.pi, 720, endpoint=False)
    pts = np.column_stack([rho(th) * np.cos(th), rho(th) * np.sin(th)])
    return LevelSet(phi=phi, samples=pts)


@pytest.mark.parametrize("p", [(0.7, 0.9), (0.1, -0.2), (-0.45, 0.05)])
def test_circle_projection_is_radial(p):
    # analytic oracle: the foot of a point p is R * p / |p|
    ls = circle_ls()
    fr = project_one(ls, p)
    expect = 0.5 * np.asarray(p) / np.hypot(*p)
    assert fr.foot == pytest.approx(expect, abs=1e-11)
    assert fr.normal == pytest.approx(np.asarray(p) / np.hypot(*p), abs=1e-10)
    assert fr.curvature == pytest.approx(2.0, rel=1e-7)


def test_circle_projection_without_analytic_gradient():
    # the finite-difference gradient is the only one: the normal and the
    # curvature agree with the closed forms p / |p| and 1 / R
    ls = circle_ls()
    fr = project_one(ls, (0.7, 0.9))
    expect = np.asarray([0.7, 0.9]) / np.hypot(0.7, 0.9)
    assert fr.foot == pytest.approx(0.5 * expect, abs=1e-12)
    assert fr.normal == pytest.approx(expect, abs=1e-10)
    assert fr.curvature == pytest.approx(2.0, rel=1e-7)
    assert [f.name for f in dataclasses.fields(LevelSet)] == ["phi",
                                                               "samples"]


def test_frame_orthonormality():
    ls = flower_ls()
    for p in [(0.55, 0.1), (0.0, -0.62), (-0.3, 0.3), (0.2, 0.2)]:
        fr = project_one(ls, p)
        assert np.hypot(*fr.normal) == pytest.approx(1.0, abs=1e-12)
        assert np.hypot(*fr.tangent) == pytest.approx(1.0, abs=1e-12)
        assert fr.normal @ fr.tangent == pytest.approx(0.0, abs=1e-12)
        assert fr.tangent == pytest.approx(
            np.array([-fr.normal[1], fr.normal[0]]))


def assert_closest_foot(ls, p, foot, tangent, d_sweep):
    # the foot is on the curve, as near to p as a dense sweep of the curve
    # finds, and the leg from p to it is orthogonal to the curve
    p = np.asarray(p, dtype=float)
    assert abs(ls.phi(foot[0], foot[1])) < 1e-10
    assert float(np.hypot(*(foot - p))) == pytest.approx(d_sweep, abs=1e-8)
    assert abs((p - foot) @ tangent) < 1e-10


def flower_sweep_distance(p):
    th = np.linspace(-np.pi, np.pi, 200_000, endpoint=False)
    rho = 0.5 + 0.1 * np.sin(8.0 * th)
    return np.hypot(rho * np.cos(th) - p[0], rho * np.sin(th) - p[1]).min()


@pytest.mark.parametrize("theta,off", [(0.1, 0.05), (1.2, -0.08),
                                       (3.34, 0.06), (-2.0, -0.05),
                                       (np.pi / 16, 0.08)])
def test_flower_projection_minimizes_distance(theta, off):
    # sweep oracle: a dense parametric sweep bounds the true closest
    # distance. Start points sit a tube-width off the curve, matching how
    # the solver is used; far points near the medial axis are out of scope.
    ls = flower_ls()
    rad = 0.5 + 0.1 * np.sin(8.0 * theta) + off
    p = (rad * np.cos(theta), rad * np.sin(theta))
    fr = project_one(ls, p)
    assert_closest_foot(ls, p, fr.foot, fr.tangent, flower_sweep_distance(p))


@pytest.mark.parametrize("p", [(0.125, -0.625), (-0.0625, -0.375),
                               (-1 / 12, -5 / 12)])
def test_flower_projection_at_petal_tip_and_valleys(p):
    # a petal tip and two valleys where 1 - kappa d at the foot is 1.73,
    # 1.71 and 0.13 (kappa 19.4, -33.1, -34.9): Newton steps that leave out
    # the factor 1 / (1 - kappa d) shrink the error too slowly to converge
    ls = flower_ls()
    fr = project_one(ls, p)
    assert_closest_foot(ls, p, fr.foot, fr.tangent, flower_sweep_distance(p))


def test_ellipse_projection_of_random_points():
    # 400 points over [-1, 1]^2, some of them near the ellipse's centre and
    # its medial axis, projected in one batch
    a, b = 0.8, 0.5
    th = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    ls = LevelSet(phi=lambda x, y: (x / a) ** 2 + (y / b) ** 2 - 1.0,
                  samples=np.column_stack([a * np.cos(th), b * np.sin(th)]))
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (400, 2))
    batch = project_to_interface(ls, pts)
    t = np.linspace(0.0, 2 * np.pi, 400_000, endpoint=False)
    ex, ey = a * np.cos(t), b * np.sin(t)
    for p, foot, tangent in zip(pts, batch.foot, batch.tangent):
        assert_closest_foot(ls, p, foot, tangent,
                            np.hypot(ex - p[0], ey - p[1]).min())


def test_curvature_sign_follows_orientation():
    # positive for a circle enclosing the minus side, negated with phi
    R = 0.5
    inward = LevelSet(phi=lambda x, y: R - np.hypot(x, y))
    outward = LevelSet(phi=lambda x, y: np.hypot(x, y) - R)
    pt = (R, 0.0)
    assert project_one(outward, pt).curvature == pytest.approx(
        1.0 / R, rel=1e-6)
    assert project_one(inward, pt).curvature == pytest.approx(
        -1.0 / R, rel=1e-6)


def test_curvature_of_ellipse_vertex():
    # analytic oracle: curvature of x^2/a^2 + y^2/b^2 = 1 at (a, 0) is a/b^2
    a, b = 0.8, 0.5
    ls = LevelSet(phi=lambda x, y: (x / a) ** 2 + (y / b) ** 2 - 1.0)
    assert project_one(ls, (a, 0.0)).curvature == pytest.approx(
        a / b**2, rel=1e-6)


def test_segment_crossing_on_vertical_line():
    ls = LevelSet(phi=lambda x, y: x - 33.0 / 70.0)
    hit = cross_one(ls, (0.0, 0.3), (1.0, 0.3))
    assert hit == pytest.approx((33.0 / 70.0, 0.3), abs=1e-14)


def test_segment_crossing_on_circle():
    ls = circle_ls()
    hit = cross_one(ls, (0.0, 0.0), (1.0, 0.0))
    assert hit == pytest.approx((0.5, 0.0), abs=1e-12)


def test_segment_crossing_returns_exact_endpoint():
    ls = circle_ls()
    hit = cross_one(ls, (0.5, 0.0), (1.0, 0.0))
    assert hit == pytest.approx((0.5, 0.0), abs=0.0)


def test_segment_crossing_rejects_same_side():
    ls = circle_ls()
    with pytest.raises(BadParams):
        cross_one(ls, (0.6, 0.0), (1.0, 0.0))


def test_projection_reports_vanishing_gradient():
    ls = LevelSet(phi=lambda x, y: x * x + y * y + 1.0)
    with pytest.raises(NonConvergence):
        project_one(ls, (0.0, 0.0))


def test_projection_from_far_point_uses_samples():
    # a start point far outside still lands on the circle thanks to the
    # nearest-sample warm start
    ls = circle_ls()
    fr = project_one(ls, (40.0, 0.0))
    assert fr.foot == pytest.approx((0.5, 0.0), abs=1e-10)
    assert math.copysign(1.0, fr.normal[0]) == 1.0


def tube_irregular_points(name, N, r):
    prob = problems.make_problem(name, {})
    g = build_tube_two_grid_2d(
        GridParams(N=N, r=r, lam=2.0, domain=prob.domain), prob.interface)
    irr = g.tags == NodeTag.FINE_IRREGULAR
    return prob.interface, np.column_stack([g.x[irr], g.y[irr]])


@pytest.mark.parametrize("name, N, r", [("flower", 40, 2),
                                        ("peskin_circle", 20, 4)])
@pytest.mark.parametrize("chunk", [geometry._SEED_CHUNK, 1000])
def test_batched_projection_matches_single_points(name, N, r, chunk,
                                                  monkeypatch):
    # every point's foot, frame and curvature are the same bits whether it
    # is projected alone or with the whole tube, and whatever the chunking
    # of the nearest-sample search
    ls, pts = tube_irregular_points(name, N, r)
    monkeypatch.setattr(geometry, "_SEED_CHUNK", chunk)
    batch = project_to_interface(ls, pts)
    assert batch.foot.shape == pts.shape and batch.curvature.shape == (
        len(pts),)
    for k in range(len(pts)):
        fr = project_to_interface(ls, pts[k:k + 1])
        assert np.array_equal(fr.foot, batch.foot[k:k + 1])
        assert np.array_equal(fr.normal, batch.normal[k:k + 1])
        assert np.array_equal(fr.tangent, batch.tangent[k:k + 1])
        assert np.array_equal(fr.curvature, batch.curvature[k:k + 1])


def test_batched_crossings_match_single_segments():
    ls = circle_ls()
    th = np.linspace(0.0, 2.0 * np.pi, 37)
    a = np.column_stack([0.3 * np.cos(th), 0.3 * np.sin(th)])
    b = np.column_stack([0.8 * np.cos(th), 0.8 * np.sin(th)])
    a[5] = (0.5, 0.0)          # an endpoint exactly on the interface
    hits = segment_crossing(ls, a, b)
    assert np.array_equal(hits[5], a[5])
    assert np.hypot(hits[:, 0], hits[:, 1]) == pytest.approx(0.5, abs=1e-14)
    for k in range(len(a)):
        assert np.array_equal(segment_crossing(ls, a[k:k + 1], b[k:k + 1]),
                              hits[k:k + 1])


def test_batch_with_one_unprojectable_point_names_it():
    # the circle's center has a vanishing finite-difference gradient
    ls = circle_ls()
    ls.samples = None
    pts = np.array([(0.7, 0.9), (0.1, -0.2), (0.0, 0.0), (-0.45, 0.05)])
    with pytest.raises(NonConvergence, match=r"point 2 \(0, 0\)"):
        project_to_interface(ls, pts)


@pytest.mark.parametrize("shape", [(2,), (3,), (1, 3), (2, 2, 2), ()])
def test_queries_take_only_point_batches(shape):
    # a single point is a batch of one; no other shape is accepted
    ls = circle_ls()
    bad = np.full(shape, 0.7)
    with pytest.raises(BadParams, match=r"\(m, 2\) batch"):
        project_to_interface(ls, bad)
    with pytest.raises(BadParams, match=r"\(m, 2\) batch"):
        segment_crossing(ls, bad, bad)


def test_empty_batches_give_empty_results():
    ls = circle_ls()
    none = np.empty((0, 2))
    fr = project_to_interface(ls, none)
    assert fr.foot.shape == fr.normal.shape == fr.tangent.shape == (0, 2)
    assert fr.curvature.shape == (0,)
    assert segment_crossing(ls, none, none).shape == (0, 2)


def test_segment_crossing_rejects_unpaired_ends():
    ls = circle_ls()
    with pytest.raises(BadParams, match="2 segment starts but 1 ends"):
        segment_crossing(ls, np.zeros((2, 2)), np.ones((1, 2)))


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is loaded only when a fitted stencil needs linprog
    code = ("import sys, twogrid; "
            "sys.exit('scipy.optimize' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0

"""Benchmark fixtures: closed forms verified against their own operators."""
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import sympy

from twogrid import problems
from twogrid.assembly import assemble
from twogrid.errors import BadParams, NoExactSolution, UnknownProblem
from twogrid.grid import GridParams, NodeTag, build_two_grid_1d
from twogrid.harness import build_grid
from twogrid.iim import JumpData


def test_registry_names():
    assert problems.problem_names() == [
        "boundary_layer_1d", "flower", "internal_layer",
        "line_interface_2d", "peskin_circle", "piecewise_kappa_1d"]


def test_unknown_problem():
    with pytest.raises(UnknownProblem):
        problems.make_problem("nope", {})


@pytest.mark.parametrize("name", problems.problem_names())
def test_selfcheck_every_fixture(name):
    # sixth-order finite differences applied to the closed-form solution
    # must reproduce f, and the prescribed jumps, to near rounding; the
    # flux jump is differenced along the projection's normal, which is
    # within 2e-10 of the flower's closed-form normal
    prob = problems.make_problem(name, {})
    rep = problems.selfcheck(prob)
    assert rep["n"] == 100
    assert rep["pde_max_rel"] < 1e-7, rep
    if "jump_max_rel" in rep:
        assert rep["jump_max_rel"] < 1e-9, rep


def test_2d_spec_needs_exactly_one_interface():
    prob = problems.make_problem("peskin_circle", {})
    base = dict(name="odd", domain=prob.domain, f=prob.f,
                boundary=prob.boundary, jumps=prob.jumps)
    for geometry in ({}, {"interface": prob.interface, "alpha": 0.3}):
        with pytest.raises(BadParams, match="exactly one of interface"):
            problems.ProblemSpec(**base, **geometry)


@pytest.mark.parametrize("name", ["piecewise_kappa_1d", "line_interface_2d"])
def test_alpha_spec_needs_jumps(name):
    prob = problems.make_problem(name, {})
    with pytest.raises(BadParams, match="alpha interface needs jumps"):
        problems.ProblemSpec(name="odd", domain=prob.domain, f=prob.f,
                             boundary=prob.boundary, alpha=prob.alpha)


def zero_field(x, y):
    return 0.0 * x


# jump data that the point and line schemes would never read
UNREAD_JUMPS = {
    "wp": JumpData(w=0.1, wp=zero_field),
    "wpp": JumpData(w=0.1, wpp=zero_field),
    "vp": JumpData(v=1.0, vp=zero_field),
    "field-w": JumpData(w=zero_field, wp=zero_field, wpp=zero_field),
    "field-v": JumpData(v=zero_field, vp=zero_field),
}


@pytest.mark.parametrize("jumps", UNREAD_JUMPS.values(), ids=UNREAD_JUMPS)
@pytest.mark.parametrize("name", ["piecewise_kappa_1d", "line_interface_2d"])
def test_alpha_spec_rejects_jumps_it_would_not_read(name, jumps):
    # the fitted pair takes scalar w and v only: a derivative would be
    # ignored, and a field would fail only inside assembly
    with pytest.raises(BadParams, match=f"{name}: an alpha interface takes "
                       "scalar jumps w and v, without wp, wpp or vp"):
        replace(problems.make_problem(name), jumps=jumps)


@pytest.mark.parametrize("name", problems.problem_names())
def test_dirichlet_trace_is_the_exact_solution(name):
    # the trace takes the node's side like f and exact, so no problem
    # restates the grid's side rule
    prob = problems.make_problem(name)
    assert prob.boundary is prob.exact


def test_jumps_need_an_interface():
    prob = problems.make_problem("boundary_layer_1d", {})
    with pytest.raises(BadParams, match="jumps need an interface"):
        problems.ProblemSpec(name="odd", domain=prob.domain, f=prob.f,
                             boundary=prob.boundary, jumps=JumpData())


@pytest.mark.parametrize("name", ["boundary_layer_1d", "piecewise_kappa_1d"])
def test_1d_spec_rejects_a_curve_interface(name):
    # the 1D mesh would ignore the curve and selfcheck would check jumps
    # on it
    peskin = problems.make_problem("peskin_circle", {})
    with pytest.raises(BadParams, match="1D problem has no interface curve"):
        replace(problems.make_problem(name, {}), interface=peskin.interface,
                jumps=peskin.jumps)


# every numeric setting of ProblemSpec, and a small cell of each problem
NUMERIC_SETTINGS = ("kappa_minus", "kappa_plus", "K", "conv", "alpha")
GUARD_CELLS = {"boundary_layer_1d": (10, 2), "piecewise_kappa_1d": (10, 2),
               "line_interface_2d": (12, 2), "peskin_circle": (20, 2),
               "flower": (20, 2), "internal_layer": (20, 2)}


def system_bytes(prob, N, r):
    sys_ = assemble(build_grid(prob, N, r), prob)
    m = sys_.matrix
    return [a.tobytes() for a in (m.data, m.indices, m.indptr, sys_.rhs)]


@pytest.mark.parametrize("setting", [f.name for f in fields(
    problems.ProblemSpec) if "float" in str(f.type)])
@pytest.mark.parametrize("name", problems.problem_names())
def test_every_numeric_setting_is_used_or_rejected(name, setting):
    # a setting that assembly would ignore is rejected when the spec is
    # built; any other changes the assembled system
    assert setting in NUMERIC_SETTINGS, f"{setting} is not guarded"
    prob = problems.make_problem(name)
    old = getattr(prob, setting)
    try:
        changed = replace(prob, **{setting: 0.25 if old is None
                                   else old + 0.25})
    except BadParams:
        return
    N, r = GUARD_CELLS[name]
    assert system_bytes(changed, N, r) != system_bytes(prob, N, r)


BAD_COEFFICIENTS = (
    [(("kappa_minus", "kappa_plus"), v, "kappa_minus must be positive")
     for v in (0.0, -1.0, float("nan"), float("inf"))]
    + [((key,), v, f"{key} must be finite")
       for key in ("K", "conv")
       for v in (float("nan"), float("inf"), -float("inf"))])


@pytest.mark.parametrize("keys, value, message", BAD_COEFFICIENTS,
                         ids=[f"{'-'.join(k)}={v}"
                              for k, v, _ in BAD_COEFFICIENTS])
@pytest.mark.parametrize("name", problems.problem_names())
def test_spec_rejects_bad_coefficients(name, keys, value, message):
    # a non-positive kappa solves to nonsense or divides by zero, and a
    # non-finite one or a non-finite K or conv ends in a singular matrix
    prob = problems.make_problem(name)
    with pytest.raises(BadParams, match=f"{name}: {message}"):
        replace(prob, **{key: value for key in keys})


def test_selfcheck_catches_wrong_rhs():
    prob = problems.make_problem("piecewise_kappa_1d", {})
    broken = problems.ProblemSpec(
        name="broken", domain=prob.domain,
        f=lambda x, y, s: 11.0 * np.asarray(x, float) ** 2,
        boundary=prob.boundary, exact=prob.exact,
        kappa_minus=prob.kappa_minus, kappa_plus=prob.kappa_plus,
        jumps=prob.jumps, alpha=prob.alpha)
    rep = problems.selfcheck(broken)
    assert rep["pde_max_rel"] > 1e-2


def test_parameter_overrides_and_validation():
    prob = problems.make_problem("piecewise_kappa_1d",
                                 {"kappa_minus": 2.0, "kappa_plus": 3.0})
    assert prob.kappa_minus == 2.0 and prob.kappa_plus == 3.0
    with pytest.raises(BadParams):
        problems.make_problem("piecewise_kappa_1d", {"kappa_minus": -1.0})
    with pytest.raises(BadParams):
        problems.make_problem("piecewise_kappa_1d", {"alpha": 1.5})
    with pytest.raises(BadParams):
        problems.make_problem("boundary_layer_1d", {"eps": 0.3})
    with pytest.raises(BadParams):
        problems.make_problem("peskin_circle", {"radius": 1.2})
    with pytest.raises(BadParams):
        problems.make_problem("flower", {"petals": 9})


# float() of a NumPy complex drops the imaginary part with only a
# ComplexWarning, which is an error here
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, params", [
    ("boundary_layer_1d", {"eps": "abc"}),
    ("peskin_circle", {"radius": None}),
    ("flower", {"kappa_plus": 1j}),
    ("piecewise_kappa_1d", {"alpha": [0.5]}),
    ("piecewise_kappa_1d", {"kappa_minus": 10**400}),
    ("flower", {"kappa_minus": np.complex128(2 + 3j)}),
    ("peskin_circle", {"radius": np.complex64(0.5)}),
])
def test_non_numeric_parameters_are_rejected(name, params):
    key, = params
    with pytest.raises(BadParams, match=f"parameter '{key}' must be a number"):
        problems.make_problem(name, params)


# every parameter of every registered problem
EVERY_PARAMETER = [
    ("boundary_layer_1d", "eps"),
    ("piecewise_kappa_1d", "alpha"),
    ("piecewise_kappa_1d", "kappa_minus"),
    ("piecewise_kappa_1d", "kappa_plus"),
    ("line_interface_2d", "alpha"),
    ("peskin_circle", "radius"),
    ("flower", "kappa_minus"),
    ("flower", "kappa_plus"),
    ("internal_layer", "eps"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("name, param", EVERY_PARAMETER)
def test_non_finite_parameters_are_rejected(name, param, value):
    with pytest.raises(BadParams):
        problems.make_problem(name, {param: value})


def test_boolean_parameters_are_rejected():
    # float(True) is 1.0, which a kappa or internal_layer's eps accepts
    assert {name for name, _ in EVERY_PARAMETER} == set(
        problems.problem_names())
    for name, param in EVERY_PARAMETER:
        for flag in (True, np.True_):
            with pytest.raises(BadParams,
                               match=f"parameter '{param}' must be a number"):
                problems.make_problem(name, {param: flag})


@pytest.mark.parametrize("value", [1e-320, -1e-320, 1e-308])
@pytest.mark.parametrize("name, param", EVERY_PARAMETER)
def test_subnormal_parameters_are_rejected_before_any_warning(name, param,
                                                              value):
    # a subnormal radius, eps or kappa has lost precision, and its
    # reciprocal overflows or nearly so; make_problem names it before any
    # arithmetic can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match=f"parameter '{param}' is "
                           "subnormal"):
            problems.make_problem(name, {param: value})


@pytest.mark.parametrize("eps", [1e-103, 1e-150, 1e-300])
def test_internal_layer_rejects_an_eps_whose_source_overflows(eps):
    with pytest.raises(BadParams, match="source overflows"):
        problems.make_problem("internal_layer", {"eps": eps})


@pytest.mark.parametrize("eps", [1e-78, 1e-102])
def test_internal_layer_rejects_an_eps_whose_corner_term_overflows(eps):
    # f stays finite at these eps, but (1 + s*s)**2 overflows at the corner
    # and f loses its second term there
    with pytest.raises(BadParams, match="source overflows"):
        problems.make_problem("internal_layer", {"eps": eps})


@pytest.mark.parametrize("eps", [1e-77, 0.01])
def test_internal_layer_source_matches_a_50_digit_laplacian_at_the_corner(
        eps):
    x, y = sympy.symbols("x y", real=True)
    e = sympy.Float(eps, 50)
    u = sympy.atan((sympy.sqrt(x**2 + y**2 + sympy.Rational(3, 4)) - 1) / e)
    lap = sympy.diff(u, x, 2) + sympy.diff(u, y, 2)
    ref = float(lap.evalf(50, subs={x: 1, y: 1}))
    f = problems.make_problem("internal_layer", {"eps": eps}).f
    assert float(f(1.0, 1.0, 1)) == pytest.approx(ref, rel=1e-12)


def test_piecewise_exact_satisfies_jump_conditions():
    prob = problems.make_problem("piecewise_kappa_1d", {})
    a = prob.alpha
    # value jump folded into the shift: [u] = 0 and [kappa u'] = 0
    um = float(prob.exact(a, 0.0, -1))
    up = float(prob.exact(a, 0.0, 1))
    assert up - um == pytest.approx(0.0, abs=1e-14)
    km, kp = prob.kappa_minus, prob.kappa_plus
    assert km * 4 * a**3 / km == pytest.approx(kp * 4 * a**3 / kp)


def test_boundary_layer_recovers_boundary_values():
    prob = problems.make_problem("boundary_layer_1d", {})
    assert float(prob.exact(0.0, 0.0, 1)) == pytest.approx(1.0, abs=1e-12)
    assert float(prob.exact(1.0, 0.0, 1)) == pytest.approx(3.0, abs=1e-12)


def test_line_interface_continuous_value():
    prob = problems.make_problem("line_interface_2d", {})
    a = prob.alpha
    for yy in (0.2, 0.7):
        um = float(prob.exact(a, yy, -1))
        up = float(prob.exact(a, yy, 1))
        assert um == pytest.approx(up, abs=1e-14)


def test_internal_layer_has_no_jumps():
    prob = problems.make_problem("internal_layer", {})
    assert prob.jumps is None
    assert prob.interface is not None
    rep = problems.selfcheck(prob)
    assert "jump_max_rel" not in rep


def test_exact_error_class_split():
    prob = problems.make_problem("piecewise_kappa_1d", {})
    g = build_two_grid_1d(GridParams(N=10, r=4, lam=2.0), alpha=prob.alpha)
    uex = np.asarray(prob.exact(g.x, g.y, g.side.astype(int)), float)
    u = uex.copy()
    # plant one known error in each class and read it back
    ic = int(np.nonzero(g.tags == NodeTag.COARSE_REGULAR)[0][0])
    if_ = int(np.nonzero(g.tags == NodeTag.FINE_REGULAR)[0][0])
    ib = int(np.nonzero(g.tags == NodeTag.BOUNDARY)[0][0])
    u[ic] += 1e-3
    u[if_] -= 2e-3
    u[ib] += 5.0   # boundary never counts
    errs = problems.exact_error(prob, g, u)
    assert errs["coarse"] == pytest.approx(1e-3)
    assert errs["fine"] == pytest.approx(2e-3)
    assert errs["interior"] == pytest.approx(2e-3)


def test_exact_error_requires_closed_form():
    prob = problems.make_problem("piecewise_kappa_1d", {})
    anon = problems.ProblemSpec(
        name="anon", domain=prob.domain, f=prob.f,
        boundary=prob.boundary, exact=None, jumps=prob.jumps,
        alpha=prob.alpha)
    g = build_two_grid_1d(GridParams(N=10, r=2, lam=2.0), alpha=prob.alpha)
    with pytest.raises(NoExactSolution):
        problems.exact_error(anon, g, np.zeros(g.n))
    with pytest.raises(NoExactSolution):
        problems.selfcheck(anon)


def test_flower_level_set_is_signed_distance_like():
    # the normalized field must vanish on the parametric curve and keep the
    # sign convention phi < 0 inside
    prob = problems.make_problem("flower", {})
    ls = prob.interface
    th = np.linspace(0.0, 2.0 * np.pi, 50)
    rho = 0.5 + 0.1 * np.sin(8.0 * th)
    on = ls.phi(rho * np.cos(th), rho * np.sin(th))
    assert np.abs(on).max() < 1e-12
    assert float(ls.phi(0.0, 0.0)) < 0.0
    assert float(ls.phi(0.9, 0.9)) > 0.0


def _flower_jumps_sympy(km, kp):
    """The flower's jump data differentiated symbolically along the curve
    and lambdified: the oracle for the closed forms in ``problems``."""
    th = sympy.Symbol("theta", real=True)
    rho = sympy.Rational(1, 2) + sympy.Rational(1, 10) * sympy.sin(8 * th)
    Tx = sympy.diff(rho * sympy.cos(th), th)
    Ty = sympy.diff(rho * sympy.sin(th), th)
    speed = sympy.sqrt(Tx**2 + Ty**2)
    nx, ny = Ty / speed, -Tx / speed          # outward normal

    w = (rho**4 - sympy.log(2 * rho) / 10) / kp - rho**2 / km
    radial_dot_n = sympy.cos(th) * nx + sympy.sin(th) * ny
    v = (4 * rho**3 - 1 / (10 * rho) - 2 * rho) * radial_dot_n
    wp = sympy.diff(w, th) / speed
    wpp = sympy.diff(wp, th) / speed
    vp = sympy.diff(v, th) / speed
    return {name: sympy.lambdify(th, expr, "numpy")
            for name, expr in
            (("w", w), ("v", v), ("wp", wp), ("wpp", wpp), ("vp", vp))}


@pytest.mark.parametrize("km,kp", [(1.0, 10.0), (50.0, 1.0)])
def test_flower_jumps_match_symbolic_derivatives(km, kp):
    jumps = problems.make_problem(
        "flower", {"kappa_minus": km, "kappa_plus": kp}).jumps
    th = np.linspace(-np.pi, np.pi, 4001)
    x, y = np.cos(th), np.sin(th)
    for name, ref in _flower_jumps_sympy(km, kp).items():
        want = ref(np.arctan2(y, x))
        got = getattr(jumps, name)(x, y)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def test_flower_run_leaves_sympy_unloaded():
    code = ("import sys, twogrid; "
            "twogrid.run_case(twogrid.make_problem('flower'), N=40, r=2); "
            "sys.exit('sympy' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


def test_selfcheck_needs_interface_samples():
    prob = problems.make_problem("peskin_circle", {})
    prob.interface.samples = None
    with pytest.raises(BadParams, match="samples"):
        problems.selfcheck(prob)

import math

import mpmath
import numpy as np
import pytest

from polydet import (
    hadamard_coth_coth_over_theta,
    hadamard_coth_over_sinh_sq,
    q_of_beta,
    q_of_beta_contour,
)
from polydet import cone, detlap, regint
from polydet.errors import NonpositiveAngle, PolydetError, ToleranceNotReached
from polydet.regint import (
    SPLIT_RADIUS,
    _coeffs_coth_coth,
    _coeffs_coth_csch2,
    _coth,
    _csch2,
)

PI = math.pi
TWO_PI = 2 * math.pi


# ---- Q(beta) closed form ----

def test_q_closed_form_values():
    assert q_of_beta(TWO_PI) == 0.0
    assert q_of_beta(PI) == pytest.approx(1 / 8, abs=1e-15)
    assert q_of_beta(4 * PI) == pytest.approx(-1 / 8, abs=1e-15)
    assert q_of_beta(2 * PI / 3) == pytest.approx(2 / 9, abs=1e-15)


def test_q_rejects_nonpositive():
    with pytest.raises(NonpositiveAngle):
        q_of_beta(0.0)
    with pytest.raises(NonpositiveAngle):
        q_of_beta_contour(-1.0)


def test_q_contour_matches_closed_form():
    for beta in (2 * PI / 3, PI, 1.5 * PI, 2 * PI + 0.1, 2 * PI - 0.1,
                 3 * PI, 5 * PI, 5.0, 0.4 * PI):
        assert q_of_beta_contour(beta) == pytest.approx(
            q_of_beta(beta), abs=1e-10), beta


def test_q_contour_subpi_pole_ladder():
    # beta = pi/3: poles at m beta for m = 1, 2 inside the strip, m = 3 on it
    beta = PI / 3
    assert q_of_beta_contour(beta) == pytest.approx(q_of_beta(beta), abs=1e-10)


# ---- Hadamard counterterm coefficients vs numerical series fit ----

def _fit_laurent(f):
    # fit f(th) th^3 = a3 + a1 th^2 + c th^4 at three radii (error O(th^6))
    import numpy as np

    ts = np.array([1e-3, 2e-3, 3e-3])
    vs = np.array([f(t) * t**3 for t in ts])
    coeff = np.linalg.solve(np.vander(ts**2, 3, increasing=True), vs)
    return coeff[0], coeff[1]


@pytest.mark.parametrize("beta", [0.8 * PI, PI, 1.7 * PI, 2.4 * PI])
def test_counterterms_match_series_fit(beta):
    a3, a1 = _coeffs_coth_csch2(beta)
    fa3, fa1 = _fit_laurent(lambda t: _coth(PI * t) * _csch2(beta * t / 2))
    assert fa3 == pytest.approx(a3, rel=1e-7)
    assert fa1 == pytest.approx(a1, rel=1e-4)

    a3, a1 = _coeffs_coth_coth(beta)
    fa3, fa1 = _fit_laurent(lambda t: _coth(PI * t) * _coth(beta * t / 2) / t)
    assert fa3 == pytest.approx(a3, rel=1e-7)
    assert fa1 == pytest.approx(a1, rel=1e-4)


def test_log_counterterm_vanishes_at_flat_angle():
    res = hadamard_coth_over_sinh_sq(TWO_PI)
    assert res.subtracted_log == pytest.approx(0.0, abs=1e-14)


# ---- finite parts ----

def test_coth_over_sinh_sq_exact_at_two_pi():
    # elementary antiderivative -coth^2(pi th)/(2 pi) gives FP = -1/(6 pi)
    res = hadamard_coth_over_sinh_sq(TWO_PI)
    assert res.finite_part == pytest.approx(-1 / (6 * PI), abs=1e-12)


@pytest.mark.parametrize("beta", [PI / 2, PI, TWO_PI, 3 * PI])
def test_finite_parts_stable_under_cutoff_halving(beta):
    half = SPLIT_RADIUS / 2
    for fp in (hadamard_coth_over_sinh_sq, hadamard_coth_coth_over_theta):
        a = fp(beta).finite_part
        b = fp(beta, split=half).finite_part
        assert abs(a - b) < 1e-8


@pytest.mark.parametrize("split", [0.0, -0.1, 0.3])
def test_split_outside_its_range_raises(split):
    # above SPLIT_RADIUS the circle sum's error estimate undercounts its
    # truncation; at 0 and below there is no circle (SPLIT_RADIUS / 2, the
    # value of ``verify hadamard``, is taken by the cutoff-halving test)
    for fp in (hadamard_coth_over_sinh_sq, hadamard_coth_coth_over_theta):
        with pytest.raises(PolydetError, match="split"):
            fp(PI, split=split)


def test_finite_part_continuity_in_beta():
    beta = PI
    a = hadamard_coth_over_sinh_sq(beta).finite_part
    b = hadamard_coth_over_sinh_sq(beta * (1 + 1e-6)).finite_part
    assert abs(a - b) < 1e-3


def _mp_finite_part(kind, beta):
    """The finite part from mpmath alone: -a3/2 + c1 d^2/2
    + int_d^1 (f - a3/t^3 - a1/t) + int_1^inf tail, with d = 1e-6 and c1,
    the first regular Taylor coefficient, read off the regular part at
    t = 1e-15 with 90 digits (a3 and a1 from the expansions of coth and
    csch^2).  The truncated c3 d^4/4 is below 1e-20 up to beta = 20 pi."""
    with mpmath.workdps(90):
        b, pi = mpmath.mpf(beta), mpmath.pi
        if kind == "coth_over_sinh_sq":
            a3, a1 = 4 / (pi * b * b), 4 * pi / (3 * b * b) - 1 / (3 * pi)

            def f(t):
                return mpmath.coth(pi * t) / mpmath.sinh(b * t / 2) ** 2

            tail = f
        else:
            a3, a1 = 2 / (pi * b), b / (6 * pi) + 2 * pi / (3 * b)

            def f(t):
                return mpmath.coth(pi * t) * mpmath.coth(b * t / 2) / t

            def tail(t):
                return f(t) - 1 / t

        def reg(t):
            return f(t) - a3 / t**3 - a1 / t

        tiny, d = mpmath.mpf("1e-15"), mpmath.mpf("1e-6")
        c1 = reg(tiny) / tiny
        # the regular part cancels 24 digits at t = d
        with mpmath.workdps(40):
            head = mpmath.quad(reg, [d, 1e-4, 0.01, 0.1, 1])
        with mpmath.workdps(20):
            rest = mpmath.quad(tail, [1, 4, 16, mpmath.inf])
        return float(-a3 / 2 + c1 * d * d / 2 + head + rest)


@pytest.mark.parametrize("beta", [0.1 * PI, 0.3 * PI, 0.7 * PI, PI, TWO_PI, 3.3 * PI,
                                  4 * PI, 6 * PI, 8 * PI, 12 * PI, 20 * PI, 40 * PI,
                                  100 * PI])
def test_finite_parts_match_mpmath(beta):
    for fp in (hadamard_coth_over_sinh_sq, hadamard_coth_coth_over_theta):
        ref = _mp_finite_part(fp.__name__.removeprefix("hadamard_"), beta)
        res = fp(beta)
        err = abs(res.finite_part - ref)
        assert err <= 1e-13 * max(abs(ref), 1.0), (fp.__name__, err)
        assert res.error_estimate >= err, (fp.__name__, res.error_estimate, err)


@pytest.mark.parametrize("beta", [12 * PI, 20 * PI, 40 * PI, 100 * PI])
def test_finite_parts_need_no_bisection(beta, monkeypatch):
    # the near panels, laid out geometrically from rho, meet the
    # tolerance at once at large angles too
    monkeypatch.setattr(regint, "MAX_PANEL_SPLITS", 0)
    for fp in (hadamard_coth_over_sinh_sq, hadamard_coth_coth_over_theta):
        assert math.isfinite(fp(beta).finite_part)


@pytest.mark.parametrize("beta", [1e-300, 1e-101, 1e101, 1e300])
def test_angle_outside_range_raises(beta):
    for f in (hadamard_coth_over_sinh_sq, hadamard_coth_coth_over_theta,
              q_of_beta, q_of_beta_contour):
        with pytest.raises(PolydetError, match="outside") as info:
            f(beta)
        assert type(info.value) is PolydetError


def test_contour_pole_bound():
    # MAX_POLES is reached near beta = (2 pi + 2)/MAX_POLES ~ 1.264e-4
    with pytest.raises(PolydetError, match="poles"):
        q_of_beta_contour(1.26e-4)
    assert len(regint._poles(1.27e-4, 0.0)) <= regint.MAX_POLES
    for beta in (1.27e-4, 1e-3):
        assert q_of_beta_contour(beta) == pytest.approx(q_of_beta(beta), rel=1e-13)


def test_split_budget_exhausted_raises(monkeypatch):
    # a 2-node rule cannot reach the finite parts' tolerance within the
    # budget of panel bisections
    monkeypatch.setattr(regint, "PANEL_NODES", 2)
    with pytest.raises(ToleranceNotReached) as info:
        hadamard_coth_over_sinh_sq(PI)
    assert info.value.partial.cell_count > 3
    assert info.value.partial.error_estimate > 1e-13


# ---- panels: bisection ----

# edges on which the smooth integrand meets the tolerance at once, and
# those on which the peak at 0 needs bisections
_SMOOTH = [0.0, 0.5, 1.0]
_PEAKED = [-1.0, 0.0, 1.0]


def _smooth(t):
    return np.exp(t)


def _peaked(t):
    return 1.0 / (t * t + 1e-4)


def _qbits(res):
    return res.value.hex(), res.error_estimate.hex(), res.cell_count


def _integral(f, edges, passes=None):
    """``regint._panel_integral`` of f on the edges; the panel count of
    each pass appended to ``passes``."""
    def counted(t):
        if passes is not None:
            passes.append(len(t))
        return f(t)

    return regint._panel_integral(counted, edges, 0.0)


def test_only_the_peaked_integrand_bisects():
    # the smooth integral keeps its 2 panels in one pass; the peaked one
    # takes more passes, each on more panels, to 14 panels
    passes = []
    smooth = _integral(_smooth, _SMOOTH, passes)
    assert passes == [2]
    assert _qbits(smooth) == ("0x1.b7e151628aed4p+0", "0x1.ece151628aed4p-50", 2)
    assert smooth.value == pytest.approx(math.e - 1.0, rel=1e-14)
    passes = []
    peaked = _integral(_peaked, _PEAKED, passes)
    assert passes[0] == 2 and len(passes) > 1 and passes == sorted(set(passes))
    assert _qbits(peaked) == ("0x1.3828c9fbbe2d3p+8", "0x1.5f44c9fbbe2d2p-42", 14)
    assert peaked.value == pytest.approx(200.0 * math.atan(100.0), rel=1e-12)


def test_budget_overrun_raises_with_that_piece(monkeypatch):
    # the peaked integral runs out of bisections; the error carries its
    # partial result
    monkeypatch.setattr(regint, "MAX_PANEL_SPLITS", 3)
    with pytest.raises(ToleranceNotReached) as info:
        _integral(_peaked, _PEAKED)
    assert _qbits(info.value.partial) == ("0x1.38292ee3d5996p+8", "0x1.500092d0b5496p+3", 4)
    assert _integral(_smooth, _SMOOTH).cell_count == 2


def test_budget_is_per_piece(monkeypatch):
    # the budget counts the bisections of one integral: the peaked one
    # converges within exactly the bisections it takes, and fails one short
    needed = _integral(_peaked, _PEAKED).cell_count - 2
    monkeypatch.setattr(regint, "MAX_PANEL_SPLITS", needed)
    assert _integral(_peaked, _PEAKED).cell_count == needed + 2
    monkeypatch.setattr(regint, "MAX_PANEL_SPLITS", needed - 1)
    with pytest.raises(ToleranceNotReached):
        _integral(_peaked, _PEAKED)


def test_contour_bisection_pinned(monkeypatch):
    # a heat kernel whose line integral goes from 8 panels to 10
    counts = []

    def counted(f, edges, *args):
        result = real(f, edges, *args)
        counts.append((len(edges) - 1, result.cell_count))
        return result

    real = regint._panel_integral
    monkeypatch.setattr(regint, "_panel_integral", counted)
    value = cone.heat_kernel_cone(
        14.061194372178415, 0.033661455089965334,
        cone.ConePoint(2.6827180134376e-05, 0.009149252600683992),
        cone.ConePoint(0.001479276294591934, 0.4123257305909409))
    assert counts == [(8, 10)]
    assert value.hex() == "0x1.0f26d7acc5421p+0"


def test_q_contour_near_line_poles():
    # a cotangent pole approaching the contour line leaves a Lorentzian
    # bump of width eps*pi; the panel hints must keep capturing it down to
    # the half-residue handover
    for eps in (1e-4, 1e-6, 1e-8, 1e-10, 0.0):
        for sgn in (1.0, -1.0):
            beta = PI * (1.0 + sgn * eps)
            dev = abs(q_of_beta_contour(beta) - q_of_beta(beta))
            assert dev < 1e-9, (eps, sgn, dev)


# ---- invalid angles ----

@pytest.mark.parametrize("bad, error", [(0.0, NonpositiveAngle), (-1.0, NonpositiveAngle),
                                        (float("nan"), NonpositiveAngle),
                                        (1e101, PolydetError)])
def test_invalid_angle_in_batch_raises_and_caches_nothing(bad, error):
    # each finite part checks its angle; the angle-term cache of ``detlap``
    # keeps the angles before the bad one and not the bad one
    for fp in (hadamard_coth_over_sinh_sq, hadamard_coth_coth_over_theta):
        with pytest.raises(error) as info:
            fp(bad)
        assert type(info.value) is error
    cache = detlap._angle_terms
    cache.cache_clear()
    with pytest.raises(error) as info:
        [cache(beta) for beta in (PI, 2.5, bad, 3 * PI)]
    assert type(info.value) is error
    assert cache.cache_info().currsize == 2
    with pytest.raises(error) as info:
        cache(bad)
    assert type(info.value) is error
    assert cache.cache_info().currsize == 2

"""Metric area of the conical sphere through its developing map.

The metric m = C prod_k |z - z_k|^(2 b_k) |dz|^2 is |omega|^2 for the
multivalued form

    omega = sqrt(C) prod_k (z - z_k)^(b_k) dz,

and its developing map f = int omega is an orientation-preserving local
isometry from the sphere, cut open along a tree through the vertices,
into the Euclidean plane (the Schwarz-Christoffel map; Driscoll and
Trefethen, Schwarz-Christoffel Mapping, 2002).  The area is the signed
area enclosed by the image of the cut's boundary, which is the Euler tour
of the tree: every edge twice, once along each side.  The two images of
an edge are congruent curves run in opposite directions (continuation
around the vertices rotates one into the other), so the regions between
each curve and its chord cancel in pairs, and the area is the shoelace
area of the chord polygon whose sides are the integrals of omega along
the tour.

* tree -- the Euclidean minimum spanning tree of the vertices; none of
  its edges passes through another vertex.
* tour -- every vertex kept on the right: at a vertex the walk turns
  clockwise to the next edge, by a full -2 pi at a leaf, and every
  arg(z - z_k) is carried along by continuity.  The walk is a depth-first
  search from vertex 0, so the second run of an edge, from v back to u,
  follows a loop around the subtree T_v beyond it, which turns the branch
  of every arg(z - z_k) of k in T_v by -2 pi: the holonomy of the
  developing map.  Its chord is the first run's times
  -exp(-2 pi i sum_(k in T_v) b_k) and is not integrated again.
* chords -- ``segment_integral``: the straight segment is split in
  halves, each integrated from its own endpoint in dyadic panels; a panel
  is split again while another vertex lies closer to it than its length.
  Only differences z - z_k enter, so a metric and its translate give the
  same digits.  The scale enters only as one power of the length of the
  segment, so no factor leaves the float range before the chord does.
* panels -- every panel, end or interior, takes its integrand at the same
  NODES Chebyshev points, both ends included (``_chebyshev``), and
  integrates their interpolant against a weight (1 + x)^b by modified
  moments (``_rule``): on the end panel b is the vertex's exponent, so
  the weight s^b holds the vertex singularity exactly, and elsewhere
  b = 0.  Only the weights depend on b, and building them solves no
  eigenproblem.

Every panel is evaluated once, on the first run of its edge.  Its error
estimate is the size of the last two Chebyshev coefficients of its
integrand, read off the same node values through two more rows of its
rule and scaled by the size of the moments; a second run has the
estimate of the first.  The chords' estimates are carried through the
chord polygon to first order and a rounding floor is added.  The work is
fixed, so the one accuracy contract, error_estimate <= REL_TOL * value,
relative at every scale, decides only whether ``area`` raises
ToleranceNotReached (with the partial result).  Everything is evaluated
in a fixed order, so results are bit-identical between runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import PolydetError, ToleranceNotReached
from .metric import PolyhedralMetric

TWO_PI = 2.0 * math.pi

NODES = 64          # Chebyshev points per panel, both ends included
# logs evaluated at once (nodes times vertices)
BATCH = 8192
# panel halvings after which a vertex on the segment is left to the estimate
MAX_SPLITS = 60
# rounding floor of the area estimate, per unit of sum |corner| |side| of
# the chord polygon (true errors reach about 3 eps per unit for b -> -1)
ROUNDING = 16.0 * np.finfo(float).eps
# the area's accuracy contract: error_estimate <= REL_TOL * area
REL_TOL = 1e-9


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    # panels evaluated: on the first runs of the tour's edges (about half the
    # panels of the whole tour), or of a regint integral
    cell_count: int


def _quadpack_binding(attr: str, module: str):
    """A module ``__getattr__`` that resolves ``attr`` to scipy's QUADPACK
    routine on first access, so importing polydet loads no scipy.  No
    polydet code calls it, and scipy is not a runtime dependency: the
    benchmark's tracer (bench/tracing.py) wraps these names to count
    QUADPACK calls and needs them to exist, so they go only together with
    that tracer's QUADPACK counters (ROADMAP.md item 4)."""
    def __getattr__(name: str):
        if name == attr:
            from scipy.integrate import quad
            return quad
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    return __getattr__


__getattr__ = _quadpack_binding("quad1d", __name__)


class Chord(NamedTuple):
    value: complex
    error: float                # estimate of |value - exact| (``_chords``)
    panels: int


# --------------------------------------------------------------------------
# one segment
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _chebyshev(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The n Chebyshev points x_j = -cos(pi j/(n - 1)) in increasing order,
    both ends included (computed as a sine, so x_0 = -1 and x_(n-1) = 1
    exactly and the set is symmetric), and the matrix that takes values at
    them to the coefficients of their interpolant in T_0 ... T_(n-1)."""
    d = n - 1
    j = np.arange(n)
    x = np.sin(np.pi * (2 * j - d) / (2 * d))
    # T_k(x_j) = cos(pi m/d) with m = k (d - j) mod 2d: -x_m for m <= d and
    # -x_(2d - m) above, so the matrix has the points' own accuracy
    m = j[:, None] * (d - j) % (2 * d)
    coef = -x[np.minimum(m, 2 * d - m)]
    # the discrete cosine sum halves its end points, the interpolant its
    # first and last coefficients
    coef[:, [0, d]] *= 0.5
    coef[[0, d]] *= 0.5
    coef *= 2.0 / d
    coef.flags.writeable = False        # cached, shared by callers
    return x, coef


@lru_cache(maxsize=256)
def _rule(n: int, b: float) -> Tuple[np.ndarray, float]:
    """Product integration for the weight (1 + x)^b on [-1, 1] at the n
    points of ``_chebyshev`` (Piessens and Branders, Math. Comp. 27, 1973;
    QUADPACK's DQMOMO):

        int (1 + x)^b g = m0 g(-1) + sum_(k >= 1) c_k mu_k,

    m0 = 2^(b+1)/(b + 1), c_k the Chebyshev coefficients of g at the
    points and mu_k = int (1 + x)^b (T_k(x) - T_k(-1)) dx, which hold no
    1/(b + 1) however close b is to -1.  They follow DQMOMO's forward
    recurrence for the moments of T_k, shifted by T_k(-1) m0.

    Returns the rows (the weights of g at the points, for the sum over
    k >= 1; then the last two coefficients times max(|mu_1|, 2), the size
    of what the interpolant leaves out and of the moments it meets) and
    m0, which ``_panel_sums`` adds after the sum so that it rounds alone."""
    top = 2.0 ** (b + 1.0)
    k, k_1, odd = _recurrence(n)
    mu_k = 2.0 * top / (b + 2.0)
    mu = [mu_k]                                 # mu_1, mu_2, ...
    for a, c, e in zip((k * (k - b - 2.0)).tolist(), (top * odd).tolist(),
                       (k_1 * (k + b + 1.0)).tolist()):
        mu_k = -(top + a * mu_k + c) / e
        mu.append(mu_k)
    coef = _chebyshev(n)[1]
    rows = np.empty((3, n))
    np.matmul(mu, coef[1:], out=rows[0])
    np.multiply(coef[-2:], max(abs(mu[0]), 2.0), out=rows[1:])
    rows.flags.writeable = False        # cached, shared by callers
    return rows, top / (b + 1.0)


@lru_cache(maxsize=None)
def _recurrence(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k, k - 1 and (-1)^k (2k - 1) for k = 2 ... n - 1, all exact: with
    them ``_rule`` forms the factors of each step of its recurrence,
    k (k - b - 2), (-1)^k 2^(b+1) (2k - 1) and (k - 1)(k + b + 1), in one
    array operation each, with the bits of the step's own arithmetic."""
    k = np.arange(2.0, n)
    factors = k, k - 1.0, (-1.0) ** k * (2.0 * k - 1.0)
    for f in factors:
        f.flags.writeable = False       # cached, shared by callers
    return factors


def _panel_sums(rows, m0, half, vals) -> np.ndarray:
    """Per panel, half its length times ``rows`` and ``m0`` of ``_rule``
    applied to its node values ``vals`` (panel, node): the weights give the
    panel's integral, with the vertex term m0 g(-1) added after the sum of
    the others, and the next rows the coefficients whose size is its error
    estimate.  ``rows`` and ``m0`` are one set for all panels or one per
    panel."""
    sums = half[:, None] * (rows @ vals[..., None])[..., 0]
    sums[:, 0] += half * m0 * vals[:, 0]
    return sums


def _panels(rho: np.ndarray) -> Tuple[List[int], List[float], List[float]]:
    """Dyadic panels [a, a + l] of s in [0, 1/2] on z = z_p + s d for every
    half, a row of ``rho`` ((z_k - z_p)/d for the other vertices, so that
    |z - z_k| = |d| |s - rho_k|): a panel is halved while one of them lies
    closer to it than its length, at most MAX_SPLITS times.  Only vertices
    closer to [0, 1/2] than 1/2, found in one array test, can split a
    panel.  Returns the half, a and l of every panel, in increasing a
    within each half."""
    x, y = rho.real, rho.imag
    near = np.hypot(np.clip(x, 0.0, 0.5) - x, y) < 0.5
    points: dict = {}
    for half, xk, yk in zip(np.nonzero(near)[0].tolist(), x[near].tolist(),
                            y[near].tolist()):
        points.setdefault(half, []).append((xk, yk))
    owner, starts, lengths = [], [], []
    for half in range(len(rho)):
        todo = [(0.0, 0.5, 0, points.get(half, []))]   # a, l, halvings, vertices
        while todo:
            a, l, depth, close = todo.pop()
            b = a + l
            close = [(xk, yk) for xk, yk in close
                     if math.hypot(min(max(xk, a), b) - xk, yk) < l]
            if close and depth < MAX_SPLITS:
                l *= 0.5
                todo += (a + l, l, depth + 1, close), (a, l, depth + 1, close)
            else:
                owner.append(half)
                starts.append(a)
                lengths.append(l)
    return owner, starts, lengths


@lru_cache(maxsize=None)
def _vertex_order(m: int) -> np.ndarray:
    """Row p: the vertices 0 ... m - 1 other than p in increasing order,
    then p."""
    order = np.array([[k for k in range(m) if k != p] + [p] for p in range(m)])
    order.flags.writeable = False       # cached, shared by callers
    return order


def _chords(zs, bs, u, v, theta_u, theta_v) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, error estimates and panel counts of the chords int
    prod_k (z - z_k)^(b_k) dz from z_u to z_v, for arrays of steps u, v
    with the rows theta_u, theta_v of branches at either end.

    A chord is two halves, each from its own end z_p to the midpoint, on
    panels of NODES Chebyshev points.  theta[p] at z_p is the branch of
    arg(z_q - z_p) and theta[k] that of arg(z_p - z_k) for k != p.  On
    z = z_p + s d, with z_k = z_p + rho_k d, the integrand of a half is

        lead s^(b_p) prod_k |rho_k|^(b_k) e^(i b_k theta_k) w_k^(b_k),
        w_k = (z - z_k)/(z_p - z_k) = 1 - s/rho_k,
        lead = |d|^(1 + sum_j b_j) e^(i (1 + b_p) theta_p),

    with every w_k on its principal branch.  Only the lead depends on the
    scale, as one power of |d|; the rest is the exponential of a sum of
    logs at every node.  The stages run over all panels at once, the logs
    in groups of about BATCH values, and every sum is a panel's own
    (``_panel_sums``) before the sum over the panels of a half, so a chord
    has the same bits whatever else is evaluated with it.  The end panel of
    a half takes the rule of the weight (1 + x)^b_p, every other panel that
    of weight 1 (``_rule``).
    """
    p, q = np.concatenate((u, v)), np.concatenate((v, u))
    theta = np.concatenate((theta_u, theta_v))
    halves, m = theta.shape
    order = _vertex_order(m)[p]                 # the others, then p
    weights = bs[order]
    bp = weights[:, -1]
    rel = zs[order[:, :-1]] - zs[p, None]       # z_k - z_p
    d = zs[q] - zs[p]
    length = np.abs(d)
    rho = rel / d[:, None]
    # log |rho_k|; where the quotient leaves the normal float range (a vertex
    # 1e308 times nearer or farther than the segment is long) from its parts
    size = np.abs(rho)
    log_rho = np.log(np.abs(rel)) - np.log(length)[:, None]
    np.log(size, out=log_rho, where=(size >= np.finfo(float).tiny) & (size < math.inf))
    owner, a, l = _panels(rho)
    # the end panel opens every half: there s^b_p = h^b_p (1 + x)^b_p, and
    # its rule's weight holds (1 + x)^b_p, so its s^b_p column takes h
    pl = p.tolist()
    rule = [pl[o] + 1 if ao == 0.0 else 0 for o, ao in zip(owner, a)]
    start = np.flatnonzero(np.array(rule))
    owner, h = np.array(owner), 0.5 * np.array(l)
    s = np.array(a)[:, None] + h[:, None] * (1.0 + _chebyshev(NODES)[0])
    power = s.copy()
    power[start] = h[start, None]
    # the rule of weight 1, then that of each vertex's (1 + x)^b
    rows, m0 = (np.array(c) for c in zip(*[_rule(NODES, b) for b in [0.0] + bs.tolist()]))

    # per half, sum_k b_k (log |rho_k| + i theta_k) and the lead, whose
    # |d|^(1 + sum_j b_j) is |d|^n |d|^f, n the integer nearest to the
    # exponent and f the rest, each to within an ulp
    branch = theta[np.arange(halves)[:, None], order]
    log_c = ((log_rho + 1j * branch[:, :-1]) * weights[:, :-1]).sum(axis=1)
    n = round(math.fsum([1.0, *bs.tolist()]))
    f = math.fsum([1.0 - n, *bs.tolist()])
    lead = length ** n * length ** f * np.exp(1j * (1.0 + bp) * branch[:, -1])
    # per node, about BATCH logs at a time, which bounds the working
    # memory: b_p log s + sum_k b_k log w_k, then that of the half
    ratio = (d[:, None] / rel)[owner, :, None]
    weights = weights[owner, None, :]
    sc = s.astype(complex)[:, None, :]          # a real-complex product is slower
    g = np.empty(s.shape, dtype=complex)
    step = max(1, BATCH // (NODES * m))
    for i in range(0, len(owner), step):
        j = slice(i, i + step)
        w = sc[j] * ratio[j]                    # panel, vertex, node
        np.subtract(1.0, w, out=w)
        logs = np.empty((len(w), m, NODES))
        np.abs(w, out=logs[:, :-1])
        logs[:, -1] = power[j]
        np.log(logs, out=logs)
        np.matmul(weights[j], logs, out=g.real[j, None, :])
        np.matmul(weights[j, :, :-1], np.angle(w), out=g.imag[j, None, :])
    g += log_c[owner, None]
    np.exp(g, out=g)
    sums = _panel_sums(rows[rule], m0[rule], h, g)
    values = lead * np.add.reduceat(sums[:, 0], start)
    errors = np.abs(lead) * np.add.reduceat(np.abs(sums[:, 1:]).sum(axis=1), start)
    count = np.bincount(owner, minlength=halves)
    k = len(u)
    return values[:k] - values[k:], errors[:k] + errors[k:], count[:k] + count[k:]


def _subtended(z, u: int, v: int) -> List[float]:
    """For the step from z_u to z_v (z a sequence of complex): per vertex k
    the angle arg((z_v - z_k)/(z_u - z_k)) the step subtends at it, by
    which the branch of arg(z - z_k) moves along it (below pi in size, as
    no vertex lies on a step), and 0 at u and v."""
    zu, zv = z[u], z[v]
    return [0.0 if k == u or k == v else cmath.phase((zv - zk) / (zu - zk))
            for k, zk in enumerate(z)]


def _principal(z, u: int, v: int) -> List[float]:
    theta = [cmath.phase(z[u] - zk) for zk in z]
    theta[u] = cmath.phase(z[v] - z[u])
    return theta


def segment_integral(zs, bs, u: int, v: int,
                     theta: Optional[np.ndarray] = None) -> Chord:
    """int prod_k (z - z_k)^(b_k) dz along the straight segment from z_u to
    z_v (0-based indices into the arrays ``zs``, ``bs``).

    ``theta[k]`` is the branch of arg(z_u - z_k) for k != u and
    ``theta[u]`` that of arg(z_v - z_u), from which every factor is
    continued along the segment; None takes principal values.
    """
    z = [complex(c) for c in zs]
    if theta is None:
        theta = _principal(z, u, v)
    theta = np.asarray(theta, dtype=float)
    # a chord outside the float range comes out inf or nan; callers check
    with np.errstate(over="ignore", invalid="ignore"):
        values, errors, panels = _chords(
            np.array(z), np.asarray(bs, dtype=float), np.array([u]), np.array([v]),
            theta[None], (theta + np.array(_subtended(z, u, v)))[None])
    return Chord(complex(values[0]), float(errors[0]), int(panels[0]))


# --------------------------------------------------------------------------
# tree, tour, area
# --------------------------------------------------------------------------

def _spanning_tree(z) -> List[List[int]]:
    """Adjacency lists of the Euclidean minimum spanning tree of the points
    z (Prim): the nearest point outside the tree joins it next, the lowest
    index among equally near ones, and a point's nearest tree point
    changes only to a strictly nearer one."""
    adj: List[List[int]] = [[] for _ in z]
    best = [abs(zk - z[0]) for zk in z]
    parent = [0] * len(z)
    outside = list(range(1, len(z)))
    while outside:
        k = min(outside, key=best.__getitem__)      # the first of equals
        outside.remove(k)
        adj[k].append(parent[k])
        adj[parent[k]].append(k)
        for j in outside:
            dist = abs(z[j] - z[k])
            if dist < best[j]:
                best[j], parent[j] = dist, k
    return adj


class Tour(NamedTuple):
    u: np.ndarray               # step t runs from z_u[t]
    v: np.ndarray               # to z_v[t]
    at_u: np.ndarray            # the row of theta at z_u (``segment_integral``)
    at_v: np.ndarray            # and the one carried along the step to z_v
    first: np.ndarray           # whether the step is its edge's first run
    edge: np.ndarray            # the edge's number, in order of first runs
    factor: np.ndarray          # the chord is factor times the first run's


def _tour(z, bs, adj) -> Tour:
    """The Euler tour with every vertex on the right, starting along the
    first edge of vertex 0: at a vertex the walk turns clockwise to the
    next edge, by a full 2 pi at a leaf, and theta at z_v is carried along
    the step, before that turn.  The rows of theta are one running sum of
    these moves from the principal branches at z_0.

    The walk is a depth-first search from vertex 0, so an edge is run from
    u to v and later back, after a loop around the subtree T_v beyond it
    (v included) that turns every arg(z - z_k) of k in T_v by -2 pi and no
    other.  On the way back the integrand is the first run's times
    exp(-2 pi i sum_(k in T_v) b_k) and the segment is run the other way,
    so the chord is the first run's times

        -exp(-2 pi i sum_(k in T_v) (b_k - round(b_k))),

    which takes only the fraction of each b_k, as whole turns leave the
    factor as it is, and the fraction of their sum."""
    heading = {(i, j): cmath.phase(z[j] - z[i]) for i, nb in enumerate(adj) for j in nb}
    us, vs, at_u, at_v, first, edge, factor = [], [], [], [], [], [], []
    open_runs = []              # [u, v, edge, sum over T_v] of edges run once
    u, v = 0, adj[0][0]
    theta = _principal(z, u, v)
    for _ in heading:
        turn = [(heading[v, u] - heading[v, w]) % TWO_PI or TWO_PI for w in adj[v]]
        j = turn.index(min(turn))
        us.append(u)
        vs.append(v)
        at_u.append(theta)
        theta = [t + a for t, a in zip(theta, _subtended(z, u, v))]
        at_v.append(theta)
        theta = theta.copy()
        theta[v] -= turn[j]
        if open_runs and open_runs[-1][:2] == [v, u]:
            _, _, e, total = open_runs.pop()
            if open_runs:
                open_runs[-1][3] += total
            first.append(False)
            edge.append(e)
            factor.append(cmath.rect(-1.0, -TWO_PI * (total - round(total))))
        else:
            open_runs.append([u, v, sum(first), bs[v] - round(bs[v])])
            edge.append(open_runs[-1][2])
            first.append(True)
            factor.append(1.0)
        u, v = v, adj[v][j]
    return Tour(np.array(us), np.array(vs), np.array(at_u), np.array(at_v), np.array(first),
                np.array(edge), np.array(factor, dtype=complex))


def _tour_chords(z, bs) -> Tuple[np.ndarray, np.ndarray, int]:
    """The chord of every step of the tour and its error estimate, and the
    panels evaluated: the first run of an edge is integrated (``_chords``)
    and the second is the first times its factor, with the same estimate."""
    tour = _tour(z, bs, _spanning_tree(z))
    once = tour.first
    values, errors, panels = _chords(np.array(z, dtype=complex), np.array(bs, dtype=float),
                                     tour.u[once], tour.v[once], tour.at_u[once],
                                     tour.at_v[once])
    return tour.factor * values[tour.edge], errors[tour.edge], int(panels.sum())


def _shoelace(chords, errors) -> Tuple[float, float]:
    """Signed area of the polygon with these sides from the origin, and a
    bound on its error: each side's error times the size of the area's
    derivative in that side, half the distance from the side's start to
    the first corner plus half that from its end to the last, and
    ROUNDING times sum |corner| |side| for the rounding."""
    ends = np.cumsum(chords)
    corners = np.concatenate(([0.0], ends[:-1]))
    lever = 0.5 * (np.abs(corners) + np.abs(ends[-1] - ends))
    terms = 0.5 * (np.conj(corners) * chords).imag
    # ROUNDING is a power of two, so scaling the terms first is exact and keeps
    # the sum in range; fsum refuses inf - inf and a sum past the float range
    try:
        return (math.fsum(terms), math.fsum(lever * errors)
                + math.fsum(ROUNDING * np.abs(corners) * np.abs(chords)))
    except (OverflowError, ValueError):     # the polygon is past the float range
        return math.inf, math.inf


def area(m: PolyhedralMetric) -> QuadResult:
    """Total area of the conical sphere, int_C C prod |z-z_k|^(2 b_k) dA.

    Raises PolydetError unless the area is a positive finite float, then
    ToleranceNotReached unless it meets the accuracy contract."""
    # an area outside the float range overflows or underflows here; the
    # range check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        chords, errors, panels = _tour_chords(m.positions(), m.exponents())
        value, error = _shoelace(chords, errors)
    result = QuadResult(m.scale * value, m.scale * error, panels)
    if not 0.0 < result.value < math.inf:
        why = ": the area is outside the float range" if result.value in (0.0, math.inf) else ""
        raise PolydetError(f"area {result.value!r} is not a positive finite float{why}")
    if not result.error_estimate <= REL_TOL * result.value:
        raise ToleranceNotReached(
            f"area error estimate {result.error_estimate:.3e} exceeds "
            f"REL_TOL * area = {REL_TOL * result.value:.3e}", partial=result)
    return result

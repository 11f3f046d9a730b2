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
  is split again while another vertex lies closer to it than its length
  and its halves are distinct floats.  Only differences z - z_k enter,
  so a metric and its translate give the same digits.  The scale enters
  only as one power of the length of the segment, so no factor leaves
  the float range before the chord does.
  The first runs of all edges are evaluated together (``_chords``): the
  per-half set-up and the panel bookkeeping in Python, the (half, vertex)
  grid and the nodes of all panels in a few numpy operations, and a
  chord has the same bits whatever is evaluated with it.
* panels -- every panel, end or interior, takes its integrand at the same
  NODES = 33 Chebyshev points, both ends included (``_chebyshev``), and
  integrates their interpolant against a weight (1 + x)^b by modified
  moments (``_rule``, a recurrence in Python floats): on the end panel b
  is the vertex's exponent, so the weight s^b holds the vertex
  singularity exactly, and elsewhere b = 0.  Only the weights depend on
  b, and building them solves no eigenproblem.  Mapped to [-1, 1], a
  panel has no vertex nearer than its length 2 (short of the float
  spacing), so the rest of the integrand is analytic inside the Bernstein
  ellipse rho = 2 + sqrt(5), of minor semi-axis 2: NODES points reach
  rho^-(NODES - 1), about 1e-20.  ``regint`` takes the same rule.

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
import itertools
import math
import operator
import sys
from functools import lru_cache
from typing import List, NamedTuple, Tuple, Union

import numpy as np

from .errors import DuplicateVertex, PolydetError, ToleranceNotReached
from .metric import PolyhedralMetric

TWO_PI = 2.0 * math.pi

NODES = 33          # Chebyshev points per panel, both ends included
BATCH = 8192        # logs evaluated at once (nodes times vertices)
# rounding floor of the area estimate, per unit of sum |corner| |side| of
# the chord polygon (true errors reach about 3 eps per unit for b -> -1),
# and of a chord's estimate per unit of |chord|
ROUNDING = 16.0 * sys.float_info.epsilon
REL_TOL = 1e-9      # the area's accuracy contract: error_estimate <= REL_TOL * area
# distances within this factor of each other may be in either order once
# rounded: abs and the difference it takes round each by about 2 eps
NEAR_TIE = 1.0 + 8.0 * float(np.finfo(float).eps)


class QuadResult(NamedTuple):
    value: Union[float, complex]    # complex for a chord (``segment_integral``)
    error_estimate: float
    # panels evaluated: on the first runs of the tour's edges (about half the
    # panels of the whole tour), or of a chord or a regint integral
    cell_count: int


quad1d = None   # a placeholder: bench/tracing.py wraps this name, and nothing calls it


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
    1/(b + 1) however close b is to -1: DQMOMO's forward recurrence for
    the moments of T_k, shifted by T_k(-1) m0, in Python floats.

    Returns the rows (the weights of g at the points, for the sum over
    k >= 1; then the last two coefficients times max(|mu_1|, 2), the size
    of what the interpolant leaves out and of the moments it meets) and
    m0, which ``_panel_sums`` adds after the sum so that it rounds alone."""
    top = 2.0 ** (b + 1.0)
    mu_k = 2.0 * top / (b + 2.0)
    mu = [mu_k]                                 # mu_1, mu_2, ...
    for k, k_1, odd in _recurrence(n):
        mu_k = -(top + k * (k - b - 2.0) * mu_k + top * odd) / (k_1 * (k + b + 1.0))
        mu.append(mu_k)
    coef = _chebyshev(n)[1]
    rows = np.empty((3, n))
    np.matmul(mu, coef[1:], out=rows[0])
    np.multiply(coef[-2:], max(abs(mu[0]), 2.0), out=rows[1:])
    rows.flags.writeable = False        # cached, shared by callers
    return rows, top / (b + 1.0)


@lru_cache(maxsize=None)
def _recurrence(n: int) -> Tuple[Tuple[float, float, float], ...]:
    """(k, k - 1, (-1)^k (2k - 1)) for k = 2 ... n - 1, all exact: from
    them ``_rule`` forms the factors of each step of its recurrence,
    k (k - b - 2), (-1)^k 2^(b+1) (2k - 1) and (k - 1)(k + b + 1)."""
    return tuple((float(k), k - 1.0, (-1.0) ** k * (2.0 * k - 1.0)) for k in range(2, n))


def _panel_sums(rows, m0, half, vals) -> np.ndarray:
    """Per panel, half its length times ``rows`` and ``m0`` of ``_rule``
    applied to its node values ``vals`` (panel, node): the weights give the
    panel's integral, with the vertex term m0 g(-1) added after the sum of
    the others, and the next rows the coefficients whose size is its error
    estimate; one set of ``rows`` and ``m0`` for all panels or one each."""
    sums = half[:, None] * (rows @ vals[..., None])[..., 0]
    sums[:, 0] += half * m0 * vals[:, 0]
    return sums


def _panels(rho: np.ndarray) -> Tuple[List[int], List[float], List[float]]:
    """Dyadic panels [a, a + l] of s in [0, 1/2] on z = z_p + s d for every
    half, a row of ``rho`` ((z_k - z_p)/d for the other vertices, so that
    |z - z_k| = |d| |s - rho_k|): a panel is halved while one of them lies
    closer to it than its length and its halves are distinct floats, so a
    vertex on the segment stops the halving at the float spacing, at
    most about 1075 halvings at s = 0.  Only vertices closer to [0, 1/2]
    than 1/2, found in one array test, can split a panel.  Returns the
    half, a and l of every panel, in increasing a within each half."""
    x = rho.real
    near = np.hypot(np.minimum(np.maximum(x, 0.0), 0.5) - x, rho.imag) < 0.5
    points: dict = {}
    for half, rho_k in zip(np.nonzero(near)[0].tolist(), rho[near].tolist()):
        points.setdefault(half, []).append((rho_k.real, rho_k.imag))
    owner, starts, lengths = [], [], []
    for half in range(len(rho)):
        todo = [(0.0, 0.5, points.get(half, []))]   # a, l, vertices
        while todo:
            a, l, close = todo.pop()
            b = a + l
            close = [(xk, yk) for xk, yk in close
                     if math.hypot(min(max(xk, a), b) - xk, yk) < l]
            if close and a < a + 0.5 * l < b:
                l *= 0.5
                todo += (a + l, l, close), (a, l, close)
            else:
                owner.append(half)
                starts.append(a)
                lengths.append(l)
    return owner, starts, lengths


@lru_cache(maxsize=None)
def _vertex_order(m: int) -> np.ndarray:
    """Row p: the vertices 0 ... m - 1 other than p in increasing order, then p."""
    order = np.array([[k for k in range(m) if k != p] + [p] for p in range(m)])
    order.flags.writeable = False       # cached, shared by callers
    return order


def _chords(z, bs, u, v, theta_u, theta_v) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Values, error estimates and panel counts of the chords int
    prod_k (z - z_k)^(b_k) dz from z_u to z_v, for lists of steps u, v
    with the rows theta_u, theta_v of branches at either end (z a sequence
    of complex, bs one of float, the rows lists of float).

    A chord is two halves, each from its own end z_p to the midpoint, on
    panels of NODES Chebyshev points.  theta[p] at z_p is the branch of
    arg(z_q - z_p) and theta[k] that of arg(z_p - z_k) for k != p.  On
    z = z_p + s d, with z_k = z_p + rho_k d, the integrand of a half is

        lead s^(b_p) prod_k |rho_k|^(b_k) e^(i b_k theta_k) w_k^(b_k),
        w_k = (z - z_k)/(z_p - z_k) = 1 - s/rho_k,
        lead = |d|^(1 + sum_j b_j) e^(i (1 + b_p) theta_p),

    with every w_k on its principal branch.  Only the lead depends on the
    scale, as one power of |d|; the rest is the exponential of a sum of
    logs at every node.

    The numpy calls go where there are many values.  In Python floats: the
    steps, d = z_q - z_p, the phase of each lead and the row of the other
    branches, the check for a vertex nearer than the float range allows,
    the panels (``_panels``) and which rule each takes.  In numpy, one
    array operation each for all halves: the (half, vertex) grid of
    z_k - z_p, rho_k, d/(z_k - z_p), |z_k - z_p|, log |rho_k| and the sum
    log_c over it of b_k (log |rho_k| + i theta_k); the nodes of all panels
    at once, their logs in groups of about BATCH values; and the few
    per-half values that numpy and Python round apart: |d|, its powers and
    the complex products with the lead (numpy's may fuse a multiply and an
    add).  Every sum is a panel's own (``_panel_sums``) before the sum over
    the panels of a half, so a chord has the same bits whatever else is
    evaluated with it.  The end panel of a half takes the rule of the
    weight (1 + x)^b_p, every other panel that of weight 1 (``_rule``).

    Returns the values and estimates as arrays, the panel counts as a list.
    """
    p, q, theta = u + v, v + u, theta_u + theta_v
    m = len(z)
    # per half, d, |d| and the lead, whose |d|^(1 + sum_j b_j) is |d|^n |d|^f,
    # n the integer nearest to the exponent and f the rest, each to within an
    # ulp
    d = np.array([z[j] - z[i] for i, j in zip(p, q)])
    length = np.abs(d)
    n = round(math.fsum([1.0, *bs]))
    f = math.fsum([1.0 - n, *bs])
    lead = length ** n * length ** f if f else length ** n    # |d|^0 is 1
    lead = lead * np.array([cmath.rect(1.0, (1.0 + bs[i]) * row[i]) for i, row in zip(p, theta)])

    # the (half, vertex) grid, the vertices k != p in increasing order
    order = _vertex_order(m).take(p, 0)         # the others, then p
    at = np.array(z)[order]
    rel = at[:, :-1] - at[:, -1:]               # z_k - z_p
    col = d[:, None]
    rho = rel / col
    dist = np.abs(rel)
    # the nodes take 1/rho_k, whose size leaves the float range for a vertex
    # 1e308 times nearer to z_p than the segment is long (0 inf = nan at s = 0)
    for half, (span, gap) in enumerate(zip(length.tolist(),
                                            np.minimum.reduce(dist, axis=1).tolist())):
        if gap == 0.0 or span / gap == math.inf:
            k = np.flatnonzero(np.isinf(span / dist[half]))[0]
            pair = sorted((p[half] + 1, int(order[half, k]) + 1))
            raise PolydetError(
                f"vertices {pair[0]} and {pair[1]} are {dist[half, k]:.3g} apart, closer "
                f"than the float range allows beside the chord from vertex {p[half] + 1} "
                f"to vertex {q[half] + 1}, {span:.3g} long")
    # log |rho_k|; where the quotient leaves the normal float range (a vertex
    # 1e308 times nearer or farther than the segment is long) from its parts
    size = np.abs(rho)
    terms = np.empty(rho.shape, dtype=complex)  # log |rho_k| + i theta_k
    log_rho = np.log(size, out=terms.real)
    if not (np.minimum.reduce(size, axis=None) >= sys.float_info.min
            and np.maximum.reduce(size, axis=None) < math.inf):
        normal = (size >= sys.float_info.min) & (size < math.inf)
        np.copyto(log_rho, np.log(dist) - np.log(length)[:, None], where=~normal)
    terms.imag = [row[:i] + row[i + 1:] for row, i in zip(theta, p)]
    weights = np.array(bs)[order]
    log_c = np.add.reduce(np.multiply(terms, weights[:, :-1], out=terms), axis=1)

    # the panels, each half's in increasing s; the end panel opens every
    # half: there s^b_p = h^b_p (1 + x)^b_p, and its rule's weight holds
    # (1 + x)^b_p, so its s^b_p column takes h
    owner, a, l = _panels(rho)
    start = [i for i, ai in enumerate(a) if ai == 0.0]
    flat, ends = _rule(NODES, 0.0), {i: _rule(NODES, bs[i]) for i in set(p)}
    rules = [ends[p[o]] if ai == 0.0 else flat for o, ai in zip(owner, a)]
    h = 0.5 * np.array(l)
    corner = np.array(a)[:, None]
    s = corner + h[:, None] * (1.0 + _chebyshev(NODES)[0])
    power = np.where(corner == 0.0, h[:, None], s)

    # per node, about BATCH logs at a time, which bounds the working
    # memory: b_p log s + sum_k b_k log w_k, then that of the half
    ratio = (col / rel).take(owner, 0)[:, :, None]
    weights = weights.take(owner, 0)[:, None, :]
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
        np.matmul(weights[j, :, :-1], np.arctan2(w.imag, w.real), out=g.imag[j, None, :])
    g += log_c.take(owner)[:, None]
    np.exp(g, out=g)
    sums = _panel_sums(np.array([r for r, _ in rules]), np.array([c for _, c in rules]), h, g)
    values = lead * np.add.reduceat(sums[:, 0], start)
    errors = np.abs(lead) * np.add.reduceat(np.add.reduce(np.abs(sums[:, 1:]), axis=1), start)
    count = [j - i for i, j in zip(start, start[1:] + [len(owner)])]
    k = len(u)
    return values[:k] - values[k:], errors[:k] + errors[k:], [i + j for i, j in zip(count, count[k:])]


def _phase(w: complex) -> float:
    """arg w; cmath.phase raises OverflowError where it underflows (1000 + 1e-322 i)."""
    return math.atan2(w.imag, w.real)


def _carried(z, u: int, v: int, theta: List[float]) -> List[float]:
    """The row of branches ``theta`` at z_u carried along the step to z_v
    (z a sequence of complex): per vertex k it moves by the angle
    arg((z_v - z_k)/(z_u - z_k)) that the step subtends at it (below pi in
    size, as no vertex lies on a step), and by 0 at u and v."""
    zu, zv = z[u], z[v]
    return [t + (0.0 if k == u or k == v else _phase((zv - zk) / (zu - zk)))
            for k, (t, zk) in enumerate(zip(theta, z))]


def _principal(z, u: int, v: int) -> List[float]:
    theta = [_phase(z[u] - zk) for zk in z]
    theta[u] = _phase(z[v] - z[u])
    return theta


def segment_integral(zs, bs, u: int, v: int) -> QuadResult:
    """int prod_k (z - z_k)^(b_k) dz along the straight segment from z_u to
    z_v (0-based indices into the sequences ``zs``, ``bs``), every factor
    continued along the segment from its principal value at z_u: the
    branch of arg(z_u - z_k) for k != u, and of arg(z_v - z_u) for u.
    PolydetError unless u and v are two distinct integer indices, there is
    one exponent per point, the exponents' sizes have a finite sum, and
    both end exponents b are above -1, where the integral converges, with
    2^(b + 1) and the moments of its rule finite floats.  DuplicateVertex
    if another point sits on z_u or z_v, and PolydetError if one is nearer
    to it than the float range allows beside the segment (``_chords``);
    both name the points 0-based.  PolydetError if the chord or its
    estimate is not finite: past the float range, or through another
    point (a log of 0 at a node).  The estimate is the panels' plus the
    rounding floor ROUNDING |chord|.
    """
    z, bs = [complex(c) for c in zs], [float(b) for b in bs]
    try:
        u, v = operator.index(u), operator.index(v)
    except TypeError:
        raise PolydetError(f"point indices must be integers, got {u!r} and {v!r}") from None
    if not (0 <= u < len(z) and 0 <= v < len(z) and u != v):
        raise PolydetError(f"need two distinct points of 0..{len(z) - 1}, got {u} and {v}")
    if len(bs) != len(z):
        raise PolydetError(f"need one exponent per point: {len(z)} points, "
                           f"{len(bs)} exponents")
    if not math.isfinite(sum(map(abs, bs))):      # inf, nan, or past the float range
        raise PolydetError(f"need exponents whose sizes have a finite sum, got {bs}")
    for end in (u, v):
        if not bs[end] > -1.0:
            raise PolydetError(f"the integral diverges at point {end}, whose exponent "
                               f"{bs[end]!r} is not above -1")
        with np.errstate(over="ignore", invalid="ignore"):     # moments past 2^(b + 2)
            finite = (bs[end] + 1.0 < sys.float_info.max_exp
                      and np.isfinite(_rule(NODES, bs[end])[0]).all())
        if not finite:
            raise PolydetError(f"the weight 2^(b + 1) of point {end}'s exponent "
                               f"{bs[end]!r} or a moment of its rule is past the float range")
    span = math.hypot((z[v] - z[u]).real, (z[v] - z[u]).imag)     # inf past the range
    for end in (u, v):
        for k, zk in enumerate(z):
            gap = math.hypot((zk - z[end]).real, (zk - z[end]).imag)
            if k != end and (gap == 0.0 or span / gap == math.inf):
                i, j = sorted((k, end))
                if gap == 0.0:
                    raise DuplicateVertex(f"points {i} and {j} (0-based) share position {zk}")
                raise PolydetError(
                    f"points {i} and {j} (0-based) are {gap:.3g} apart, closer than the float "
                    f"range allows beside the segment from point {u} to point {v}, "
                    f"{span:.3g} long")
    theta = _principal(z, u, v)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values, errors, panels = _chords(z, bs, [u], [v], [theta],
                                         [_carried(z, u, v, theta)])
    value = complex(values[0])
    # ROUNDING |chord|, scaled first so that abs stays inside the float range
    error = float(errors[0]) + abs(ROUNDING * value)
    if not (cmath.isfinite(value) and math.isfinite(error)):
        raise PolydetError(f"the chord from point {u} to point {v}, {value!r} with error "
                           f"estimate {error!r}, is not a finite float")
    return QuadResult(value, error, panels[0])


# --------------------------------------------------------------------------
# tree, tour, area
# --------------------------------------------------------------------------

def _spanning_tree(z) -> List[List[int]]:
    """Adjacency lists of the Euclidean minimum spanning tree of the points
    z (Prim): the nearest point outside the tree joins it next, the lowest
    index among equally near ones, and a point's nearest tree point
    changes only to a strictly nearer one.  Distances that round to within
    a factor NEAR_TIE of each other are equally near unless one edge runs
    through the far end of the other (``_in_line``), which is then nearer."""
    adj: List[List[int]] = [[] for _ in z]
    best = [abs(zk - z[0]) for zk in z]
    parent = [0] * len(z)
    outside = list(range(1, len(z)))
    while outside:
        near = best[min(outside, key=best.__getitem__)] * NEAR_TIE
        k, *ties = [j for j in outside if best[j] <= near]
        for j in ties:
            if _in_line(z, j, parent[j], k, parent[k]):
                k = j
        outside.remove(k)
        adj[k].append(parent[k])
        adj[parent[k]].append(k)
        for j in outside:
            dist = abs(z[j] - z[k])
            if dist <= best[j] * NEAR_TIE and (dist * NEAR_TIE < best[j]
                                               or _in_line(z, j, k, j, parent[j])):
                best[j], parent[j] = dist, k
    return adj


def _in_line(z, j: int, p: int, x: int, q: int) -> bool:
    """Whether |z_j - z_p| < |z_x - z_q| with the difference of the two
    edges along them: P = ((z_j - z_x) - (z_p - z_q)) conj((z_j - z_p) +
    (z_x - z_q)) has Re P = |z_j - z_p|^2 - |z_x - z_q|^2, and Im P is 0
    to within rounding.  For edges with an end in common the first factor
    is one rounded difference, and the second edge runs through the free
    end of the first."""
    lhs = (z[j] - z[x]) - (z[p] - z[q])
    rhs = (z[j] - z[p]) + (z[x] - z[q])
    product = lhs * rhs.conjugate()
    return product.real < 0.0 and abs(product.imag) <= (NEAR_TIE - 1.0) * abs(lhs) * abs(rhs)


def _tour(z, bs, adj) -> Tuple[List[int], List[int], List[List[float]], List[List[float]],
                              List[int], List[complex]]:
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
    factor as it is, and the fraction of their sum.

    Returns plain lists, the walk being Python floats throughout: per
    edge, in order of first runs, u, v and the rows of theta at z_u
    (``segment_integral``) and carried along the step to z_v; per step,
    its edge and the factor of its chord over the first run's."""
    heading = [[_phase(z[j] - z[i]) for j in nb] for i, nb in enumerate(adj)]
    us, vs, at_u, at_v, edge, factor = [], [], [], [], [], []
    open_runs = []              # [u, v, edge, sum over T_v] of edges run once
    u, v = 0, adj[0][0]
    theta = _principal(z, u, v)
    for _ in range(2 * len(z) - 2):
        back = heading[v][adj[v].index(u)]
        turns = [(back - h) % TWO_PI or TWO_PI for h in heading[v]]
        turn = min(turns)
        j = turns.index(turn)
        moved = _carried(z, u, v, theta)
        if open_runs and open_runs[-1][0] == v and open_runs[-1][1] == u:
            _, _, e, total = open_runs.pop()
            if open_runs:
                open_runs[-1][3] += total
            edge.append(e)
            factor.append(cmath.rect(-1.0, -TWO_PI * (total - round(total))))
            theta = moved
        else:
            open_runs.append([u, v, len(us), bs[v] - round(bs[v])])
            edge.append(len(us))
            factor.append(1.0)
            us.append(u)
            vs.append(v)
            at_u.append(theta)
            at_v.append(moved)
            theta = moved.copy()
        theta[v] -= turn
        u, v = v, adj[v][j]
    return us, vs, at_u, at_v, edge, factor


def _tour_chords(z, bs) -> Tuple[np.ndarray, np.ndarray, int]:
    """The chord of every step of the tour and its error estimate, and the
    panels evaluated (z and bs sequences of complex and float): the first
    run of an edge is integrated (``_chords``) and the second is the first
    times its factor, with the same estimate."""
    u, v, at_u, at_v, edge, factor = _tour(z, bs, _spanning_tree(z))
    values, errors, panels = _chords(z, bs, u, v, at_u, at_v)
    return np.array(factor) * values[edge], errors[edge], sum(panels)


def _shoelace(chords, errors) -> Tuple[float, float]:
    """Signed area of the polygon with these sides (an array) from the
    origin, and a bound on its error: each side's error times the size of
    the area's derivative in that side, half the distance from the side's
    start to the first corner plus half that from its end to the last, and
    ROUNDING times sum |corner| |side| for the rounding.

    The corners, the sums and the bound are Python floats; the cross
    products conj(corner) side are numpy's, one array operation, because
    its complex product may fuse a multiply and an add and so round apart
    from Python's."""
    sides = chords.tolist()
    ends = list(itertools.accumulate(sides))
    corners = [0j, *ends[:-1]]
    last = ends[-1]
    terms = (np.conj(corners) * chords).imag.tolist()
    # ROUNDING is a power of two, so scaling the terms first is exact and keeps
    # the sum in range; fsum refuses inf - inf and a sum past the float range,
    # and abs a size past it
    try:
        value = math.fsum([0.5 * t for t in terms])
        error = (math.fsum([0.5 * (abs(c) + abs(last - e)) * r
                            for c, e, r in zip(corners, ends, errors.tolist())])
                 + math.fsum([ROUNDING * abs(c) * abs(s) for c, s in zip(corners, sides)]))
    except (OverflowError, ValueError):     # the polygon is past the float range
        return math.inf, math.inf
    return value, error


def area(m: PolyhedralMetric) -> QuadResult:
    """Total area of the conical sphere, int_C C prod |z-z_k|^(2 b_k) dA.

    Raises PolydetError unless the area is a positive finite float, then
    ToleranceNotReached unless it meets the accuracy contract."""
    # an area outside the float range overflows or underflows here, and a
    # chord through a vertex takes a log of 0; the range check below
    # reports either
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        chords, errors, panels = _tour_chords(m.positions(), m.exponents())
        value, error = _shoelace(chords, errors)
    value, error = m.scale * value, m.scale * error
    if value < sys.float_info.min:
        # a subnormal product keeps fewer digits: its rounding, and that of
        # the estimate's product, are each at most half an ulp
        error += math.ulp(value)
    result = QuadResult(value, error, panels)
    if not 0.0 < result.value < math.inf:
        why = ": the area is outside the float range" if result.value in (0.0, math.inf) else ""
        raise PolydetError(f"area {result.value!r} is not a positive finite float{why}")
    if not result.error_estimate <= REL_TOL * result.value:
        raise ToleranceNotReached(
            f"area error estimate {result.error_estimate:.3e} exceeds "
            f"REL_TOL * area = {REL_TOL * result.value:.3e}", partial=result)
    return result

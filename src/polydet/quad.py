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
  arg(z - z_k) is carried along by continuity.
* chords -- ``segment_integral``: the straight segment is split in
  halves, each integrated from its own endpoint in dyadic panels, with
  Gauss-Jacobi on the end panel (its weight s^b holds the vertex
  singularity exactly) and Gauss-Legendre on the others; a panel is split
  again while another vertex lies closer to it than its length.  Only
  differences z - z_k enter, so a metric and its translate give the same
  digits.

Every panel is evaluated once, with NODES nodes.  Its error estimate is
the size of the last two coefficients of its integrand in the orthonormal
polynomials of its rule, read off the same node values through rows of
the Golub-Welsch eigenvectors (``_rule``).  The chords' estimates are
carried through the chord polygon to first order and a rounding floor is
added.  The work is fixed, so the one accuracy contract, error_estimate <=
max(ABS_TOL, REL_TOL * value), decides only whether ``area`` raises
ToleranceNotReached (with the partial result).  Everything is evaluated
in a fixed order, so results are bit-identical between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import PolydetError, ToleranceNotReached
from .metric import PolyhedralMetric

TWO_PI = 2.0 * math.pi

NODES = 64          # Gauss nodes per panel
# values of log(z - z_k) evaluated at once (nodes times other vertices)
BATCH = 2048
# panel halvings after which a vertex on the segment is left to the estimate
MAX_SPLITS = 60
# rounding floor of the area estimate, per unit of sum |corner| |side| of
# the chord polygon (true errors reach about 3 eps per unit for b -> -1)
ROUNDING = 16.0 * np.finfo(float).eps
# the area's accuracy contract: error_estimate <= max(ABS_TOL, REL_TOL * area)
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    cell_count: int             # Gauss panels of all chords


def _quadpack_binding(attr: str, module: str):
    """A module ``__getattr__`` that resolves ``attr`` to scipy's QUADPACK
    routine on first access, so importing polydet loads no scipy.  No
    polydet code calls it: the benchmark's tracer (bench/tracing.py) wraps
    these names to count QUADPACK calls and needs them to exist.  ROADMAP.md
    item 3 removes them."""
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

@lru_cache(maxsize=256)
def _rule(n: int, b: float) -> np.ndarray:
    """Gauss-Jacobi nodes and weights for the weight (1 + x)^b on [-1, 1]
    (b = 0 is Gauss-Legendre), by Golub-Welsch: the eigenvalues of the
    Jacobi matrix of the three-term recurrence, and the squared first
    eigenvector components times mu0 = int (1 + x)^b dx.

    Returns the rows nodes, weights and mu0 v_0j v_kj = sqrt(mu0) w_j
    p_k(x_j) for k = n - 2, n - 1, with p_k the orthonormal polynomials of
    the weight: applied to values f(x_j) the last two give sqrt(mu0) times
    the last two coefficients of f in that basis, the size of what the
    rule leaves out."""
    k = np.arange(1.0, n)
    s = 2.0 * k + b
    diag = np.empty(n)
    diag[0] = b / (b + 2.0)
    diag[1:] = b * b / (s * (s + 2.0))
    off = np.sqrt(4.0 * k * k * (k + b) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (b + 1.0) / (b + 1.0)
    rule = np.vstack((x, mu0 * vec[0] ** 2, mu0 * vec[0] * vec[-2:]))
    rule.flags.writeable = False        # cached, shared by callers
    return rule


def _panel_sums(rule, half, vals) -> np.ndarray:
    """Per panel, half its length times the rows 1: of its ``_rule``
    applied to its node values ``vals`` (panel, node): the panel's integral
    and the last two orthonormal coefficients, whose size is the panel's
    error estimate.  ``rule`` is one rule for all panels or one per panel."""
    return half[:, None] * (rule[..., 1:, :] @ vals[..., None])[..., 0]


def _panels(d: np.ndarray, rel: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dyadic panels [a, a + l] of s in [0, 1/2] on z = z_p + s d for every
    half, a row of ``d`` and ``rel`` (z_k - z_p for the other vertices): a
    panel is halved while one of them lies closer to it than its length,
    at most MAX_SPLITS times.  Each level of halving is one array test
    over all halves.  Returns the half, a and l of every panel, in
    increasing a within each half."""
    length = np.hypot(d.real, d.imag)           # abs(d), as for a scalar
    proj = (rel / d[:, None]).real
    owner = np.arange(len(d))
    a = np.zeros(len(d))
    l = np.full(len(d), 0.5)
    done = []
    for _ in range(MAX_SPLITS):
        nearest = np.minimum(np.maximum(proj[owner], a[:, None]), (a + l)[:, None])
        dist = np.abs(nearest * d[owner, None] - rel[owner])
        split = (dist < (l * length[owner])[:, None]).any(axis=1)
        if not split.any():
            break
        done.append((owner[~split], a[~split], l[~split]))
        owner, a, l = owner[split], a[split], 0.5 * l[split]
        owner, a, l = (np.concatenate((owner, owner)), np.concatenate((a, a + l)),
                       np.concatenate((l, l)))
    owner, a, l = (np.concatenate(c) for c in zip(*done, (owner, a, l)))
    order = np.lexsort((a, owner))
    return owner[order], a[order], l[order]


def _chords(zs, bs, u, v, theta_u, theta_v) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, error estimates and panel counts of the chords int
    prod_k (z - z_k)^(b_k) dz from z_u to z_v, for arrays of steps u, v
    with the rows theta_u, theta_v of branches at either end.

    A chord is two halves, each from its own end z_p to the midpoint, on
    panels of NODES Gauss nodes.  theta[p] at z_p is the branch of
    arg(z_q - z_p) and theta[k] that of arg(z_p - z_k) for k != p.  The
    stages run over all panels at once, the log factors in groups of about
    BATCH values, and every sum is a panel's own (``_panel_sums``) before
    the sum over the panels of a half, so a chord has the same bits
    whatever else is evaluated with it.  The error estimate of a panel is
    the size of the last two coefficients of its integrand in the
    orthonormal polynomials of its rule (``_rule``).
    """
    p, q = np.concatenate((u, v)), np.concatenate((v, u))
    theta = np.concatenate((theta_u, theta_v))
    halves, m = theta.shape
    others = np.nonzero(np.arange(m) != p[:, None])[1].reshape(halves, m - 1)
    rel = zs[others] - zs[p, None]                              # z_k - z_p
    b_o = bs[others]
    th_o = theta[np.arange(halves)[:, None], others]
    d = zs[q] - zs[p]
    bp = bs[p]

    owner, a, l = _panels(d, rel)
    h = 0.5 * l
    end = a == 0.0                      # the first panel of every half
    # Gauss-Legendre, then the Gauss-Jacobi rule of each vertex for the end
    # panels
    rules = np.array([_rule(NODES, 0.0)] + [_rule(NODES, b) for b in bs.tolist()])
    rule = rules[np.where(end, p[owner] + 1, 0)]
    s = a[:, None] + h[:, None] * (1.0 + rule[:, 0])
    # on the end panel the Jacobi weight carries (1 + x)^bp, so
    # s^bp = h^bp (1 + x)^bp leaves h^bp; elsewhere s^bp is smooth
    f = np.where(end[:, None], h[:, None], s) ** bp[owner, None]

    # the log factors of about BATCH values at a time, which bounds the
    # working memory
    g = np.empty(s.shape, dtype=complex)
    step = max(1, BATCH // (NODES * (m - 1)))
    for i in range(0, len(owner), step):
        o = owner[i:i + step]
        terms = _log_factors(s[i:i + step], d[o], rel[o], th_o[o])
        g[i:i + step] = (terms @ b_o[o, :, None])[..., 0]
    np.exp(g, out=g)
    sums = _panel_sums(rule, h, f * g)
    count = np.bincount(owner, minlength=halves)
    start = np.cumsum(count) - count
    # d^(1 + bp) on its branch
    front = np.exp((1.0 + bp) * (np.log(np.hypot(d.real, d.imag))
                                 + 1j * theta[np.arange(halves), p]))
    values = front * np.add.reduceat(sums[:, 0], start)
    errors = np.abs(front) * np.add.reduceat(np.abs(sums[:, 1:]).sum(axis=1), start)
    k = len(u)
    return values[:k] - values[k:], errors[:k] + errors[k:], count[:k] + count[k:]


def _log_factors(s, d, rel, theta) -> np.ndarray:
    """log (z - z_k) = log|z - z_k| + i (theta_k + arg((z - z_k)/(z_p - z_k)))
    at z = z_p + s d for the nodes s (panel, node), with d, rel (z_k - z_p)
    and theta (branches at z_p) per panel; indexed (panel, node, k)."""
    rel = rel[:, None, :]
    diff = s[:, :, None] * d[:, None, None] - rel         # z - z_k
    mod = np.abs(diff)
    np.log(mod, out=mod)
    arg = np.angle(np.divide(diff, -rel, out=diff))
    del diff
    arg += theta[:, None, :]
    out = 1j * arg
    out += mod
    return out


def _subtended(zs, u, v) -> Tuple[np.ndarray, np.ndarray]:
    """For steps from z_u to z_v (arrays u, v): which vertices k are other
    than u and v, and the angle arg((z_v - z_k)/(z_u - z_k)) the step
    subtends at them, by which the branch of arg(z - z_k) moves along it
    (below pi in size, as no vertex lies on a step)."""
    k = np.arange(len(zs))
    moved = (k != u[:, None]) & (k != v[:, None])
    angle = np.zeros(moved.shape)
    angle[moved] = np.angle((zs[v, None] - zs)[moved] / (zs[u, None] - zs)[moved])
    return moved, angle


def _principal(zs, u: int, v: int) -> np.ndarray:
    theta = np.angle(zs[u] - zs)
    theta[u] = np.angle(zs[v] - zs[u])
    return theta


def segment_integral(zs, bs, u: int, v: int,
                     theta: Optional[np.ndarray] = None) -> Chord:
    """int prod_k (z - z_k)^(b_k) dz along the straight segment from z_u to
    z_v (0-based indices into the arrays ``zs``, ``bs``).

    ``theta[k]`` is the branch of arg(z_u - z_k) for k != u and
    ``theta[u]`` that of arg(z_v - z_u), from which every factor is
    continued along the segment; None takes principal values.
    """
    zs = np.asarray(zs, dtype=complex)
    bs = np.asarray(bs, dtype=float)
    if theta is None:
        theta = _principal(zs, u, v)
    u, v = np.array([u]), np.array([v])
    moved, angle = _subtended(zs, u, v)
    # a chord outside the float range comes out inf or nan; callers check
    with np.errstate(over="ignore", invalid="ignore"):
        values, errors, panels = _chords(zs, bs, u, v, theta[None],
                                         np.where(moved, theta + angle, theta))
    return Chord(complex(values[0]), float(errors[0]), int(panels[0]))


# --------------------------------------------------------------------------
# tree, tour, area
# --------------------------------------------------------------------------

def _spanning_tree(zs) -> List[List[int]]:
    """Adjacency lists of the Euclidean minimum spanning tree (Prim)."""
    m = len(zs)
    dist = np.abs(zs[:, None] - zs[None, :])
    adj: List[List[int]] = [[] for _ in range(m)]
    in_tree = np.zeros(m, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    parent = np.zeros(m, dtype=int)
    for _ in range(m - 1):
        k = int(np.argmin(np.where(in_tree, np.inf, best)))
        adj[k].append(int(parent[k]))
        adj[int(parent[k])].append(k)
        in_tree[k] = True
        closer = dist[k] < best
        best = np.where(closer, dist[k], best)
        parent = np.where(closer, k, parent)
    return adj


def _tour(zs, adj):
    """The steps of the Euler tour with every vertex on the right, starting
    along the first edge of vertex 0, as arrays u, v and the rows of theta
    at z_u and at z_v: at a vertex the walk turns clockwise to the next
    edge, by a full 2 pi at a leaf, and theta at z_v is carried along the
    step, before that turn."""
    edges = [(i, j) for i, nb in enumerate(adj) for j in nb]
    tails, heads = np.array(edges).T
    heading = dict(zip(edges, np.angle(zs[heads] - zs[tails]).tolist()))
    walk = []
    u, v = 0, adj[0][0]
    for _ in edges:
        turns = [(heading[v, u] - heading[v, w]) % TWO_PI or TWO_PI for w in adj[v]]
        j = turns.index(min(turns))
        walk.append((u, v, turns[j]))
        u, v = v, adj[v][j]
    us, vs, turn = (np.array(c) for c in zip(*walk))
    moved, angle = _subtended(zs, us, vs)
    at_u = np.empty(moved.shape)
    at_v = np.empty(moved.shape)
    theta = _principal(zs, us[0], vs[0])
    for t in range(len(walk)):
        at_u[t] = theta
        at_v[t] = np.where(moved[t], theta + angle[t], theta)
        theta = at_v[t].copy()
        theta[vs[t]] -= turn[t]
    return us, vs, at_u, at_v


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
    except (OverflowError, ValueError):     # an area outside the float range
        return math.nan, math.nan


def area(m: PolyhedralMetric) -> QuadResult:
    """Total area of the conical sphere, int_C C prod |z-z_k|^(2 b_k) dA.

    Raises PolydetError unless the area is a positive finite float, then
    ToleranceNotReached unless it meets the accuracy contract."""
    zs = np.asarray(m.positions(), dtype=complex)
    bs = np.asarray(m.exponents(), dtype=float)
    # an area outside the float range overflows or underflows here; the
    # range check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        values, errors, panels = _chords(zs, bs, *_tour(zs, _spanning_tree(zs)))
        value, error = _shoelace(values, errors)
    result = QuadResult(m.scale * value, m.scale * error, int(panels.sum()))
    if not 0.0 < result.value < math.inf:
        raise PolydetError(f"area {result.value!r} is not a positive finite float")
    if not result.error_estimate <= max(ABS_TOL, REL_TOL * abs(result.value)):
        raise ToleranceNotReached(
            f"area error estimate {result.error_estimate:.3e} exceeds "
            f"max(ABS_TOL, REL_TOL * |value|)", partial=result)
    return result

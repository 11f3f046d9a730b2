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

The error estimate is the difference between n and 2n nodes per panel
plus a rounding floor, and the contract error_estimate <= max(abs_tol,
rel_tol * value) raises ToleranceNotReached with the partial result.
Everything is evaluated in a fixed order, so results are bit-identical
between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ToleranceNotReached
from .metric import PolyhedralMetric

TWO_PI = 2.0 * math.pi

NODES = 32          # per panel; the error estimate compares with 2 * NODES
# panel halvings after which a vertex on the segment is left to the estimate
MAX_SPLITS = 60
# rounding floor of the area estimate, per unit of sum |corner| |side| of
# the chord polygon (true errors reach about 3 eps per unit for b -> -1)
ROUNDING = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    cell_count: int             # Gauss panels of the 2n-node evaluation


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
    value: complex              # 2n nodes per panel
    coarse: complex             # n nodes per panel
    panels: int


# --------------------------------------------------------------------------
# one segment
# --------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _rule(n: int, b: float) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights for the weight (1 + x)^b on [-1, 1]
    (b = 0 is Gauss-Legendre), by Golub-Welsch: the eigenvalues of the
    Jacobi matrix of the three-term recurrence, and the squared first
    eigenvector components times int (1 + x)^b dx."""
    k = np.arange(1.0, n)
    s = 2.0 * k + b
    diag = np.empty(n)
    diag[0] = b / (b + 2.0)
    diag[1:] = b * b / (s * (s + 2.0))
    off = np.sqrt(4.0 * k * k * (k + b) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (b + 1.0) / (b + 1.0) * vec[0] ** 2
    x.flags.writeable = w.flags.writeable = False   # cached, shared by callers
    return x, w


def _panels(d: complex, rel: np.ndarray) -> List[Tuple[float, float]]:
    """Dyadic panels [a, a + l] of s in [0, 1/2] on z = z_p + s d, where
    ``rel`` holds z_k - z_p for the other vertices: a panel is halved while
    one of them lies closer to it than its length, in increasing a."""
    length = abs(d)
    proj = (rel / d).real
    out = []
    stack = [(0.0, 0.5, 0)]
    while stack:
        a, l, depth = stack.pop()
        dist = np.abs(np.clip(proj, a, a + l) * d - rel)
        if depth < MAX_SPLITS and np.any(dist < l * length):
            stack.append((a + 0.5 * l, 0.5 * l, depth + 1))
            stack.append((a, 0.5 * l, depth + 1))
        else:
            out.append((a, l))
    return out


def _half(zs, bs, p: int, q: int, theta) -> Tuple[complex, complex, int]:
    """int prod_k (z - z_k)^(b_k) dz from z_p to the midpoint of [z_p, z_q]
    with n and 2n nodes per panel.  theta[p] is the branch of
    arg(z_q - z_p), theta[k] that of arg(z_p - z_k) for k != p."""
    others = np.arange(len(zs)) != p
    rel = zs[others] - zs[p]
    b_o, th_o = bs[others], theta[others]
    d = zs[q] - zs[p]
    bp = bs[p]
    panels = _panels(d, rel)
    sums = []
    for n in (NODES, 2 * NODES):
        s_parts, w_parts = [], []
        for a, l in panels:
            h = 0.5 * l
            x, w = _rule(n, bp if a == 0.0 else 0.0)
            s = a + h * (1.0 + x)
            # on the end panel the Jacobi weight carries (1 + x)^bp, so
            # s^bp = h^bp (1 + x)^bp leaves h^bp; elsewhere s^bp is smooth
            s_parts.append(s)
            w_parts.append(h * w * (h ** bp if a == 0.0 else s ** bp))
        s = np.concatenate(s_parts)
        diff = s[:, None] * d - rel[None, :]           # z - z_k
        log_g = (np.log(np.abs(diff))
                 + 1j * (th_o + np.angle(diff / -rel))) @ b_o
        sums.append(np.dot(np.concatenate(w_parts), np.exp(log_g)))
    front = np.exp((1.0 + bp) * complex(math.log(abs(d)), theta[p]))
    return front * sums[0], front * sums[1], len(panels)


def _advance(zs, theta, u: int, v: int) -> np.ndarray:
    """Branches of arg(z - z_k) carried along the segment from z_u to z_v:
    only k other than u and v change, each by the angle the segment
    subtends at z_k (below pi in size, as no vertex lies on it)."""
    out = theta.copy()
    mask = np.ones(len(zs), dtype=bool)
    mask[[u, v]] = False
    out[mask] += np.angle((zs[v] - zs[mask]) / (zs[u] - zs[mask]))
    return out


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
    fn, f2n, pu = _half(zs, bs, u, v, theta)
    gn, g2n, pv = _half(zs, bs, v, u, _advance(zs, theta, u, v))
    return Chord(f2n - g2n, fn - gn, pu + pv)


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
    """Steps (u, v, theta at z_u) of the Euler tour with every vertex on
    the right, starting along the first edge of vertex 0."""
    u, v = 0, adj[0][0]
    theta = _principal(zs, u, v)
    for _ in range(2 * (len(zs) - 1)):
        yield u, v, theta
        theta = _advance(zs, theta, u, v)
        incoming = np.angle(zs[u] - zs[v])
        turns = [(incoming - np.angle(zs[w] - zs[v])) % TWO_PI or TWO_PI
                 for w in adj[v]]
        j = int(np.argmin(turns))
        theta[v] -= turns[j]
        u, v = v, adj[v][j]


def _shoelace(chords) -> Tuple[float, float]:
    """Signed area of the polygon with these sides from the origin, and
    sum |corner| |side|, the scale of its rounding error."""
    corners = np.concatenate(([0.0], np.cumsum(chords)[:-1]))
    return (math.fsum(0.5 * (np.conj(corners) * chords).imag),
            math.fsum(np.abs(corners) * np.abs(chords)))


def area(m: PolyhedralMetric, cfg: QuadratureConfig = QuadratureConfig()) -> QuadResult:
    """Total area of the conical sphere, int_C C prod |z-z_k|^(2 b_k) dA."""
    zs = np.asarray(m.positions(), dtype=complex)
    bs = np.asarray(m.exponents(), dtype=float)
    chords = [segment_integral(zs, bs, u, v, theta)
              for u, v, theta in _tour(zs, _spanning_tree(zs))]
    value, size = _shoelace(np.array([c.value for c in chords]))
    coarse, _ = _shoelace(np.array([c.coarse for c in chords]))
    result = QuadResult(m.scale * value,
                        m.scale * float(abs(value - coarse) + ROUNDING * size),
                        sum(c.panels for c in chords))
    if not result.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(result.value)):
        raise ToleranceNotReached(
            f"area error estimate {result.error_estimate:.3e} exceeds "
            f"max(abs_tol, rel_tol * |value|)", partial=result)
    return result

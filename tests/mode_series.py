"""The source of ``detlap``'s mode table and its test oracle.

S(s) = sum_k Z'(s k) and S'(s) = sum_k k Z''(s k), with
Z'(nu) = log Gamma(nu + 1) + nu - (1/2) log(2 pi nu) - nu log nu - 1/(12 nu)
(``detlap`` module docstring), are the Bessel-mode sums of the cone disk.
``mode_sums`` takes both at an array of s >= 1 in one numpy pass.  A mode
nu = s k >= NU0 = 12 takes Stirling's remainder

    Z'(nu) = sum_{n=2..8} B_2n/(2n (2n - 1)) nu^(1 - 2n),

truncated before a term below 1e-19 at nu = 12; summed over k >= k0 it is
sum_n B_2n/(2n (2n - 1)) s^(1 - 2n) zeta(2n - 1, k0), the Hurwitz zeta
values from zeta(3), ..., zeta(15) less their partial sums.  A mode
below NU0 is not taken as log Gamma(nu + 1) - nu log nu, which cancels
digits (errors up to 2.5e-14 from 0.1 pi to 10 pi), but shifted up to NU0,

    Z'(nu) = sum_{j < J} delta(nu + j) + Z'(nu + J),   J = ceil(NU0 - nu),
    delta(mu) = Z'(mu) - Z'(mu + 1)
              = sum_{i>=2} (1/(2i + 1) - 1/3) y^(2i),   y = 1/(2 mu + 1) <= 1/3,

summed to i = 21, past which the terms are below 1e-18 of the sum.  Z''
follows from the derivatives of the same series: delta'(mu) = sum_i
4i (1/3 - 1/(2i + 1)) y^(2i+1).  Every term of S and of S' has one sign,
so no digits are lost.

``mode_table`` interpolates both at TABLE_NODES first-kind points on each
panel between the TABLE_EDGES (``table_nodes``), one ``mode_sums`` pass of
64 nodes, and returns the panels and S(1) in the form of
``detlap._PANELS`` and ``detlap._S_ONE``, which the tests compare bit
for bit.  Run as a script, it prints that literal:

    PYTHONPATH=src python tests/mode_series.py
"""

import math

import numpy as np

from polydet import detlap

NU0 = 12.0                         # modes below it are shifted up to it
_NEAR_K = np.arange(1.0, NU0)      # the k of modes s k < NU0, as s >= 1
_CHAIN = _NEAR_K - 1.0             # the j of a chain nu + j, below NU0
# delta/y^4 and delta'/y^5 in powers of t = y^2, i = 2..21: the coefficient
# of t^(4q + r) at (q, value or slope, r), for Horner's rule in t^4 over q
# (Estrin's scheme)
_I = np.arange(2.0, 22.0)
_DELTA = np.array([1.0 / (2.0 * _I + 1.0) - 1.0 / 3.0,
                   4.0 * _I * (1.0 / 3.0 - 1.0 / (2.0 * _I + 1.0))]
                  ).reshape(2, 5, 4).transpose(1, 0, 2)[..., None].copy()
# Stirling's remainder at nu = 1/w in powers of x = w^2: Z' = w sum_n c_n x^(n-1)
# and Z'' = -sum_n (2n - 1) c_n x^n, c_n = B_2n/(2n (2n - 1)), n = 2..8 (rows
# value and slope, columns x..x^8); row 0 at a chain end, and row k0 = 1..NU0
# the tail from k0 on, which is that at w = 1/s with each term times
# zeta(2n - 1, k0)
_STIRLING = np.array([-1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
                      -3617 / 122400])
_ZETA_ODD = (1.2020569031595942, 1.03692775514337, 1.008349277381923, 1.0020083928260821,
             1.0004941886041194, 1.0001227133475785, 1.000030588236307)
_HURWITZ = np.array([[math.fsum([z, *(-(k ** -n) for k in range(1, k0))])
                      for z, n in zip(_ZETA_ODD, range(3, 16, 2))]
                     for k0 in range(1, int(NU0) + 1)])
_ENDS = np.zeros((int(NU0) + 1, 2, 8))
_ENDS[0, 0, :7] = _STIRLING
_ENDS[0, 1, 1:] = -np.arange(3.0, 16.0, 2.0) * _STIRLING
_ENDS[1:, 0, :7] = _HURWITZ
_ENDS[1:, 1, 1:] = _HURWITZ
_ENDS[1:] *= _ENDS[0]
_TAILS = _ENDS[1:]
# the panels of the table in u = 1/s, and the nodes on each
TABLE_EDGES = (0.0, 0.125, 0.25, 0.5, 1.0)
TABLE_NODES = 16


def mode_sums(s):
    """S(s) and S'(s) at every s >= 1 of the array ``s`` (module
    docstring), each summed in one order: the shifts of each chain, the
    chain ends, the tail."""
    n = len(s)
    # the near modes nu = s k < NU0, in the order (angle, k), and their
    # chains nu + j < NU0, in the order (mode, j)
    rows, cols = (s[:, None] * _NEAR_K < NU0).nonzero()
    k = cols + 1.0
    nu = s[rows] * k
    m = len(nu)
    mu = nu[:, None] + _CHAIN
    chain = mu < NU0
    mode = chain.nonzero()[0]
    # delta and delta' on every chain nu, nu + 1, ..., nu + J - 1
    y = 0.5 / (mu[chain] + 0.5)
    t = y * y
    t4 = t * t
    t4 *= t4
    acc = _DELTA[-1] * t4
    for c in _DELTA[-2:0:-1]:
        acc += c
        acc *= t4
    acc += _DELTA[0]
    shifts = ((acc[:, 3] * t + acc[:, 2]) * t + acc[:, 1]) * t + acc[:, 0]
    shifts *= t * t
    shifts[1] *= y
    # Stirling's Z' and Z'' at the chain ends nu + J >= NU0, and the tails
    # from k0 = 1 + the number of an angle's near modes
    w = 1.0 / np.concatenate([nu + np.bincount(mode, minlength=m), s])
    powers = (w * w)[:, None].repeat(8, axis=1).cumprod(axis=1)[:, None, :]
    stirling = np.add.reduce(np.concatenate([powers[:m] * _ENDS[0],
                                             powers[m:] * _TAILS[np.bincount(rows, minlength=n)]]),
                             axis=2)
    stirling[:, 0] *= w
    owner = np.concatenate([rows[mode], rows, np.arange(n)])
    return (np.bincount(owner, np.concatenate([shifts[0], stirling[:, 0]]), n),
            np.bincount(owner, np.concatenate([shifts[1] * k[mode], stirling[:m, 1] * k,
                                               stirling[m:, 1]]), n))


def table_nodes() -> np.ndarray:
    """The u of the table's nodes, (panel, node): the first-kind points
    x_j = cos(pi (j + 1/2)/TABLE_NODES) mapped onto each panel."""
    x = np.cos(np.pi * (np.arange(TABLE_NODES) + 0.5) / TABLE_NODES)
    lo, hi = np.array(TABLE_EDGES[:-1]), np.array(TABLE_EDGES[1:])
    return ((hi + lo) / 2.0)[:, None] + ((hi - lo) / 2.0)[:, None] * x


def mode_table():
    """The panels of the mode table, each (top edge, a, b, coefficients)
    with x = a u - b on it and the (S, S') coefficient pairs from the
    highest degree down, and S(1) from the table, so that F(2 pi, 1) is
    0.0: ``detlap._PANELS`` and ``detlap._S_ONE``."""
    u = table_nodes()
    n_panels, n = u.shape
    values = np.stack(mode_sums(1.0 / u.ravel())).reshape(2, n_panels, n)
    # c_k = (2/n) sum_j f(x_j) cos(pi k (j + 1/2)/n), c_0 halved
    basis = np.cos(np.pi * np.outer(np.arange(n), np.arange(n) + 0.5) / n) * (2.0 / n)
    basis[0] /= 2.0
    coefficients = (values[..., None, :] * basis).sum(axis=-1)
    panels = tuple((hi, 2.0 / (hi - lo), (hi + lo) / (hi - lo),
                    tuple(map(tuple, coefficients[:, p, ::-1].T.tolist())))
                   for p, (lo, hi) in enumerate(zip(TABLE_EDGES, TABLE_EDGES[1:])))
    return panels, detlap._table_sums(panels, 1.0)[0]


def literal() -> str:
    """``mode_table`` as the source of ``detlap._PANELS`` and
    ``detlap._S_ONE``: every float in its shortest round-trip form."""
    panels, s_one = mode_table()
    lines = ["_PANELS = ("]
    for top, a, b, coefficients in panels:
        lines.append(f"    ({top!r}, {a!r}, {b!r}, (")
        lines += [f"        ({cv!r}, {cd!r})," for cv, cd in coefficients]
        lines.append("    )),")
    lines += [")", f"_S_ONE = {s_one!r}"]
    return "\n".join(lines)


if __name__ == "__main__":
    print(literal())

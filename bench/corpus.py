"""Seeded inputs of the three workloads.

Pure Python: nothing here imports polydet, so the checking process can
rebuild exactly the inputs the workload process received from the seed
alone.  A metric is a plain dict ``{"C": float, "verts": [(z, b), ...]}``.

Each workload is a sequence of *rounds*.  ``det_corpus`` and ``cli``
repeat one fixed round, so every run attempts whole rounds and the share
of known-fault items is the same in every run.  ``analytic`` draws a
fresh round per index, because its cold gradient items must stay cold: a
round that repeated would find its finite parts already cached.
"""

from __future__ import annotations

import cmath
import math
import random

PI = math.pi
TWO_PI = 2.0 * math.pi

WORKLOADS = ("det_corpus", "analytic", "cli")

# S^2(p,q,r) = (torus)/Z_n: exponents, n, and tau of the covering torus.
# Their vertex sets are fixed (not seeded): these three items fail on
# every seed until the angle-dependent constant in F(beta) is mended.
ORBIFOLDS = (
    ("S2(3,3,3)", (-2.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0), 3, "rho"),
    ("S2(2,4,4)", (-0.5, -0.75, -0.75), 4, "i"),
    ("S2(2,3,6)", (-0.5, -2.0 / 3.0, -5.0 / 6.0), 6, "rho"),
)
ORBIFOLD_POSITIONS = (0.0, 1.0, 0.35 + 0.9j)

# A triangle with two vertices 1e-3 apart, on fixed vertices.  Its twin is
# scaled about the origin but not moved away from it: quad.area raises
# ToleranceNotReached on every twin far from the origin at small scale
# (README.md, "Left out").
_Z0 = 0.3 + 0.2j
NEAR_PAIR = {"C": 1.0, "verts": [(_Z0, -0.6), (_Z0 + 1e-3 * cmath.exp(0.7j), -0.8),
                                 (-0.5 + 0.6j, -0.6)]}

CLI_CYCLE = ("det", "area", "grad", "verify_fd", "verify_hadamard", "verify_tetra")


def rng_for(workload: str, seed: int, round_index: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


# --------------------------------------------------------------------------
# geometric building blocks
# --------------------------------------------------------------------------

def exponents(rng: random.Random, m: int, lo: float = -0.85,
              hi: float = -0.05) -> list:
    """m exponents in [lo, hi] whose float sum is -2 to within 1e-15."""
    while True:
        w = [rng.uniform(0.3, 1.0) for _ in range(m)]
        s = sum(w)
        bs = [-2.0 * x / s for x in w[:-1]]
        bs.append(-2.0 - math.fsum(bs))
        if all(lo <= b <= hi for b in bs):
            return bs


def points(rng: random.Random, m: int, radius: float, dmin: float) -> list:
    """m points in the disk of the given radius, pairwise >= dmin apart."""
    out: list = []
    while len(out) < m:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius and all(abs(z - w) >= dmin for w in out):
            out.append(z)
    return out


def generic_points(rng: random.Random, m: int) -> list:
    return points(rng, m, 0.6 * math.sqrt(m), 0.45)


def similarity(metric: dict, a: complex, c: complex) -> dict:
    """The isometric copy of a metric under z -> a z + c, C -> C |a|^2."""
    return {"C": metric["C"] * abs(a) ** 2,
            "verts": [(a * z + c, b) for z, b in metric["verts"]]}


def similarity_twin(rng: random.Random, metric: dict) -> dict:
    """A similarity copy placed far from the origin (|c| in [30, 100]) and
    at small scale (|a| in [0.02, 0.05])."""
    a = rng.uniform(0.02, 0.05) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    c = rng.uniform(30.0, 100.0) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    return similarity(metric, a, c)


# --------------------------------------------------------------------------
# det_corpus: one fixed round of 40 log_det_as items
# --------------------------------------------------------------------------


def det_corpus(seed: int) -> list:
    """The 40 items of one det_corpus round.

    Each item is ``{"id", "kind", "metric", ...}``; ``group`` ties the
    members of a twin pair or an equal-angle pair together for the checks,
    and ``known_fault`` names the one check or exception type that fails
    on that item in every run until the program is mended.
    """
    rng = rng_for("det_corpus", seed)
    items: list = []

    def add(kind, metric, **extra):
        items.append({"id": f"{kind}-{len(items)}", "kind": kind,
                      "metric": metric, **extra})

    bases = []
    for m in range(3, 11):
        bases.append(("generic", {"C": rng.uniform(0.5, 2.0),
                                  "verts": list(zip(generic_points(rng, m),
                                                    exponents(rng, m)))}))
    # one angle above 2 pi and one exponent near -1
    b1 = rng.uniform(0.25, 0.35)
    b2 = rng.uniform(-0.975, -0.965)
    rest = exponents(rng, 3, lo=-0.9, hi=-0.05)
    scale_rest = (-2.0 - b1 - b2) / -2.0
    bs = [b1, b2] + [b * scale_rest for b in rest[:-1]]
    bs.append(-2.0 - math.fsum(bs))
    bases.append(("extreme", {"C": rng.uniform(0.5, 2.0),
                              "verts": list(zip(generic_points(rng, 5), bs))}))
    # collinear vertices
    direction = cmath.exp(1j * rng.uniform(0.0, PI))
    offset = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    ts = [-1.6 + 0.8 * k + rng.uniform(-0.15, 0.15) for k in range(5)]
    bases.append(("collinear", {"C": rng.uniform(0.5, 2.0),
                                "verts": [(offset + t * direction, b) for t, b
                                          in zip(ts, exponents(rng, 5))]}))
    for g, (kind, metric) in enumerate(bases):
        add(kind, metric, group=f"twin{g}")
        add(kind, similarity_twin(rng, metric), group=f"twin{g}")

    # a pair of vertices 1e-3 apart, and its twin at small scale
    a = rng.uniform(0.02, 0.05) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    add("near_pair", NEAR_PAIR, group="twin_near")
    add("near_pair", similarity(NEAR_PAIR, a, 0.0), group="twin_near")

    # pairs of non-similar triangles with equal angles
    for p in range(6):
        bs = exponents(rng, 3)
        for _ in range(2):
            add("equal_angle", {"C": rng.uniform(0.5, 2.0),
                                "verts": list(zip(generic_points(rng, 3), bs))},
                group=f"pair{p}")
    # four angles pi, C = 1
    for _ in range(3):
        add("four_pi", {"C": 1.0,
                        "verts": [(z, -0.5) for z in generic_points(rng, 4)]})
    for name, bs, n, tau in ORBIFOLDS:
        add("orbifold", {"C": 1.0, "verts": list(zip(ORBIFOLD_POSITIONS, bs))},
            orbifold=name, n=n, tau=tau, known_fault="log_det/orbifold")
    return items


# --------------------------------------------------------------------------
# analytic: gradient items (fresh angle sets with cold caches, then position
# moves with warm ones) interleaved with oracle evaluations
# --------------------------------------------------------------------------

GRAD_PAIRS = 64  # cold/warm gradient pairs per analytic round
ORACLE_ITEMS = 16  # oracle evaluations per analytic round


def analytic_round(seed: int, round_index: int) -> list:
    """One round: GRAD_PAIRS gradient pairs with the ORACLE_ITEMS oracle
    evaluations spread evenly between them; a pair is never split."""
    grads = grad_round(seed, round_index)
    oracles = oracle_round(seed, round_index)
    items: list = []
    for k in range(GRAD_PAIRS):
        items.extend(grads[2 * k:2 * k + 2])
        lo, hi = (k * ORACLE_ITEMS // GRAD_PAIRS, (k + 1) * ORACLE_ITEMS // GRAD_PAIRS)
        items.extend(oracles[lo:hi])
    return items


def grad_round(seed: int, round_index: int) -> list:
    rng = rng_for("grad_fd", seed, round_index)
    items: list = []
    for k in range(GRAD_PAIRS):
        shape = ("three", "four_pi", "generic4", "generic5", "generic6")[k % 5]
        if shape == "three":
            m, bs = 3, exponents(rng, 3)
        elif shape == "four_pi":
            m, bs = 4, [-0.5] * 4
        else:
            m = int(shape[-1])
            bs = exponents(rng, m, lo=-0.8, hi=-0.1)
        C = 1.0 if shape == "four_pi" else rng.uniform(0.5, 2.0)
        zs = generic_points(rng, m)
        richardson = k % 4 == 0
        items.append({"family": "grad", "kind": shape, "cache": "cold",
                      "richardson": richardson,
                      "metric": {"C": C, "verts": list(zip(zs, bs))}})
        moved = [z + 0.05 * cmath.exp(1j * rng.uniform(0.0, TWO_PI)) for z in zs]
        items.append({"family": "grad", "kind": shape, "cache": "warm",
                      "richardson": richardson,
                      "metric": {"C": C, "verts": list(zip(moved, bs))}})
    return items


# --------------------------------------------------------------------------
# oracles: 16 evaluations per round, drawn afresh for every round
# --------------------------------------------------------------------------

def _cone_pair(rng: random.Random, beta: float, close: bool = False) -> tuple:
    r, rp = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)
    phi = rng.uniform(0.0, beta)
    if close:  # the resolvent split needs |phi - phi'| < pi
        span = min(beta, PI) * 0.8
        php = min(max(phi + rng.uniform(-span, span), 0.0), beta * 0.999)
        if abs(rp - r) < 0.05:
            rp += 0.1
    else:
        php = rng.uniform(0.0, beta)
    return (r, phi), (rp, php)


def jitter(rng: random.Random, x, rel: float = 0.02):
    """x moved by a seeded relative amount of at most ``rel``."""
    return x * (1.0 + rng.uniform(-rel, rel))


# The expensive oracles (periods, the complex-mu resolvent through mpmath,
# a_mu) cost up to three times more on some random inputs than on others,
# so they draw their inputs in a narrow band around fixed templates; the
# cheap ones draw them freely.
QUARTICS = ((0.3 + 0.1j, -1.2 + 0.4j, 0.8 - 1.0j, -0.1 + 1.3j),
            (1.7 - 0.2j, -0.6 - 1.1j, -1.4 + 0.8j, 0.5 + 1.5j))


def oracle_round(seed: int, round_index: int) -> list:
    rng = rng_for("oracles", seed, round_index)
    items: list = []
    for template in QUARTICS:
        items.append({"kind": "periods",
                      "points": [z + 0.02 * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
                                 for z in template]})
    for t in (0.1, 1.0):
        p, q = _cone_pair(rng, TWO_PI)
        items.append({"kind": "heat_2pi", "beta": TWO_PI, "t": t, "p": p, "q": q})
    for n in (2, 3, 4):
        beta = TWO_PI / n
        p, q = _cone_pair(rng, beta)
        items.append({"kind": "heat_images", "n": n, "beta": beta,
                      "t": rng.uniform(0.2, 1.0), "p": p, "q": q})
    for n in (2, 3):
        beta = TWO_PI / n
        p, q = _cone_pair(rng, beta, close=True)
        items.append({"kind": "resolvent_real", "n": n, "beta": beta,
                      "mu": -rng.uniform(1.0, 6.0), "p": p, "q": q})
    items.append({"kind": "resolvent_complex", "n": 2, "beta": PI,
                  "mu": complex(jitter(rng, -3.0), jitter(rng, 1.0)),
                  "p": (jitter(rng, 0.8), jitter(rng, 0.3)),
                  "q": (jitter(rng, 1.1), jitter(rng, 1.2))})
    items.append({"kind": "a_mu_disk", "beta": jitter(rng, PI),
                  "mu": -100.0, "eps": 1.0})
    for _ in range(2):
        items.append({"kind": "q_contour", "beta": PI * rng.uniform(0.6, 3.0)})
    # the finite parts take the same two seeded angles in every round: their
    # 40-digit mpmath references would otherwise cost the checks ~0.5 s a round
    items.append({"kind": "hadamard", "beta": TWO_PI})
    fixed = rng_for("oracles", seed, "hadamard")
    for _ in range(2):
        items.append({"kind": "hadamard", "beta": PI * fixed.uniform(0.5, 3.0)})
    assert len(items) == ORACLE_ITEMS
    for item in items:
        item["family"] = "oracle"
    return items


# --------------------------------------------------------------------------
# cli: one fixed cycle of six commands over seeded input files
# --------------------------------------------------------------------------

def cli_inputs(seed: int) -> dict:
    """The input files of the cli cycle, as JSON-ready objects."""
    rng = rng_for("cli", seed)
    four = generic_points(rng, 4)
    three = generic_points(rng, 3)
    return {
        "four_pi.json": {"C": 1.0, "vertices": [
            {"z": [z.real, z.imag], "b": -0.5} for z in four]},
        "three.json": {"C": rng.uniform(0.5, 2.0), "vertices": [
            {"z": [z.real, z.imag], "b": b}
            for z, b in zip(three, exponents(rng, 3))]},
        "quartic.json": {"points": [
            [z.real, z.imag] for z in generic_points(rng, 4)]},
    }


def cli_argv(command: str) -> list:
    """polydet argv of one cycle entry; input files are relative to the
    directory the cycle runs in."""
    return {
        "det": ["det", "--metric", "four_pi.json", "--json"],
        "area": ["area", "--metric", "three.json", "--json"],
        "grad": ["grad", "--metric", "three.json", "--channel", "beta:2", "--json"],
        "verify_fd": ["verify", "fd", "--metric", "three.json"],
        "verify_hadamard": ["verify", "hadamard"],
        "verify_tetra": ["verify", "tetra", "--points", "quartic.json"],
    }[command]


def metric_from_file(obj: dict) -> dict:
    return {"C": obj["C"],
            "verts": [(complex(v["z"][0], v["z"][1]), v["b"]) for v in obj["vertices"]]}

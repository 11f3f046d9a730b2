"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with ``pytest -s tests/test_acceptance.py`` to
see the lines as they complete)."""

import json
import math
import time

import numpy as np
import pytest

from polydet import (
    ConePoint,
    FDConfig,
    area,
    det_tetrahedron,
    det_torus,
    dump_metric,
    eta_distance_identity,
    heat_kernel_cone,
    heat_kernel_images,
    jacobi_residual,
    log_det_as,
    make_metric,
    periods,
    q_of_beta,
    q_of_beta_contour,
    run_suite,
    tetrahedron_metric,
    thomae_check,
)
from polydet.cli import main
from polydet.cone import a_mu_disk_integral
from polydet.detlap import f_function, f_function_dbeta
from polydet.regint import hadamard_coth_coth_over_theta, hadamard_coth_over_sinh_sq

PI = math.pi
TWO_PI = 2 * math.pi


def _verdict(n, ok, detail, t0, limit):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {n}: {status} ({detail}; {elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, detail
    assert elapsed < limit, f"runtime {elapsed:.1f}s over limit {limit}s"


def test_acceptance_1_q_contour_vs_closed_form():
    t0 = time.monotonic()
    betas = [2 * PI / 3, PI, 1.5 * PI, 1.9 * PI, 2.1 * PI, 3 * PI, 5 * PI]
    worst = max(abs(q_of_beta_contour(b) - q_of_beta(b)) for b in betas)
    _verdict(1, worst <= 1e-8, f"max |contour - closed| = {worst:.2e}", t0, 10)


def test_acceptance_2_cone_kernel_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_plane = 0.0
    worst_images = 0.0
    for _ in range(20):
        r, rp = rng.uniform(0.2, 2.0, 2)
        raw_phi, raw_phip = rng.uniform(0.0, 1.0, 2)
        for t in (0.1, 1.0):
            p = ConePoint(r, raw_phi * TWO_PI)
            q = ConePoint(rp, raw_phip * TWO_PI)
            h = heat_kernel_cone(TWO_PI, t, p, q)
            d2 = r * r + rp * rp - 2 * r * rp * math.cos(p.phi - q.phi)
            worst_plane = max(
                worst_plane,
                abs(h - math.exp(-d2 / (4 * t)) / (4 * PI * t)))
            for n in (2, 3):
                beta = TWO_PI / n
                p = ConePoint(r, raw_phi * beta)
                q = ConePoint(rp, raw_phip * beta)
                dev = abs(heat_kernel_cone(beta, t, p, q)
                          - heat_kernel_images(n, t, p, q))
                worst_images = max(worst_images, dev)
    ok = worst_plane <= 1e-10 and worst_images <= 1e-8
    _verdict(2, ok, f"plane dev {worst_plane:.2e}, image dev {worst_images:.2e}",
             t0, 60)


def test_acceptance_3_a_mu_integral_ladder():
    t0 = time.monotonic()
    errs = [abs(a_mu_disk_integral(PI, mu, 1.0) - 0.125)
            for mu in (-25.0, -50.0, -100.0)]
    ok = (errs[1] <= errs[0] / 10.0 and errs[2] <= errs[1] / 10.0
          and errs[2] <= 1e-6)
    _verdict(3, ok, "errors " + ", ".join(f"{e:.2e}" for e in errs), t0, 120)


GENERIC_QUARTICS = [
    [0.3 + 0.1j, -1.2 + 0.4j, 0.8 - 1.0j, -0.1 + 1.3j],
    [1.7 - 0.2j, -0.6 - 1.1j, -1.4 + 0.8j, 0.5 + 1.5j],
]


def test_acceptance_4_tetrahedron_end_to_end():
    t0 = time.monotonic()
    worst_as = 0.0
    worst_sq = 0.0
    for pts in [[1, -1, 1j, -1j]] + GENERIC_QUARTICS:
        m = make_metric(1.0, [(z, -0.5) for z in pts])
        rep = log_det_as(m)
        dt = det_tetrahedron(pts, rep.area)
        worst_as = max(worst_as, abs(math.exp(rep.log_det) - dt) / dt)
        torus = det_torus(periods(pts), rep.area)
        worst_sq = max(worst_sq, abs(torus - dt * dt) / (dt * dt))
    ok = worst_as <= 1e-5 and worst_sq <= 1e-6
    _verdict(4, ok, f"AS-vs-closed rel {worst_as:.2e}, squared rel {worst_sq:.2e}",
             t0, 120)


def test_acceptance_5_gradient_suite(corpus5):
    t0 = time.monotonic()
    worst_plain = 0.0
    worst_rich = 0.0
    for m in (tetrahedron_metric(), corpus5):
        worst_plain = max(worst_plain, *(r.rel_err for r in run_suite(m)))
        worst_rich = max(
            worst_rich,
            *(r.rel_err for r in run_suite(m, fdcfg=FDConfig(richardson=True))))
    ok = worst_plain <= 1e-5 and worst_rich <= 1e-7
    _verdict(5, ok, f"plain {worst_plain:.2e}, richardson {worst_rich:.2e}",
             t0, 60)


def test_acceptance_6_hadamard_stability():
    t0 = time.monotonic()
    worst_shift = 0.0
    for beta in (PI / 2, PI, 1.5 * PI, TWO_PI, 3 * PI):
        for fp in (hadamard_coth_over_sinh_sq, hadamard_coth_coth_over_theta):
            worst_shift = max(worst_shift, abs(
                fp(beta).finite_part - fp(beta, halved=True).finite_part))
    worst_fd = 0.0
    for beta in (PI / 2, PI, 1.5 * PI, TWO_PI, 3 * PI):
        h = 1e-4 * beta
        fd = (f_function(beta + h, 1.0) - f_function(beta - h, 1.0)) / (2 * h)
        an = f_function_dbeta(beta, 1.0)
        worst_fd = max(worst_fd, abs(fd - an) / max(abs(an), 1e-3))
    ok = worst_shift < 1e-8 and worst_fd <= 1e-5
    _verdict(6, ok, f"cutoff shift {worst_shift:.2e}, dF/dbeta dev {worst_fd:.2e}",
             t0, 30)


def test_acceptance_7_chs_cross_check(tmp_path, capsys):
    # `polydet compare` against values that share no code with W: the
    # elliptic closed form at four angles pi, and the scale law
    # log det'(lambda C) - log det'(C) = -(sum_k Q(beta_k) - 1) log lambda
    t0 = time.monotonic()

    def compare(m1, m2):
        paths = [str(tmp_path / name) for name in ("m1.json", "m2.json")]
        dump_metric(m1, paths[0])
        dump_metric(m2, paths[1])
        assert main(["compare", "--m1", paths[0], "--m2", paths[1], "--json"]) == 0
        return json.loads(capsys.readouterr().out)["log_det_ratio"]

    rng = np.random.default_rng(2024)
    quartics = [[2, -2, 2j, -2j], [1, -1, 1j, -1j],
                [complex(a, b) for a, b in rng.uniform(-1.6, 1.6, (4, 2))],
                [complex(a, b) for a, b in rng.uniform(-1.6, 1.6, (4, 2))]]
    worst_tetra = 0.0
    for p1, p2 in (quartics[:2], quartics[2:]):
        got = compare(make_metric(1.0, [(z, -0.5) for z in p1]),
                      make_metric(1.0, [(z, -0.5) for z in p2]))
        d1, d2 = (det_tetrahedron(p, area(make_metric(1.0, [(z, -0.5) for z in p])).value)
                  for p in (p1, p2))
        worst_tetra = max(worst_tetra, abs(got - math.log(d1 / d2)))
    worst_scale = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 8))
        weights = rng.uniform(0.55, 1.0, n)
        bs = (-2.0 * weights / weights.sum()).tolist()
        bs[-1] = -2.0 - math.fsum(bs[:-1])
        # one vertex per sector of angle 2 pi/n, off the origin
        zs = [rng.uniform(0.3, 2.0) * np.exp(2j * PI * (k + rng.uniform(0.0, 0.5)) / n)
              for k in range(n)]
        m = make_metric(rng.uniform(0.5, 2.0), list(zip(zs, bs)))
        log_lambda = rng.uniform(-3.0, 3.0)
        zeta0 = math.fsum([q_of_beta(beta) for beta in m.angles()]) - 1.0
        got = compare(m.with_scale(m.scale * math.exp(log_lambda)), m)
        worst_scale = max(worst_scale, abs(got + zeta0 * log_lambda))
    _verdict(7, worst_tetra <= 1e-12 and worst_scale <= 1e-12,
             f"elliptic {worst_tetra:.1e}, scale law {worst_scale:.1e}", t0, 120)


def test_acceptance_8_elliptic_identity_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    quartics = []
    while len(quartics) < 10:
        pts = [complex(a, b) for a, b in rng.uniform(-2, 2, (4, 2))]
        if min(abs(p - q) for i, p in enumerate(pts)
               for q in pts[i + 1:]) > 0.3:
            quartics.append(pts)
    worst_j = worst_t = worst_e = 0.0
    for pts in quartics:
        data = periods(pts)
        worst_j = max(worst_j, jacobi_residual(data))
        worst_t = max(worst_t, thomae_check(pts, data))
        worst_e = max(worst_e, eta_distance_identity(pts, data))
    ok = worst_j < 1e-10 and worst_t < 1e-7 and worst_e < 1e-7
    _verdict(8, ok, f"jacobi {worst_j:.1e}, thomae {worst_t:.1e}, "
                    f"eta-dist {worst_e:.1e}", t0, 30)

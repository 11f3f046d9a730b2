#!/usr/bin/env python3
"""Compute the determinant of the Laplacian on tetrahedra (four cone
angles pi) by every route the library knows and print the comparison:

  1. closed formula     (2^(2/3) pi)^-1 Area prod |z_i - z_j|^(1/6)
  2. angle/position expansion  Area exp(prefactor + W + sum F - ref)
  3. covering-torus route       sqrt(Area(E) Im(tau) |eta(tau)|^4)

Usage: python scripts/tetrahedron_determinant.py [re,im re,im re,im re,im]
"""

import math
import sys

from polydet import (
    QuadratureConfig,
    det_tetrahedron,
    det_torus,
    eta_distance_identity,
    jacobi_residual,
    log_det_as,
    make_metric,
    periods,
    thomae_check,
)


def parse_points(argv):
    if len(argv) == 4:
        return [complex(*map(float, a.split(","))) for a in argv]
    return [1, -1, 1j, -1j]


def main():
    pts = parse_points(sys.argv[1:])
    qcfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12)
    m = make_metric(1.0, [(z, -0.5) for z in pts])

    report = log_det_as(m, qcfg)
    closed = det_tetrahedron(pts, area_x=report.area)
    data = periods(pts)
    torus = det_torus(data, report.area)

    print(f"branch points      : {pts}")
    print(f"area               : {report.area:.15g}")
    print(f"modulus tau        : {data.tau:.15g}")
    print(f"det' (closed form) : {closed:.15g}")
    print(f"det' (expansion)   : {math.exp(report.log_det):.15g}")
    print(f"det' (torus route) : {math.sqrt(torus):.15g}")
    print(f"jacobi residual    : {jacobi_residual(data):.2e}")
    print(f"thomae residual    : {thomae_check(pts, data):.2e}")
    print(f"eta-dist residual  : {eta_distance_identity(pts, data):.2e}")


if __name__ == "__main__":
    main()

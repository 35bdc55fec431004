"""Independent numerical oracles shared by the test suite.

These deliberately avoid the code paths they check: roots come from
sign-change bisection on a fixed grid instead of the critical-point
brackets of real_cubic_roots, fixed points from a grid scan of the raw
vector field polished by plain Newton, the fixed-point cubic from a
second algebraic route, and the loss threshold from bisection on the
cubic instead of its closed form.
"""

import math

import numpy as np

from atomol.fixed_points import cubic_coefficients, jacobian
from atomol.model import PoleError, ReducedParams, reduced_deriv


def eliminated_phase_polynomial(q, s):
    """Independent derivation of the fixed-point cubic.

    Eliminates theta between the stationarity conditions through
    sin^2 + cos^2 = 1 and clears denominators:

        4 Om^2 (1-3S)^2 - G^2 (1-S)(1-3S)^2 - 64 (CS-R)^2 (1-S).

    Must agree with cubic_coefficients (same polynomial, different
    algebraic route).
    """
    s = np.asarray(s, dtype=float)
    one_m3s2 = (1.0 - 3.0 * s) ** 2
    return (4.0 * q.omega ** 2 * one_m3s2
            - q.gamma ** 2 * (1.0 - s) * one_m3s2
            - 64.0 * (q.c * s - q.r) ** 2 * (1.0 - s))


def threshold_by_bisection(c, r, omega):
    """Locate the Gamma where the cubic gains a root at S = -1.

    The cubic's value at S = -1 is monotone decreasing in Gamma^2, so
    plain bisection on Gamma >= 0 brackets the sign change.  Returns
    None when there is no sign change.
    """

    def value_at_minus1(gamma):
        cc = cubic_coefficients(ReducedParams(c=c, omega=omega, r=r,
                                              gamma=gamma))
        return cc.evaluate(-1.0)

    lo, hi = 0.0, 1.0
    if value_at_minus1(lo) < 0.0:
        return None
    while value_at_minus1(hi) > 0.0:
        hi *= 2.0
        if hi > 1e9:
            return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if value_at_minus1(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_roots(poly, lo=-1.0, hi=1.0, n_grid=4001, tol=1e-12):
    """All sign-change roots of a scalar function on [lo, hi]."""
    xs = np.linspace(lo, hi, n_grid)
    vals = poly(xs)
    roots = []
    for i in range(n_grid - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            roots.append(float(xs[i]))
            continue
        if va * vb < 0.0:
            a, b = float(xs[i]), float(xs[i + 1])
            fa = poly(a)
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = poly(m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def newton_2d(q, s, theta, iters=40):
    """Plain 2D Newton on the raw reduced vector field."""
    for _ in range(iters):
        try:
            f = reduced_deriv(s, theta, q.c, q.omega, q.r, q.gamma,
                              eps_pole=0.0)
        except (PoleError, ValueError):
            return None
        if max(abs(f[0]), abs(f[1])) < 1e-10:
            return s, theta
        try:
            j = jacobian(s, theta, q, eps_pole=1e-12)
        except ValueError:
            return None
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        if abs(det) < 1e-14:
            return None
        s -= (j[1, 1] * f[0] - j[0, 1] * f[1]) / det
        theta -= (-j[1, 0] * f[0] + j[0, 0] * f[1]) / det
        if not -1.0 <= s < 1.0 - 1e-12:
            if s < -1.0:
                s = -1.0  # boundary family: polish along theta
            else:
                return None
    return None


def newton_survey(q, n_s=400, n_theta=400):
    """Grid sign-change scan plus Newton: independent fixed-point oracle.

    Returns converged (s, theta) pairs, one per flagged grid cell where
    both components of the raw vector field change sign.
    """
    s = np.linspace(-1.0 + 1e-6, 1.0 - 1e-4, n_s)
    th = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    S, T = np.meshgrid(s, th, indexing="ij")
    root = np.sqrt(1.0 - S)
    ds = -2.0 * q.omega * (1.0 + S) * root * np.sin(T) - q.gamma * (1.0 - S * S)
    dt = (4.0 * q.c * S - 4.0 * q.r
          - q.omega * (1.0 - 3.0 * S) / root * np.cos(T))

    def sign_change(f):
        a = f[:-1, :-1]
        hits = np.zeros(a.shape, dtype=bool)
        for block in (f[1:, :-1], f[:-1, 1:], f[1:, 1:]):
            hits |= np.signbit(a) != np.signbit(block)
        return hits

    cells = sign_change(ds) & sign_change(dt)
    found = []
    dth = th[1] - th[0]
    for i, j in zip(*np.nonzero(cells)):
        s0 = 0.5 * (s[i] + s[i + 1])
        t0 = float(th[j]) + 0.5 * dth
        point = newton_2d(q, s0, t0)
        if point is not None:
            found.append(point)
    return found

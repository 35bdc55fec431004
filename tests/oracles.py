"""Independent numerical oracles shared by the test suite.

These deliberately avoid the code paths they check: roots come from
sign-change bisection on a fixed grid instead of the critical-point
brackets of real_cubic_roots, fixed points from a grid scan of the raw
vector field polished by plain Newton, the fixed-point cubic from a
second algebraic route, the loss threshold from bisection on the
cubic instead of its closed form, and regime boundaries from bisection
between differing grid cells instead of the closed-form bifurcation set,
whose distance comes from a second parametrization of the fold, and the
solver steps from per-component comprehensions of the vector form
instead of the stages written out for a pair.
"""

import math

import numpy as np

from atomol.fixed_points import cubic_coefficients, jacobian
from atomol.integrate import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62,
    _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6, _C2, _C3, _C4, _C5, _E1, _E3,
    _E4, _E5, _E6, _E7, _PastEvent)
from atomol.model import PoleError, ReducedParams, reduced_deriv
from atomol.regimes import REGIME_LABELS, classify_regime


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


def _bisect_flip(p_a, p_b, label_a, omega, gamma, refine_tol):
    """Localize the label flip on the segment p_a -> p_b.

    Halts at refine_tol, or earlier when the midpoint rounds to an end
    and the segment can shrink no further.
    """
    a = np.asarray(p_a, dtype=float)
    b = np.asarray(p_b, dtype=float)
    while float(np.hypot(*(b - a))) > refine_tol:
        mid = 0.5 * (a + b)
        if np.array_equal(mid, a) or np.array_equal(mid, b):
            break
        lab = classify_regime(ReducedParams(c=float(mid[0]), omega=omega,
                                            r=float(mid[1]), gamma=gamma)).label
        if lab == label_a:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _chain_points(points, max_gap):
    """Greedy nearest-neighbor chaining of flip points into polylines."""
    remaining = list(range(len(points)))
    remaining.sort(key=lambda i: (points[i][0], points[i][1]))
    chains = []
    while remaining:
        chain = [remaining.pop(0)]
        extended = True
        while extended and remaining:
            extended = False
            for end in (chain[-1], chain[0]):
                d = np.hypot(points[remaining, 0] - points[end][0],
                             points[remaining, 1] - points[end][1])
                k = int(np.argmin(d))
                if d[k] <= max_gap:
                    idx = remaining.pop(k)
                    if end == chain[-1]:
                        chain.append(idx)
                    else:
                        chain.insert(0, idx)
                    extended = True
                    break
        chains.append(points[chain])
    return chains


def bisection_boundaries(rmap, refine_tol):
    """Regime boundaries of a scanned map by bisection between cells.

    Every pair of adjacent cells with two different regime labels is
    bisected along the connecting segment until the flip is localized
    within refine_tol, and the flip points are chained by proximity
    (gap 2.5 cell diagonals).  Returns [(label pair, (n, 2) points)].
    """
    nc, nr = len(rmap.c_axis), len(rmap.r_axis)
    flips = {}
    for i in range(nc):
        for j in range(nr):
            here = rmap.labels[i][j].label
            if here not in REGIME_LABELS:
                continue
            for i2, j2 in ((i + 1, j), (i, j + 1)):
                if i2 >= nc or j2 >= nr:
                    continue
                there = rmap.labels[i2][j2].label
                if there not in REGIME_LABELS or there == here:
                    continue
                pt = _bisect_flip(
                    (rmap.c_axis[i], rmap.r_axis[j]),
                    (rmap.c_axis[i2], rmap.r_axis[j2]),
                    here, rmap.omega, rmap.gamma, refine_tol)
                flips.setdefault(tuple(sorted((here, there))), []).append(pt)
    max_gap = 2.5 * math.hypot(rmap.c_axis[1] - rmap.c_axis[0],
                               rmap.r_axis[1] - rmap.r_axis[0])
    return [(key, chain) for key in sorted(flips)
            for chain in _chain_points(np.array(flips[key]), max_gap)]


def bifurcation_distance(points, omega, gamma):
    """Distance of each point to the bifurcation set, by a second route.

    With u = C s - R at a double root s of P(S) = 64 (C S - R)^2 (1 - S)
    - Q(S), Q(S) = (1 - 3S)^2 (4 Om^2 - G^2 (1 - S)), P = P' = 0 give u = +-sqrt(Q(s) / (64 (1 - s))) and
    C = (64 u^2 + Q'(s)) / (128 u (1 - s)), R = C s - u: the fold.  A root
    at the lowest admissible S, s0 = max(-1, 1 - 4 Om^2/G^2), gives the
    lines R = s0 C - u.  Each point's nearest fold sample on a dense s
    grid is refined by golden-section search.
    """
    pts = np.asarray(points, dtype=float)
    om2, g2 = omega * omega, gamma * gamma
    s0 = -1.0 if g2 <= 2.0 * om2 else 1.0 - 4.0 * om2 / g2

    def q(s):
        return (1.0 - 3.0 * s) ** 2 * (4.0 * om2 - g2 * (1.0 - s))

    def dq(s):
        return (-6.0 * (1.0 - 3.0 * s) * (4.0 * om2 - g2 * (1.0 - s))
                + (1.0 - 3.0 * s) ** 2 * g2)

    u0 = math.sqrt(max(q(s0), 0.0) / (64.0 * (1.0 - s0)))
    best = np.min([np.abs(pts[:, 1] - s0 * pts[:, 0] + u) / math.hypot(s0, 1.0)
                   for u in (u0, -u0)], axis=0)
    s = s0 + (1.0 - s0) * (0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, 20001)))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for sign in (1.0, -1.0):
        def dist(s, sign=sign):
            # s of shape (1, n) for a shared grid or (m, 1) per point
            with np.errstate(all="ignore"):
                u = sign * np.sqrt(q(s) / (64.0 * (1.0 - s)))
                c = (64.0 * u * u + dq(s)) / (128.0 * u * (1.0 - s))
                d = np.hypot(c - pts[:, :1], c * s - u - pts[:, 1:])
            return np.where(np.isfinite(d), d, np.inf)

        k = np.argmin(dist(s[None, :]), axis=1)
        a, b = s[np.maximum(k - 1, 0)], s[np.minimum(k + 1, len(s) - 1)]
        for _ in range(80):
            x1, x2 = b - golden * (b - a), a + golden * (b - a)
            left = (dist(x1[:, None]) < dist(x2[:, None])).ravel()
            a, b = np.where(left, a, x1), np.where(left, x2, b)
        best = np.minimum(best, dist(0.5 * (a + b)[:, None]).ravel())
    return best


def rk45_step(f, t, y, h, k1=None):
    """One Dormand-Prince step on a tuple state of any length.

    Same contract and bits as integrate._rk45_step: a right-hand side
    that overflows a float power or raises _PastEvent gives a NaN step.
    """
    try:
        if k1 is None:
            k1 = f(t, y)
        k2 = f(t + _C2 * h, tuple([yi + h * (_A21 * a)
                                   for yi, a in zip(y, k1)]))
        k3 = f(t + _C3 * h, tuple([yi + h * (_A31 * a + _A32 * b)
                                   for yi, a, b in zip(y, k1, k2)]))
        k4 = f(t + _C4 * h, tuple([yi + h * (_A41 * a + _A42 * b + _A43 * c)
                                   for yi, a, b, c in zip(y, k1, k2, k3)]))
        k5 = f(t + _C5 * h, tuple([
            yi + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]))
        k6 = f(t + h, tuple([
            yi + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
            for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]))
        y_new = tuple([
            yi + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
            for yi, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)])
        k7 = f(t + h, y_new)
    except (OverflowError, _PastEvent):
        nan = tuple([math.nan * yi for yi in y])
        return nan, nan, nan
    err = [h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * k)
           for a, c, d, e, g, k in zip(k1, k3, k4, k5, k6, k7)]
    return y_new, err, k7


def error_norm(err, y, y_new, rtol, atol):
    """integrate._error_norm on a tuple state of any length.

    The squares are summed left to right, as numpy sums a short array.
    """
    n = len(y)
    mags = np.abs(np.array([*err, *y, *y_new])).tolist()
    total = 0.0
    for e, a, b in zip(mags[:n], mags[n:2 * n], mags[2 * n:]):
        # a NaN magnitude or a zero scale made numpy's ratio non-finite
        scale = atol + rtol * (a if a >= b else b)
        if a != a or not scale > 0.0:
            return math.inf
        ratio = e / scale
        if not math.isfinite(ratio):
            return math.inf
        total += ratio * ratio
    return math.sqrt(total / n)


def rk4_step(f, t, y, h):
    """One classical 4th-order step on a tuple state (NaN on overflow)."""
    try:
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, tuple([yi + 0.5 * h * a for yi, a in zip(y, k1)]))
        k3 = f(t + 0.5 * h, tuple([yi + 0.5 * h * b for yi, b in zip(y, k2)]))
        k4 = f(t + h, tuple([yi + h * c for yi, c in zip(y, k3)]))
    except OverflowError:
        return tuple([math.nan * yi for yi in y])
    return tuple([yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])

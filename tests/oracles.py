"""Independent numerical oracles shared by the test suite.

These deliberately avoid the code paths they check: roots come from
sign-change bisection on a fixed grid instead of the critical-point
brackets of real_cubic_roots, fixed points from a grid scan of the raw
vector field polished by plain Newton, the fixed-point cubic from a
second algebraic route, the loss threshold from bisection on the
cubic instead of its closed form, and regime boundaries from bisection
between differing grid cells instead of the closed-form bifurcation set,
whose distance comes from a second parametrization of the fold, the
S range of a zero-loss orbit from bisection on its conserved energy, the
tracer's chord distance from all pairs instead of bucketed chords, the
Jacobian and its spectrum as numpy 2x2 arrays, and the solver steps
from per-component comprehensions of the vector form instead of the
stages written out for a pair; the 8(5,3) step loops
over a tableau gathered from the module's coefficient names, the
adaptive solve loop keeps its builtin min/max step control, evaluates
each solve's and each bisection step's first stage afresh and steps
with the generic steps, whose results nest (solve_adaptive,
_initial_step and _locate_event as they were before their first stages
were shared and their steps' results were flat), the unit-norm lift
in the float-first order of its products, CSV and
JSON tables are built row by row instead of per column, and the cells
table of a regime map from one row per cell instead of from its axes
and label codes (write_cells is the regimes command's cells writer).

The test-only helpers at the end (sweep_rhs, serialize_config,
params_from_gamma, ATTRACTOR_KINDS and REPELLER_KINDS, cubic_derivative)
are named here because the program itself never needs them.
"""

import json
import math
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from atomol import integrate
from atomol.cli import _write_cells as write_cells
from atomol.fixed_points import (
    KIND_NODE_ATTRACTOR, KIND_NODE_REPELLER, KIND_SPIRAL_ATTRACTOR,
    KIND_SPIRAL_REPELLER, _jacobian_entries, _spectrum, cubic_coefficients)
from atomol.io import SCHEMA, ConfigError, format_value
from atomol.integrate import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62,
    _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6, _C2, _C3, _C4, _C5, _E1, _E3,
    _E4, _E5, _E6, _E7, _MAX_FACTOR, _MIN_FACTOR, _SAFETY, MAX_STEPS,
    StepBudgetError, StepUnderflowError, _as_state)
from atomol.model import (EPS_POLE, Params, PoleError, ReducedParams,
                          reduced_deriv, unit_norm_deriv)
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


def jacobian(s, theta, q, eps_pole=EPS_POLE):
    """Analytic Jacobian of the reduced flow at (s, theta), a numpy 2x2
    array of fixed_points._jacobian_entries.

    Satisfies trace(J) = 2*Gamma*S identically: the theta-dependent
    parts of dSdot/dS and dthetadot/dtheta cancel exactly.
    """
    return np.array(_jacobian_entries(s, theta, q, eps_pole)).reshape(2, 2)


def eigenvalues_2x2(j):
    """Closed-form eigenvalues of a real 2x2 matrix (fixed_points._spectrum)."""
    return _spectrum(*j.ravel())[0]


def classify(j, tol=1e-9):
    """Stability class from the Jacobian eigenvalues (see _spectrum)."""
    return _spectrum(*j.ravel(), tol)[1]


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
    labels = [[rmap.table[k].label for k in row] for row in rmap.codes.tolist()]
    flips = {}
    for i in range(nc):
        for j in range(nr):
            here = labels[i][j]
            if here not in REGIME_LABELS:
                continue
            for i2, j2 in ((i + 1, j), (i, j + 1)):
                if i2 >= nc or j2 >= nr:
                    continue
                there = labels[i2][j2]
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


def distance_to_chords(pts, chords):
    """Distance from each point (n, 2) to the nearest chord (m, 2, 2).

    A zero-length chord reads NaN and is skipped; its point ends the
    chords next to it.  The all-pairs form regimes._distance_to_chords
    had before it bucketed the chords; below its reach that gives these
    bits.
    """
    a, ab = chords[:, 0], chords[:, 1] - chords[:, 0]
    length2 = np.einsum("ij,ij->i", ab, ab)
    dist = np.full(len(pts), np.inf)
    rows = max(1, 2 ** 20 // max(1, len(chords)))  # bounds the memory
    for k in range(0, len(pts), rows):
        d = pts[k:k + rows, None, :] - a
        t = np.clip(np.einsum("nmj,mj->nm", d, ab) / length2, 0.0, 1.0)
        foot = d - t[..., None] * ab
        gap = np.hypot(foot[..., 0], foot[..., 1])
        dist[k:k + rows] = np.fmin.reduce(gap, axis=1, initial=np.inf)
    return dist


def rk45_step(f, t, y, h, k1=None):
    """One Dormand-Prince step on a tuple state of any length.

    Returns (y_new, err, k_last), or None where a right-hand side
    raises PoleError, a stage past the S = 1 pole of the chart: the bits
    of integrate._rk45_step in the nesting of the vector form, where
    that step raises, and of the chart's own step, which gives None.
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
    except PoleError:
        return None
    err = [h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * k)
           for a, c, d, e, g, k in zip(k1, k3, k4, k5, k6, k7)]
    return y_new, err, k7


def error_norm(err, y, y_new, rtol, atol, h=None):
    """integrate._float_norm on a tuple state of any length.

    The magnitudes are Python's abs, and one past the largest float,
    where abs of a complex raises, gives inf.  h is unused, as there.
    """
    n = len(y)
    try:
        mags = [abs(v) for v in (*err, *y, *y_new)]
    except OverflowError:
        return math.inf
    total = 0.0
    for e, a, b in zip(mags[:n], mags[n:2 * n], mags[2 * n:]):
        scale = atol + rtol * (a if a >= b else b)
        if a != a or not scale > 0.0:
            return math.inf
        ratio = e / scale
        if not math.isfinite(ratio):
            return math.inf
        total += ratio * ratio
    return math.sqrt(total / n)


def rk4_step(f, t, y, h):
    """One classical 4th-order step on a tuple state."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, tuple([yi + 0.5 * h * a for yi, a in zip(y, k1)]))
    k3 = f(t + 0.5 * h, tuple([yi + 0.5 * h * b for yi, b in zip(y, k2)]))
    k4 = f(t + h, tuple([yi + h * c for yi, c in zip(y, k3)]))
    return tuple([yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])


def _dop853_tableau():
    """(c, a, b, e5, bhh) of the 8(5,3) pair as dense lists, 12 stages.

    Gathered from integrate's _DC<i>, _DA<i>_<j>, _DB<j>, _DE<j> and
    _DBHH<j> names; a name that does not exist is a zero entry.
    """
    def coef(name):
        return getattr(integrate, name, 0.0)

    c = [0.0] + [coef(f"_DC{i}") for i in range(2, 12)] + [1.0]
    a = [[coef(f"_DA{i}_{j}") for j in range(1, i)] for i in range(1, 13)]
    b, e5, bhh = ([coef(f"{p}{j}") for j in range(1, 13)]
                  for p in ("_DB", "_DE", "_DBHH"))
    return c, a, b, e5, bhh


DOP853_TABLEAU = _dop853_tableau()


def _weighted_sum(weights, ks, m):
    """sum_j weights[j] ks[j][m] over the nonzero weights, left to right."""
    terms = [w * k[m] for w, k in zip(weights, ks) if w != 0.0]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def dop853_step(f, t, y, h, k1=None):
    """One Dormand-Prince 8(5,3) step on a tuple state of any length.

    Returns (y_new, (err5, err3), k_last) or None, from a loop over the
    dense tableau: the reference that integrate._sweep_dop853_step keeps
    the bits of, up to the sign of a zero and where a part is not finite.
    """
    c, a, b, e5, bhh = DOP853_TABLEAU
    n = range(len(y))
    try:
        ks = [f(t, y) if k1 is None else k1]
        for i in range(1, 12):
            ks.append(f(t + c[i] * h, tuple([
                y[m] + h * _weighted_sum(a[i], ks, m) for m in n])))
        sums = [_weighted_sum(b, ks, m) for m in n]
        y_new = tuple([y[m] + h * sums[m] for m in n])
        k_last = f(t + h, y_new)
    except PoleError:
        return None
    err3 = []
    for m in n:
        total = sums[m]
        for w, k in zip(bhh, ks):
            if w != 0.0:
                total = total - w * k[m]
        err3.append(total)
    err5 = tuple([_weighted_sum(e5, ks, m) for m in n])
    return y_new, (err5, tuple(err3)), k_last


def dop853_norm(err, y, y_new, rtol, atol, h):
    """integrate._dop853_norm on a tuple state of any length."""
    err5, err3 = err
    sq5 = sq3 = 0.0
    for e5, e3, yi, yn in zip(err5, err3, y, y_new):
        a, b = abs(yi), abs(yn)
        scale = atol + rtol * (a if a >= b else b)
        if a != a or not scale > 0.0:
            return math.inf
        r5, r3 = abs(e5) / scale, abs(e3) / scale
        sq5 += r5 * r5
        sq3 += r3 * r3
    denom = (sq5 + 0.01 * sq3) * 2.0
    if not math.isfinite(denom):
        return math.inf
    if denom == 0.0:
        return 0.0
    return abs(h) * sq5 / math.sqrt(denom)


def flat_dop853_step(f, t, y, h, k1=None):
    """dop853_step with the flat result of integrate's steps, (*y_new,
    *k_last, *err5, *err3), or None: an 8(5,3) step over any right-hand
    side for integrate.solve_adaptive."""
    res = dop853_step(f, t, y, h, k1)
    if res is None:
        return None
    y_new, (err5, err3), k_last = res
    return (*y_new, *k_last, *err5, *err3)


def rk45_growth(err_norm):
    """The 4(5) pair's step-size ratio, err_norm ** -1/5."""
    return err_norm ** -0.2


def dop853_growth(err_norm):
    """The 8(5,3) pair's step-size ratio, err_norm ** -1/8 as the
    reciprocal of the square root of the fourth root."""
    return 1.0 / math.sqrt(math.sqrt(math.sqrt(err_norm)))


# pair name -> (step, error norm, step-size ratio) of this module's
# loop, as integrate._solve picks them
PAIRS = {"rk45": (rk45_step, error_norm, rk45_growth),
         "dop853": (dop853_step, dop853_norm, dop853_growth)}


def float_first_unit_norm_deriv(a, b, c, omega, r, gamma):
    """model.unit_norm_deriv with every float-by-complex product written
    float-first (2 Omega conj(a) b, Gamma/2 (1 - S) a), as the model
    wrote it: the reference its complex-first form keeps the bits of."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
    da = -1j * ((r - c * s) * a + 2.0 * omega * a.conjugate() * b) \
        - 0.5 * gamma * (1.0 - s) * a
    db = -1j * (omega * a * a + (-2.0 * r + 2.0 * c * s) * b) \
        + 0.5 * gamma * (1.0 + s) * b
    return da, db


def _rms(values, scales):
    """sqrt(mean((|v| / scale)^2)) with Python's abs, summed left to
    right; NaN where a magnitude overflows or a scale is zero."""
    try:
        ratios = [abs(v) / sc for v, sc in zip(values, scales)]
    except (OverflowError, ZeroDivisionError):
        return math.nan
    total = 0.0
    for r in ratios:
        total += r * r
    return math.sqrt(total / len(ratios))


def _initial_step(f, t0, y0, rtol, atol, t_final):
    """Conservative first step from the size of the initial derivative."""
    f0 = f(t0, y0)
    try:
        scales = [atol + rtol * abs(v) for v in y0]
    except OverflowError:
        scales = [math.nan] * len(y0)
    d0, d1 = _rms(y0, scales), _rms(f0, scales)
    if (d0 < 1e-5 or d1 < 1e-5
            or not math.isfinite(d0) or not math.isfinite(d1)):
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    return min(h0, 0.1 * (t_final - t0))


def solve_adaptive(f: Callable, t0: float, y0, t_final: float,
                   rtol: float = 1e-11, atol: float = 1e-11,
                   record_every: int = 1,
                   event: Optional[Callable] = None,
                   step: Callable = rk45_step,
                   norm: Callable = error_norm,
                   growth: Callable = rk45_growth):
    """integrate.solve_adaptive with builtin min/max step control, a
    fresh first stage on the first step and on each bisection step, and
    steps that return (y_new, err, k_last), or None for a failed step
    of infinite norm."""
    # a numpy scalar here would make every step numpy-scalar arithmetic
    t0, t_final = float(t0), float(t_final)
    y = _as_state(y0)
    t = t0
    times = [t0]
    states = [y]
    h = _initial_step(f, t0, y, rtol, atol, t_final)
    attempted = 0
    accepted = 0
    event_state = None
    k1 = None
    tiny = 16.0 * np.finfo(float).eps

    while t < t_final:
        h = min(h, t_final - t)
        if h < tiny * max(1.0, abs(t)):
            raise StepUnderflowError(t)
        if attempted == MAX_STEPS:
            raise StepBudgetError(
                f"step budget of {MAX_STEPS} steps exceeded at t = {t!r}")
        attempted += 1
        res = step(f, t, y, h, k1)
        if res is None:
            err_norm = math.inf
        else:
            y_new, err, k_last = res
            err_norm = norm(err, y, y_new, rtol, atol, h)
        if err_norm > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * growth(err_norm))
            continue
        # step accepted
        if event is not None and event(t + h, y_new) >= 0.0:
            t, y = _locate_event(f, event, t, y, h, step)
            event_state = (t, y)
            times.append(t)
            states.append(y)
            break
        t += h
        y = y_new
        k1 = k_last
        accepted += 1
        if accepted % record_every == 0 or t >= t_final:
            times.append(t)
            states.append(y)
        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR,
                         max(_MIN_FACTOR, _SAFETY * growth(err_norm)))
        h *= factor

    if times[-1] != t:
        times.append(t)
        states.append(y)
    return np.array(times), np.array(states), event_state


def _locate_event(f, event, t, y, h, step):
    """Bisect the step size to land just before the event crossing."""
    lo, hi = 0.0, h
    y_lo = y
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        res = step(f, t, y, mid)
        if res is not None and event(t + mid, res[0]) < 0.0:
            lo, y_lo = mid, res[0]
        else:
            hi = mid
    return t + lo, y_lo


def zero_loss_s_range(s0, theta0, c, omega, r, grid=1e-4):
    """The S interval that the Gamma = 0 orbit from (s0, theta0) sweeps.

    The flow keeps E = 2 Om (1+S) sqrt(1-S) cos(theta) - 2CS^2 + 4RS, so
    the orbit reaches only the S where some theta gives E = E0, where
    room(S) = 2 Om (1+S) sqrt(1-S) - |E0 + 2CS^2 - 4RS| >= 0.  Each end
    is s0 itself, where there is no room just beyond it, or the root of
    room, a turning point with E(S, pi) = E0 or E(S, 0) = E0, found by
    stepping out from s0 on a grid to the first point without room (or
    S = -1 or 1) and bisecting.
    """
    e0 = (2.0 * omega * (1.0 + s0) * math.sqrt(1.0 - s0) * math.cos(theta0)
          - 2.0 * c * s0 * s0 + 4.0 * r * s0)

    def room(s):
        return (2.0 * omega * (1.0 + s) * math.sqrt(1.0 - s)
                - abs(e0 + 2.0 * c * s * s - 4.0 * r * s))

    ends = []
    for sign in (-1.0, 1.0):
        if room(s0 + sign * 1e-9) < 0.0:
            ends.append(s0)
            continue
        inside, k = s0, 1
        while True:
            outside = s0 + sign * grid * k
            if abs(outside) >= 1.0:
                outside = sign
                break
            if room(outside) < 0.0:
                break
            inside, k = outside, k + 1
        while True:
            mid = 0.5 * (inside + outside)
            if mid == inside or mid == outside:
                break
            if room(mid) >= 0.0:
                inside = mid
            else:
                outside = mid
        ends.append(inside)
    return ends[0], ends[1]


def write_csv_rows(path, header, rows):
    """io.write_table's csv built row by row: every value's text is its
    own repr when it is an exact float and format_value otherwise."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([repr(v) if type(v) is float else format_value(v)
                               for v in row]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json_rows(path, header, rows):
    """io.write_table's json as one json.dumps of a record per row."""
    records = [dict(zip(header, row)) for row in rows]
    Path(path).write_text(json.dumps(records, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


CELL_HEADER = ["c", "r", "label", "n_interior", "has_boundary_fp"]


def map_cells(rmap):
    """(c, r, label) of every cell of a RegimeMap, row-major, with the
    axes as Python floats."""
    r_axis = rmap.r_axis.tolist()
    for c, codes in zip(rmap.c_axis.tolist(), rmap.codes.tolist()):
        for r, code in zip(r_axis, codes):
            yield c, r, rmap.table[code]


def cell_rows(rmap):
    """The cells table's rows of a map, one list per cell."""
    return [[c, r, lab.label, lab.n_interior, lab.has_boundary_fp]
            for c, r, lab in map_cells(rmap)]


def sweep_rhs(c, omega, gamma, beta, half):
    """The sweep's right-hand side f(t, y), model.unit_norm_deriv at
    R(t) = beta (t - half), as experiments._terminal_efficiency builds
    it: the f of the generic steps that the sweep's own step is pinned
    to."""
    def f(t, y):
        return unit_norm_deriv(y[0], y[1], c, omega, beta * (t - half),
                               gamma)

    return f


def serialize_config(values: dict) -> str:
    """Render a flat config dict back to INI text."""
    by_section: dict[str, dict] = {}
    for flat_key, val in values.items():
        section, key = flat_key.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        by_section.setdefault(section, {})[key] = val
    lines = []
    for section in SCHEMA:
        if section not in by_section:
            continue
        lines.append(f"[{section}]")
        for key in SCHEMA[section]:
            if key in by_section[section]:
                val = by_section[section][key]
                text = (",".join(map(format_value, val)) if isinstance(val, list)
                        else format_value(val))
                lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def params_from_gamma(v=1.0, u=0.0, r=0.0, gamma_minus=0.0,
                      gamma_plus=0.0) -> Params:
    """Params from the paper's total and relative decoherence rates
    (Gamma_+, Gamma_-), which Params reads back as gamma_plus and
    gamma_minus."""
    return Params(v=v, u=u, r=r,
                  gamma_a=gamma_plus + gamma_minus,
                  gamma_b=gamma_plus - gamma_minus)


ATTRACTOR_KINDS = (KIND_SPIRAL_ATTRACTOR, KIND_NODE_ATTRACTOR)
REPELLER_KINDS = (KIND_SPIRAL_REPELLER, KIND_NODE_REPELLER)


def cubic_derivative(cc, s):
    """The fixed-point cubic's derivative at s, of CubicCoefficients cc."""
    return (3.0 * cc.c3 * s + 2.0 * cc.c2) * s + cc.c1

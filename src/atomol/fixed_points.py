"""Fixed points of the reduced flow and their linear stability.

Setting dS/dt = 0 pins the phase through sin(theta) =
-(Gamma/2 Omega) sqrt(1-S); eliminating theta from dtheta/dt = 0 with
sin^2 + cos^2 = 1 leaves a real cubic in S,

    (9 G^2 + 64 C^2) S^3
  - (15 G^2 - 36 Om^2 + 64 C^2 + 128 C R) S^2
  - (24 Om^2 - 7 G^2 - 64 R^2 - 128 C R) S
  - (G^2 - 4 Om^2 + 64 R^2)  =  0.

Interior fixed points are the validated real roots in (-1, 1); a
boundary family lives at S = -1 with theta = arccos(-sqrt2 (C+R)/Omega).
The closed-form critical points split the real line into pieces on
which the cubic is monotone; a critical point where it vanishes is a
double root, and each piece with a sign change holds one simple root,
found by Newton steps kept inside the shrinking bracket.  Every
candidate is re-verified against the raw vector field, which rejects
the spurious roots introduced by the squaring step.

Stability follows from the 2x2 Jacobian of the flow.  Its trace equals
2 Gamma S identically, so any non-saddle fixed point is a repeller when
Gamma and S share a sign and an attractor when they differ.  _spectrum
is the one rule from eigenvalues to a kind.

The census of interior fixed points has two forms that find the same
points:

- The scalar core (interior_census, real_cubic_roots, _polish_point,
  _spectrum) runs on Python floats, for one point at a time; length-1
  numpy calls are slower.  It serves the fixed-points and portrait
  commands, and it is the reference of the array form.  Its stages
  without the spectra (_interior_roots) serve the regime label of one
  point (regimes.classify_regime).
- The array census (_census_arrays) runs the stages of _interior_roots
  over a whole grid of points at once: coefficients, Cauchy bound,
  critical points, double roots, bracketed Newton, phase, 2D polish and
  residual gate, dedupe and degeneracy flags, for a grid's regime
  labels (regimes.regime_census).  The loops are masked: they iterate
  until every element has stopped, by the scalar code's branch rules,
  with its expressions in its order.  By the rule of model._mapped for
  Python's bits over an array, the phase (atan2) goes through Python,
  one call per element.  The cubes and squares of real_cubic_roots and
  of the polish Jacobian are products (x * x * x) in both forms, which
  numpy and Python round alike, so neither form takes them from libm's
  pow, whose bits glibc picks by the CPU's FMA support.  A point where
  the scalar census raises (a polish step to an infinite phase, a point
  within EPS_POLE of the pole, a non-finite one) is marked, to be
  handed to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (EPS_POLE, TWO_PI, PoleError, ReducedParams, _mapped,
                    angle_distance, reduced_deriv)

KIND_CENTER = "center"
KIND_SPIRAL_ATTRACTOR = "spiral-attractor"
KIND_SPIRAL_REPELLER = "spiral-repeller"
KIND_NODE_ATTRACTOR = "node-attractor"
KIND_NODE_REPELLER = "node-repeller"
KIND_SADDLE = "saddle"
KIND_INDETERMINATE = "indeterminate"

# Residual gate on reported fixed points, max(|dS/dt|, |dtheta/dt|).
RESIDUAL_TOL = 1e-9

# Interior roots closer than this to S = -1 sit on a census bifurcation.
BOUNDARY_MARGIN = 1e-9

# A critical point where the cubic is within this fraction of its
# largest term there is a double root.
DOUBLE_ROOT_TOL = 1e-10


class CubicCoefficients(NamedTuple):
    """Coefficients of the fixed-point cubic, highest power first."""

    c3: float
    c2: float
    c1: float
    c0: float

    def evaluate(self, s):
        return ((self.c3 * s + self.c2) * s + self.c1) * s + self.c0


@dataclass(frozen=True)
class FixedPoint:
    """Location, stability class, and diagnostics of one fixed point."""

    s: float
    theta: float
    kind: str
    eigenvalues: tuple[complex, complex]
    residual: float
    on_boundary: bool = False
    multiplicity: int = 1


def _coefficients(c, omega, r, gamma):
    """(c3, c2, c1, c0) of the fixed-point cubic, of floats or arrays."""
    g2 = gamma * gamma
    om2 = omega * omega
    c2_ = c * c
    r2 = r * r
    cr = c * r
    return (9.0 * g2 + 64.0 * c2_,
            -(15.0 * g2 - 36.0 * om2 + 64.0 * c2_ + 128.0 * cr),
            -(24.0 * om2 - 7.0 * g2 - 64.0 * r2 - 128.0 * cr),
            -(g2 - 4.0 * om2 + 64.0 * r2))


def cubic_coefficients(q: ReducedParams) -> CubicCoefficients:
    """Fixed-point polynomial in S for the reduced flow."""
    return CubicCoefficients(*_coefficients(q.c, q.omega, q.r, q.gamma))


def _critical_points(c3: float, c2: float, c1: float) -> list[float]:
    """Real roots of the cubic's derivative (closed form)."""
    a, b, c = 3.0 * c3, 2.0 * c2, c1
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    qf = -0.5 * (b + math.copysign(root, b)) if b != 0.0 else 0.5 * root
    out = []
    if qf != 0.0:
        out.extend([qf / a, c / qf])
    else:
        out.append(0.0)
    return out


def _bracketed_root(c3: float, c2: float, c1: float, c0: float,
                    lo: float, hi: float, p_lo: float) -> float:
    """The simple root of a cubic that is monotone on [lo, hi].

    p_lo is the value at lo and the value at hi has the opposite sign.
    Newton steps that would leave the shrinking bracket are replaced by
    bisection; the iterate with the smallest |p| is returned.
    """
    d3, d2 = 3.0 * c3, 2.0 * c2
    x = 0.5 * (lo + hi)
    best, best_val = x, math.inf
    lo_negative = p_lo < 0.0
    while True:
        p = ((c3 * x + c2) * x + c1) * x + c0
        size = abs(p)
        if size < best_val:
            best, best_val = x, size
        if p == 0.0:
            break
        if (p < 0.0) == lo_negative:
            lo = x
        else:
            hi = x
        d = (d3 * x + d2) * x + c1
        newton = x - p / d if d != 0.0 else math.nan
        if newton == x:
            break  # the Newton step is below the last bit
        if lo < newton < hi:
            x = newton
        else:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break  # the bracket cannot shrink
    return best


def real_cubic_roots(cc: CubicCoefficients) -> list[tuple[float, int]]:
    """Real roots of the cubic with multiplicities, in ascending order.

    Leading coefficients below 1e-14 of the largest are dropped.  The
    critical points split the line into pieces on which the polynomial
    is monotone; the outer pieces end at the Cauchy bound.  A critical
    point where p vanishes against its largest term is a double root,
    and every piece whose ends have strictly opposite signs holds one
    simple root (_bracketed_root).
    """
    c3, c2, c1, c0 = cc
    tiny = 1e-14 * max(abs(c3), abs(c2), abs(c1), abs(c0))
    if abs(c3) > tiny:
        bound = 1.0 + max(abs(c2 / c3), abs(c1 / c3), abs(c0 / c3))
    elif abs(c2) > tiny:
        c3, bound = 0.0, 1.0 + max(abs(c1 / c2), abs(c0 / c2))
    elif abs(c1) > tiny:
        c3, c2, bound = 0.0, 0.0, 1.0 + abs(c0 / c1)
    else:
        return []
    xs = [-bound, *sorted(x for x in _critical_points(c3, c2, c1)
                          if -bound < x < bound), bound]
    ps = [((c3 * x + c2) * x + c1) * x + c0 for x in xs]
    for k in range(1, len(xs) - 1):
        x = xs[k]
        local = max(abs(c3 * (x * x * x)), abs(c2 * (x * x)), abs(c1 * x),
                    abs(c0))
        if abs(ps[k]) <= DOUBLE_ROOT_TOL * local:
            ps[k] = 0.0  # double root at a critical point
    roots: list[tuple[float, int]] = []
    for k in range(1, len(xs)):
        if ps[k - 1] < 0.0 < ps[k] or ps[k] < 0.0 < ps[k - 1]:
            roots.append((_bracketed_root(c3, c2, c1, c0, xs[k - 1], xs[k],
                                          ps[k - 1]), 1))
        if ps[k] == 0.0:
            roots.append((xs[k], 2))
    return roots


def _check_pole(s: float, eps_pole: float = EPS_POLE):
    """The Jacobian's guard: S within eps_pole of the pole S = 1 raises."""
    if s >= 1.0 - eps_pole:
        raise ValueError(f"jacobian evaluated too close to the S = 1 pole: {s}")


def _jacobian_entries(s: float, theta: float, q: ReducedParams,
                      eps_pole: float = EPS_POLE):
    """Entries (j11, j12, j21, j22) of the Jacobian; j11 + j22 = 2 Gamma S."""
    _check_pole(s, eps_pole)
    root = math.sqrt(1.0 - s)
    return _jacobian_terms(s, math.sin(theta), math.cos(theta), root,
                           root * root * root, q.c, q.omega, q.gamma)


def _jacobian_terms(s, sin_t, cos_t, root, root3, c, omega, gamma):
    """Jacobian entries from sin, cos, sqrt(1-S) and its cube; floats or arrays."""
    shear = omega * (1.0 - 3.0 * s) / root
    j11 = -shear * sin_t + 2.0 * gamma * s
    j12 = -2.0 * omega * (1.0 + s) * root * cos_t
    j21 = 4.0 * c + omega * (5.0 - 3.0 * s) * cos_t / (2.0 * root3)
    j22 = shear * sin_t
    return j11, j12, j21, j22


def _spectrum(j11, j12, j21, j22, tol=1e-9):
    """Closed-form eigenvalues of [[j11, j12], [j21, j22]] and their class.

    tol is scaled by the eigenvalue magnitude.  Both real parts below
    -tol give an attractor, both above +tol a repeller (node or spiral
    by the sign of the discriminant), opposite signs a saddle, and
    vanishing real parts with rotation a center.  A doubly degenerate
    spectrum is reported as indeterminate.
    """
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    disc = 0.25 * tr * tr - det
    if disc >= 0.0:
        root = math.sqrt(disc)
        lam1, lam2 = complex(0.5 * tr + root), complex(0.5 * tr - root)
    else:
        root = math.sqrt(-disc)
        lam1, lam2 = complex(0.5 * tr, root), complex(0.5 * tr, -root)
    lams = (lam1, lam2)
    size1, size2 = abs(lam1), abs(lam2)
    t = tol * max(1.0, size1, size2)
    re1, re2 = lam1.real, lam2.real
    spiral = abs(lam1.imag) > t
    if size1 <= t and size2 <= t:
        return lams, KIND_INDETERMINATE
    if re1 < -t and re2 < -t:
        return lams, KIND_SPIRAL_ATTRACTOR if spiral else KIND_NODE_ATTRACTOR
    if re1 > t and re2 > t:
        return lams, KIND_SPIRAL_REPELLER if spiral else KIND_NODE_REPELLER
    if (re1 > t and re2 < -t) or (re1 < -t and re2 > t):
        return lams, KIND_SADDLE
    if abs(re1) <= t and abs(re2) <= t and spiral:
        return lams, KIND_CENTER
    return lams, KIND_INDETERMINATE


def residual(s: float, theta: float, q: ReducedParams) -> float:
    """max(|dS/dt|, |dtheta/dt|) of the raw vector field."""
    ds, dtheta = reduced_deriv(s, theta, q.c, q.omega, q.r, q.gamma,
                               eps_pole=0.0)
    return max(abs(ds), abs(dtheta))


def _polish_point(s: float, theta: float, q: ReducedParams):
    """Safeguarded 2D Newton on the raw vector field: (s, theta, residual).

    It inlines model.reduced_deriv with eps_pole = 0 bit for bit, pole guard
    included (test_polish_inlines_reduced_deriv), and _jacobian_entries.
    """
    c, omega, r, gamma = q.c, q.omega, q.r, q.gamma
    for k in range(21):  # the start, then up to 20 Newton steps
        if s >= 1.0:
            raise PoleError(f"reduced flow evaluated at S = {s} (pole at S = 1)")
        root = math.sqrt(1.0 - s)
        sin_t, cos_t = math.sin(theta), math.cos(theta)
        ds_dt = -2.0 * omega * (1.0 + s) * root * sin_t - gamma * (1.0 - s * s)
        dth_dt = 4.0 * c * s - 4.0 * r - omega * (1.0 - 3.0 * s) / root * cos_t
        res = max(abs(ds_dt), abs(dth_dt))
        if k and not res < best_res:
            break
        best_s, best_t, best_res = s, theta, res
        if k == 20 or res < 1e-14 or s >= 1.0 - 1e-14:
            break  # the last step, the floor, or the Jacobian's pole guard
        j11, j12, j21, j22 = _jacobian_terms(s, sin_t, cos_t, root,
                                             root * root * root, c, omega,
                                             gamma)
        det = j11 * j22 - j12 * j21
        norm = max(abs(j11), abs(j12), abs(j21), abs(j22), 1e-300)
        if abs(det) < 1e-12 * norm * norm:
            break
        s_new = s - (j22 * ds_dt - j12 * dth_dt) / det
        theta = theta - (-j21 * ds_dt + j11 * dth_dt) / det
        if not -1.0 < s_new < 1.0 - 1e-14:
            break
        s = s_new
    return best_s, best_t, best_res


def interior_census(q: ReducedParams) -> tuple[list[FixedPoint], bool]:
    """Interior fixed points, and whether their census is degenerate.

    The points of _interior_roots, each with its eigenvalues and kind
    (_spectrum of the Jacobian there).
    """
    roots, degenerate = _interior_roots(q)
    points = []
    for s_fp, theta_fp, res, mult in roots:
        eigenvalues, kind = _spectrum(*_jacobian_entries(s_fp, theta_fp, q))
        points.append(FixedPoint(s=s_fp, theta=theta_fp, kind=kind,
                                 eigenvalues=eigenvalues, residual=res,
                                 on_boundary=False, multiplicity=mult))
    return points, degenerate


def _interior_roots(q: ReducedParams):
    """The root, phase, polish and gate stages of interior_census:
    (s, theta, residual, multiplicity) of each interior fixed point,
    sorted by (s, theta), and the degeneracy flag.  No spectra, which no
    regime label reads; a point within EPS_POLE of the pole raises the
    Jacobian's error all the same.

    Candidate S values are the real cubic roots; the phase is recovered
    from the sine condition with the cosine branch fixed by the
    stationarity of theta.  Where the cosine coefficient vanishes
    (S = 1/3 with C S = R) both phase branches are returned.  Every
    candidate is polished on the raw vector field and must pass the
    residual gate, which rejects spurious squaring roots.

    The census is degenerate when it sits on a bifurcation of the root
    structure: a root at the S = -1 boundary, a double root in (-1, 1)
    that does not carry exactly two phase points (a fold; on the
    vacuous-phase line a double root carries two regular points), or a
    double root where the two phase points coincide (|sin theta| = 1,
    a phase-envelope touch).
    """
    c, omega, r, gamma = q.c, q.omega, q.r, q.gamma
    if not omega > 0:
        raise ValueError("interior fixed points require omega > 0")
    cc = cubic_coefficients(q)
    c3, c2, c1, c0 = cc
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0), 1e-300)
    degenerate = abs(((c3 * -1.0 + c2) * -1.0 + c1) * -1.0 + c0) <= 1e-9 * scale
    folds = []  # (S, unclipped sin theta) of the double roots in (-1, 1)
    points = []  # (s, theta, residual, multiplicity)
    for s_root, mult in real_cubic_roots(cc):
        if not -1.0 < s_root < 1.0:
            continue
        root1ms = math.sqrt(1.0 - s_root)
        sin_c = -gamma * root1ms / (2.0 * omega)
        if mult > 1:
            folds.append((s_root, sin_c))
        if not (-1.0 + BOUNDARY_MARGIN < s_root < 1.0 - EPS_POLE):
            continue
        if abs(sin_c) > 1.0 + 1e-9:
            continue
        sin_c = min(1.0, max(-1.0, sin_c))
        coef = omega * (1.0 - 3.0 * s_root) / root1ms
        inhom = 4.0 * c * s_root - 4.0 * r
        if abs(coef) <= 1e-6 * omega:
            # cosine equation vacuous: S = 1/3 with C S = R
            if abs(inhom) > 1e-6 * max(1.0, abs(4.0 * c) + abs(4.0 * r)):
                continue
            cos_m = math.sqrt(max(0.0, 1.0 - sin_c * sin_c))
            candidates = [math.atan2(sin_c, cos_m)]
            if cos_m > 1e-12:
                candidates.append(math.atan2(sin_c, -cos_m))
        else:
            candidates = [math.atan2(sin_c, inhom / coef)]
        for theta_c in candidates:
            s_fp, theta_fp, res = _polish_point(s_root, theta_c, q)
            if res >= RESIDUAL_TOL:
                continue
            theta_fp %= TWO_PI
            for p in points:  # a duplicate: angle_distance below 1e-7 too
                if abs(p[0] - s_fp) < 1e-7:
                    d = abs(p[1] - theta_fp) % TWO_PI
                    if d < 1e-7 or TWO_PI - d < 1e-7:
                        break
            else:
                _check_pole(s_fp)
                points.append((s_fp, theta_fp, res, mult))
    if len(points) > 1:
        points.sort(key=lambda p: (p[0], p[1]))
    for s_root, sin_c in folds:
        n_here = [abs(p[0] - s_root) < 1e-6 for p in points].count(True)
        if n_here != 2 or 1.0 - abs(sin_c) <= 1e-9:
            degenerate = True
    return points, degenerate


def interior_fixed_points(q: ReducedParams) -> list[FixedPoint]:
    """All validated fixed points with -1 < S < 1 (see interior_census)."""
    return interior_census(q)[0]


def _boundary_cos(q: ReducedParams) -> float:
    """cos(theta) of the S = -1 fixed point; it exists iff |cos| <= 1."""
    if not q.omega > 0:
        raise ValueError("boundary fixed point requires omega > 0")
    return -math.sqrt(2.0) * (q.c + q.r) / q.omega


def boundary_fixed_point(q: ReducedParams) -> FixedPoint | None:
    """Fixed point of the S = -1 boundary family, when it exists.

    Present iff |sqrt2 (C+R)| <= Omega, at theta =
    arccos(-sqrt2 (C+R)/Omega).  The (S, theta) chart is degenerate on
    the boundary; the linearization uses the local coordinate p = 1 + S
    (same partial derivatives, one-sided in p >= 0) where the Jacobian
    is lower triangular with real eigenvalues.
    """
    x = _boundary_cos(q)
    if abs(x) > 1.0:
        return None
    theta = math.acos(x)
    eigenvalues, kind = _spectrum(*_jacobian_entries(-1.0, theta, q))
    return FixedPoint(s=-1.0, theta=theta, kind=kind, eigenvalues=eigenvalues,
                      residual=residual(-1.0, theta, q), on_boundary=True)


def all_fixed_points(q: ReducedParams) -> list[FixedPoint]:
    """Interior points plus the boundary point when present."""
    points = interior_fixed_points(q)
    bfp = boundary_fixed_point(q)
    if bfp is not None:
        points.append(bfp)
    return points


def threshold_gamma(c: float, r: float, omega: float) -> float | None:
    """Decoherence rate at which a root reaches the S = -1 boundary.

    Closed form sqrt(2 Omega^2 - 4 (C+R)^2) when the radicand is
    non-negative, absent otherwise.
    """
    if not omega > 0:
        raise ValueError("threshold requires omega > 0")
    radicand = 2.0 * omega * omega - 4.0 * (c + r) ** 2
    if radicand < 0.0:
        return None
    return math.sqrt(radicand)


def _census_arrays(c, r, omega, gamma):
    """interior_census over arrays of parameter points, stage by stage.

    Returns per point the degeneracy flag, the number of fixed points,
    cos(theta) of the first (read for one point only) and a mask of the
    points where the scalar census raises.  Every stage is the scalar
    code's expressions in its order on the points still open; numpy's
    sqrt, sin, cos and mod give the bits of math's, but atan2 is mapped
    through Python (see the module docstring).
    """
    n = len(c)
    c3, c2, c1, c0 = _coefficients(c, omega, r, gamma)
    scale = _first_max(np.abs(c3), np.abs(c2), np.abs(c1), np.abs(c0), 1e-300)
    degenerate = np.abs(((c3 * -1.0 + c2) * -1.0 + c1) * -1.0 + c0) <= 1e-9 * scale
    roots, mult = _real_cubic_roots_array(c3, c2, c1, c0)

    # candidate phases of each root in (-1, 1), in the scalar order
    cell, slot = np.nonzero((mult > 0) & (-1.0 < roots) & (roots < 1.0))
    s = roots[cell, slot]
    cc, om, rr, gg = c[cell], omega[cell], r[cell], gamma[cell]
    root1ms = np.sqrt(1.0 - s)
    sin_c = -gg * root1ms / (2.0 * om)
    fold = mult[cell, slot] > 1
    fold_cell, fold_s, fold_sin = cell[fold], s[fold], sin_c[fold]
    keep = ((-1.0 + BOUNDARY_MARGIN < s) & (s < 1.0 - EPS_POLE)
            & ~(np.abs(sin_c) > 1.0 + 1e-9))
    sin_c = np.where(sin_c > -1.0, sin_c, -1.0)  # min(1, max(-1, sin_c))
    sin_c = np.where(sin_c < 1.0, sin_c, 1.0)
    coef = om * (1.0 - 3.0 * s) / root1ms
    inhom = 4.0 * cc * s - 4.0 * rr
    vacuous = np.abs(coef) <= 1e-6 * om
    keep &= ~(vacuous & (np.abs(inhom) > 1e-6 * _first_max(
        1.0, np.abs(4.0 * cc) + np.abs(4.0 * rr))))
    cos_m = np.sqrt(_first_max(0.0, 1.0 - sin_c * sin_c))
    x_phase = np.stack([np.where(vacuous, cos_m, inhom / coef), -cos_m], axis=1)
    branch = np.stack([keep, keep & vacuous & (cos_m > 1e-12)], axis=1)
    k_root, k_branch = np.nonzero(branch)
    owner = cell[k_root]
    theta = _mapped(math.atan2, sin_c[k_root], x_phase[k_root, k_branch])
    s_fp, theta_fp, res, failed_polish = _polish_points(
        s[k_root], theta, c[owner], omega[owner], r[owner], gamma[owner])
    theta_fp = np.mod(theta_fp, TWO_PI)

    # dedupe within each point in candidate order, on a (point, rank) grid
    rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
    width = int(rank.max(initial=0)) + 1
    s_grid = np.full((n, width), np.nan)
    t_grid = np.full((n, width), np.nan)
    gate = np.zeros((n, width), dtype=bool)
    s_grid[owner, rank], t_grid[owner, rank] = s_fp, theta_fp
    gate[owner, rank] = ~(res >= RESIDUAL_TOL)
    taken = np.zeros((n, width), dtype=bool)
    for k in range(width):
        dup = np.zeros(n, dtype=bool)
        for i in range(k):
            dup |= (taken[:, i] & (np.abs(s_grid[:, i] - s_grid[:, k]) < 1e-7)
                    & (angle_distance(t_grid[:, i], t_grid[:, k]) < 1e-7))
        taken[:, k] = gate[:, k] & ~dup

    failed = ~(np.isfinite([c, r, omega, gamma]).all(axis=0) & (omega > 0.0))
    failed[owner[failed_polish]] = True
    # a kept point inside EPS_POLE of the pole: the scalar Jacobian raises
    failed[(taken & (s_grid >= 1.0 - EPS_POLE)).any(axis=1)] = True

    n_here = (taken[fold_cell]
              & (np.abs(s_grid[fold_cell] - fold_s[:, None]) < 1e-6)).sum(axis=1)
    degenerate[fold_cell[(n_here != 2) | (1.0 - np.abs(fold_sin) <= 1e-9)]] = True
    n_points = taken.sum(axis=1)
    cos_first = np.cos(t_grid[np.arange(n), np.argmax(taken, axis=1)])
    return degenerate, n_points, cos_first, failed


def _first_max(first, *rest):
    """Builtin max() elementwise: a later value wins only when greater,
    so a NaN never wins and a leading NaN stays."""
    for x in rest:
        first = np.where(x > first, x, first)
    return first


def _shrink(keep, *arrays):
    return [a[keep] for a in arrays]


def _real_cubic_roots_array(c3, c2, c1, c0):
    """real_cubic_roots of one cubic per element.

    Returns (roots, mult), each (n, 5): slot 2k holds the simple root of
    the k-th monotone piece and slot 2k + 1 the double root at its right
    end, the order of real_cubic_roots, with mult 0 in empty slots.  The
    double root it can report at the Cauchy bound, outside (-1, 1), is
    left out.
    """
    n = len(c0)
    coeffs = (c3, c2, c1, c0)
    scale = _first_max(*(np.abs(v) for v in coeffs))
    lead = np.full(n, 3)
    for k in (2, 1, 0):
        lead = np.where(np.abs(coeffs[k]) > 1e-14 * scale, k, lead)
    top = np.choose(np.minimum(lead, 2), coeffs[:3])
    spread = np.full(n, np.nan)
    for k in (1, 2, 3):
        ratio = np.abs(coeffs[k] / top)
        spread = np.where((lead + 1 == k) | ((lead + 1 < k) & (ratio > spread)),
                          ratio, spread)
    bound = 1.0 + spread
    c3 = np.where(lead > 0, 0.0, c3)
    c2 = np.where(lead > 1, 0.0, c2)

    # _critical_points, then those strictly inside the bound, sorted
    a, b = 3.0 * c3, 2.0 * c2
    linear = a == 0.0
    disc = b * b - 4.0 * a * c1
    qf = np.where(b != 0.0, -0.5 * (b + np.copysign(np.sqrt(disc), b)),
                  0.5 * np.sqrt(disc))
    x1 = np.where(linear, -c1 / b, np.where(qf != 0.0, qf / a, 0.0))
    x2 = c1 / qf
    ok1 = np.where(linear, b != 0.0, ~(disc < 0.0)) & (-bound < x1) & (x1 < bound)
    ok2 = ~linear & ~(disc < 0.0) & (qf != 0.0) & (-bound < x2) & (x2 < bound)
    swap = ok1 & ok2 & (x2 < x1)
    n_crit = ok1.astype(int) + ok2
    xs = np.stack([-bound, np.where(n_crit > 0, np.where(ok1 & ~swap, x1, x2), bound),
                   np.where(n_crit > 1, np.where(swap, x1, x2), bound), bound], axis=1)
    ps = ((c3[:, None] * xs + c2[:, None]) * xs + c1[:, None]) * xs + c0[:, None]
    for k in (1, 2):  # a critical point where p vanishes is a double root
        at = np.flatnonzero(n_crit >= k)
        x = xs[at, k]
        local = _first_max(np.abs(c3[at] * (x * x * x)),
                           np.abs(c2[at] * (x * x)),
                           np.abs(c1[at] * x), np.abs(c0[at]))
        ps[at[np.abs(ps[at, k]) <= DOUBLE_ROOT_TOL * local], k] = 0.0

    roots = np.full((n, 5), np.nan)
    mult = np.zeros((n, 5), dtype=int)
    rows, pieces = [], []
    for k in (1, 2, 3):  # lead 3 has a NaN bound and no roots
        live = (lead < 3) & (k <= n_crit + 1)
        p0, p1 = ps[:, k - 1], ps[:, k]
        at = np.flatnonzero(live & (((p0 < 0.0) & (0.0 < p1))
                                    | ((p1 < 0.0) & (0.0 < p0))))
        rows.append(at)
        pieces.append(np.full(len(at), k))
        if k < 3:
            at = np.flatnonzero(live & (k <= n_crit) & (p1 == 0.0))
            roots[at, 2 * k - 1] = xs[at, k]
            mult[at, 2 * k - 1] = 2
    rows, pieces = np.concatenate(rows), np.concatenate(pieces)
    roots[rows, 2 * pieces - 2] = _bracketed_roots(
        c3[rows], c2[rows], c1[rows], c0[rows], xs[rows, pieces - 1],
        xs[rows, pieces], ps[rows, pieces - 1])
    mult[rows, 2 * pieces - 2] = 1
    return roots, mult


def _bracketed_roots(c3, c2, c1, c0, lo, hi, p_lo):
    """_bracketed_root of each bracket, iterated until every one stops."""
    out = np.empty(len(lo))
    idx = np.arange(len(lo))
    d3, d2 = 3.0 * c3, 2.0 * c2
    x = 0.5 * (lo + hi)
    best, best_val = x, np.full(len(x), np.inf)
    lo_negative = p_lo < 0.0
    while len(idx):
        p = ((c3 * x + c2) * x + c1) * x + c0
        size = np.abs(p)
        better = size < best_val
        best = np.where(better, x, best)
        best_val = np.where(better, size, best_val)
        left = (p < 0.0) == lo_negative
        lo = np.where(left, x, lo)
        hi = np.where(left, hi, x)
        d = (d3 * x + d2) * x + c1
        newton = np.where(d != 0.0, x - p / d, np.nan)
        go = ~(p == 0.0) & ~(newton == x)
        inside = (lo < newton) & (newton < hi)
        x = np.where(inside, newton, 0.5 * (lo + hi))
        go &= inside | ((lo < x) & (x < hi))
        out[idx[~go]] = best[~go]
        (idx, c3, c2, c1, c0, d3, d2, lo, hi, x, best, best_val,
         lo_negative) = _shrink(go, idx, c3, c2, c1, c0, d3, d2, lo, hi, x,
                                best, best_val, lo_negative)
    return out


def _flow(s, theta, c, omega, r, gamma):
    """reduced_deriv elementwise, its expressions in its order."""
    root = np.sqrt(1.0 - s)
    ds = -2.0 * omega * (1.0 + s) * root * np.sin(theta) - gamma * (1.0 - s * s)
    dtheta = 4.0 * c * s - 4.0 * r - omega * (1.0 - 3.0 * s) / root * np.cos(theta)
    return ds, dtheta


def _polish_points(s, theta, c, omega, r, gamma):
    """_polish_point of each candidate: (s, theta, residual, raises).

    The scalar polish raises where a step lands on an infinite phase,
    since math.sin rejects it; such a candidate is marked and stops.
    """
    ds, dth = _flow(s, theta, c, omega, r, gamma)
    best_s, best_t = s.copy(), theta.copy()
    best_res = _first_max(np.abs(ds), np.abs(dth))
    raises = np.zeros(len(s), dtype=bool)
    idx = np.arange(len(s))
    res = best_res
    for _ in range(20):
        # stop at the floor, or where the Jacobian's pole guard would raise
        go = ~(res < 1e-14) & ~(s >= 1.0 - 1e-14)
        idx, s, theta, ds, dth, res, c, omega, r, gamma = _shrink(
            go, idx, s, theta, ds, dth, res, c, omega, r, gamma)
        if not len(idx):
            break
        root = np.sqrt(1.0 - s)
        j11, j12, j21, j22 = _jacobian_terms(
            s, np.sin(theta), np.cos(theta), root, root * root * root,
            c, omega, gamma)
        det = j11 * j22 - j12 * j21
        norm = _first_max(np.abs(j11), np.abs(j12), np.abs(j21), np.abs(j22), 1e-300)
        s_new = s - (j22 * ds - j12 * dth) / det
        t_new = theta - (-j21 * ds + j11 * dth) / det
        go = ~(np.abs(det) < 1e-12 * norm * norm) & (-1.0 < s_new) & (s_new < 1.0 - 1e-14)
        raises[idx[go & np.isinf(t_new)]] = True
        go &= ~np.isinf(t_new)
        idx, s, theta, res, c, omega, r, gamma = _shrink(
            go, idx, s_new, t_new, res, c, omega, r, gamma)
        ds, dth = _flow(s, theta, c, omega, r, gamma)
        res_new = _first_max(np.abs(ds), np.abs(dth))
        go = res_new < res
        idx, s, theta, ds, dth, res, c, omega, r, gamma = _shrink(
            go, idx, s, theta, ds, dth, res_new, c, omega, r, gamma)
        best_s[idx], best_t[idx], best_res[idx] = s, theta, res
    return best_s, best_t, best_res, raises


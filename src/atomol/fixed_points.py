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
Gamma and S share a sign and an attractor when they differ.

The census runs once per scan cell, on Python floats only; jacobian,
eigenvalues_2x2 and classify wrap its float core (_jacobian_entries,
_spectrum) for numpy 2x2 arrays, so they give the bits of the census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EPS_POLE, TWO_PI, ReducedParams, angle_distance, reduced_deriv

KIND_CENTER = "center"
KIND_SPIRAL_ATTRACTOR = "spiral-attractor"
KIND_SPIRAL_REPELLER = "spiral-repeller"
KIND_NODE_ATTRACTOR = "node-attractor"
KIND_NODE_REPELLER = "node-repeller"
KIND_SADDLE = "saddle"
KIND_INDETERMINATE = "indeterminate"

ATTRACTOR_KINDS = (KIND_SPIRAL_ATTRACTOR, KIND_NODE_ATTRACTOR)
REPELLER_KINDS = (KIND_SPIRAL_REPELLER, KIND_NODE_REPELLER)

# Residual gate on reported fixed points, max(|dS/dt|, |dtheta/dt|).
RESIDUAL_TOL = 1e-9

# Interior roots closer than this to S = -1 sit on a census bifurcation.
BOUNDARY_MARGIN = 1e-9


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients of the fixed-point cubic, highest power first."""

    c3: float
    c2: float
    c1: float
    c0: float

    def evaluate(self, s):
        return ((self.c3 * s + self.c2) * s + self.c1) * s + self.c0

    def derivative(self, s):
        return (3.0 * self.c3 * s + 2.0 * self.c2) * s + self.c1


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


def cubic_coefficients(q: ReducedParams) -> CubicCoefficients:
    """Fixed-point polynomial in S for the reduced flow."""
    g2 = q.gamma * q.gamma
    om2 = q.omega * q.omega
    c2_ = q.c * q.c
    r2 = q.r * q.r
    cr = q.c * q.r
    return CubicCoefficients(
        c3=9.0 * g2 + 64.0 * c2_,
        c2=-(15.0 * g2 - 36.0 * om2 + 64.0 * c2_ + 128.0 * cr),
        c1=-(24.0 * om2 - 7.0 * g2 - 64.0 * r2 - 128.0 * cr),
        c0=-(g2 - 4.0 * om2 + 64.0 * r2),
    )


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
    coeffs = (cc.c3, cc.c2, cc.c1, cc.c0)
    scale = max(map(abs, coeffs))
    lead = next((k for k in range(3) if abs(coeffs[k]) > 1e-14 * scale), None)
    if lead is None:
        return []
    c3, c2, c1, c0 = (0.0,) * lead + coeffs[lead:]
    bound = 1.0 + max(abs(c / coeffs[lead]) for c in coeffs[lead + 1:])
    xs = [-bound, *sorted(x for x in _critical_points(c3, c2, c1)
                          if -bound < x < bound), bound]
    ps = [((c3 * x + c2) * x + c1) * x + c0 for x in xs]
    for k in range(1, len(xs) - 1):
        x = xs[k]
        local = max(abs(c3 * x ** 3), abs(c2 * x ** 2), abs(c1 * x), abs(c0))
        if abs(ps[k]) <= 1e-10 * local:
            ps[k] = 0.0  # double root at a critical point
    roots: list[tuple[float, int]] = []
    for k in range(1, len(xs)):
        if ps[k - 1] < 0.0 < ps[k] or ps[k] < 0.0 < ps[k - 1]:
            roots.append((_bracketed_root(c3, c2, c1, c0, xs[k - 1], xs[k],
                                          ps[k - 1]), 1))
        if ps[k] == 0.0:
            roots.append((xs[k], 2))
    return roots


def _jacobian_entries(s: float, theta: float, q: ReducedParams,
                      eps_pole: float = EPS_POLE):
    """Entries (j11, j12, j21, j22) of the Jacobian; j11 + j22 = 2 Gamma S."""
    if s >= 1.0 - eps_pole:
        raise ValueError(f"jacobian evaluated too close to the S = 1 pole: {s}")
    root = math.sqrt(1.0 - s)
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    shear = q.omega * (1.0 - 3.0 * s) / root
    j11 = -shear * sin_t + 2.0 * q.gamma * s
    j12 = -2.0 * q.omega * (1.0 + s) * root * cos_t
    j21 = 4.0 * q.c + q.omega * (5.0 - 3.0 * s) * cos_t / (2.0 * root ** 3)
    j22 = shear * sin_t
    return j11, j12, j21, j22


def jacobian(s: float, theta: float, q: ReducedParams,
             eps_pole: float = EPS_POLE) -> np.ndarray:
    """Analytic Jacobian of the reduced flow at (s, theta).

    Satisfies trace(J) = 2*Gamma*S identically: the theta-dependent
    parts of dSdot/dS and dthetadot/dtheta cancel exactly.
    """
    return np.array(_jacobian_entries(s, theta, q, eps_pole)).reshape(2, 2)


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


def eigenvalues_2x2(j: np.ndarray) -> tuple[complex, complex]:
    """Closed-form eigenvalues of a real 2x2 matrix."""
    return _spectrum(*j.ravel())[0]


def classify(j: np.ndarray, tol: float = 1e-9) -> str:
    """Stability class from the Jacobian eigenvalues (see _spectrum)."""
    return _spectrum(*j.ravel(), tol)[1]


def residual(s: float, theta: float, q: ReducedParams) -> float:
    """max(|dS/dt|, |dtheta/dt|) of the raw vector field."""
    ds, dtheta = reduced_deriv(s, theta, q.c, q.omega, q.r, q.gamma,
                               eps_pole=0.0)
    return max(abs(ds), abs(dtheta))


def _polish_point(s: float, theta: float, q: ReducedParams):
    """Safeguarded 2D Newton on the raw vector field: (s, theta, residual)."""
    ds_dt, dth_dt = reduced_deriv(s, theta, q.c, q.omega, q.r, q.gamma,
                                  eps_pole=0.0)
    best_s, best_t = s, theta
    best_res = max(abs(ds_dt), abs(dth_dt))
    for _ in range(20):
        if best_res < 1e-14:
            break
        try:
            j11, j12, j21, j22 = _jacobian_entries(s, theta, q, eps_pole=1e-14)
        except ValueError:
            break
        det = j11 * j22 - j12 * j21
        norm = max(abs(j11), abs(j12), abs(j21), abs(j22), 1e-300)
        if abs(det) < 1e-12 * norm * norm:
            break
        s_new = s - (j22 * ds_dt - j12 * dth_dt) / det
        t_new = theta - (-j21 * ds_dt + j11 * dth_dt) / det
        if not -1.0 < s_new < 1.0 - 1e-14:
            break
        ds_dt, dth_dt = reduced_deriv(s_new, t_new, q.c, q.omega, q.r,
                                      q.gamma, eps_pole=0.0)
        res = max(abs(ds_dt), abs(dth_dt))
        s, theta = s_new, t_new
        if res < best_res:
            best_s, best_t, best_res = s, theta, res
        else:
            break
    return best_s, best_t, best_res


def interior_census(q: ReducedParams) -> tuple[list[FixedPoint], bool]:
    """Interior fixed points, and whether their census is degenerate.

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
    if not q.omega > 0:
        raise ValueError("interior fixed points require omega > 0")
    cc = cubic_coefficients(q)
    scale = max(abs(cc.c3), abs(cc.c2), abs(cc.c1), abs(cc.c0), 1e-300)
    degenerate = abs(cc.evaluate(-1.0)) <= 1e-9 * scale
    folds = []  # (S, unclipped sin theta) of the double roots in (-1, 1)
    points: list[FixedPoint] = []
    for s_root, mult in real_cubic_roots(cc):
        if not -1.0 < s_root < 1.0:
            continue
        root1ms = math.sqrt(1.0 - s_root)
        sin_c = -q.gamma * root1ms / (2.0 * q.omega)
        if mult > 1:
            folds.append((s_root, sin_c))
        if not (-1.0 + BOUNDARY_MARGIN < s_root < 1.0 - EPS_POLE):
            continue
        if abs(sin_c) > 1.0 + 1e-9:
            continue
        sin_c = min(1.0, max(-1.0, sin_c))
        coef = q.omega * (1.0 - 3.0 * s_root) / root1ms
        inhom = 4.0 * q.c * s_root - 4.0 * q.r
        if abs(coef) <= 1e-6 * q.omega:
            # cosine equation vacuous: S = 1/3 with C S = R
            if abs(inhom) > 1e-6 * max(1.0, abs(4.0 * q.c) + abs(4.0 * q.r)):
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
            if any(abs(p.s - s_fp) < 1e-7
                   and angle_distance(p.theta, theta_fp) < 1e-7
                   for p in points):
                continue
            eigenvalues, kind = _spectrum(*_jacobian_entries(s_fp, theta_fp, q))
            points.append(FixedPoint(
                s=s_fp, theta=theta_fp, kind=kind,
                eigenvalues=eigenvalues, residual=res,
                on_boundary=False, multiplicity=mult,
            ))
    points.sort(key=lambda p: (p.s, p.theta))
    for s_root, sin_c in folds:
        n_here = sum(1 for p in points if abs(p.s - s_root) < 1e-6)
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


def has_boundary_fixed_point(q: ReducedParams) -> bool:
    """Whether the S = -1 family has a fixed point: |sqrt2 (C+R)| <= Omega."""
    return abs(_boundary_cos(q)) <= 1.0


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
